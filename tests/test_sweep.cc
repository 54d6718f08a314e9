/**
 * @file
 * The sharded-sweep layer: ShardSpec grid partitioning, the
 * deterministic retry backoff, POSIX subprocess control, the shard
 * report codec, the bit-exact shard-checkpoint merge with its
 * validation/degradation behaviour, and an in-process end-to-end
 * check that shard → merge → resume reproduces the single-process
 * study byte for byte.
 */

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/checkpoint.h"
#include "sim/shard.h"
#include "sweep/merge.h"
#include "sweep/shard_report.h"
#include "sweep/supervisor.h"
#include "util/atomic_file.h"
#include "util/chaos.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/subprocess.h"

namespace aegis {
namespace {

/** Unique temp directory per test; removed recursively on exit. */
class TempDir
{
  public:
    explicit TempDir(const std::string &name)
        : p((std::filesystem::temp_directory_path() /
             ("aegis_sweep_test_" + name + "_" +
              std::to_string(::getpid())))
                .string())
    {
        std::filesystem::remove_all(p);
        std::filesystem::create_directories(p);
    }
    ~TempDir() { std::filesystem::remove_all(p); }
    std::string file(const std::string &leaf) const
    {
        return p + "/" + leaf;
    }
    const std::string &str() const { return p; }

  private:
    std::string p;
};

TEST(ShardSpec, ParseAcceptsValidSpecs)
{
    const Expected<sim::ShardSpec> a = sim::ShardSpec::parse("0/1");
    ASSERT_TRUE(a.ok()) << a.error();
    EXPECT_EQ(a->index, 0u);
    EXPECT_EQ(a->count, 1u);
    EXPECT_FALSE(a->active());

    const Expected<sim::ShardSpec> b = sim::ShardSpec::parse("3/4");
    ASSERT_TRUE(b.ok()) << b.error();
    EXPECT_EQ(b->index, 3u);
    EXPECT_EQ(b->count, 4u);
    EXPECT_TRUE(b->active());
    EXPECT_EQ(b->label(), "3/4");
}

TEST(ShardSpec, ParseRejectsMalformedSpecs)
{
    for (const char *bad : {"", "1", "/", "1/", "/4", "a/b", "1/0",
                            "4/4", "5/4", "-1/4", "1/4/2", "1 /4"}) {
        const Expected<sim::ShardSpec> r = sim::ShardSpec::parse(bad);
        EXPECT_FALSE(r.ok()) << "accepted `" << bad << "'";
    }
    // The 1-based off-by-one gets a pointed message.
    const Expected<sim::ShardSpec> r = sim::ShardSpec::parse("4/4");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("0-based"), std::string::npos)
        << r.error();
}

TEST(ShardSpec, OwnsPartitionsTheGridExactly)
{
    // Every chunk is owned by exactly one of N shards.
    const std::uint32_t N = 4;
    for (std::size_t chunk = 0; chunk < 64; ++chunk) {
        std::size_t owners = 0;
        for (std::uint32_t i = 0; i < N; ++i)
            owners += sim::ShardSpec{i, N}.owns(chunk) ? 1 : 0;
        EXPECT_EQ(owners, 1u) << "chunk " << chunk;
    }
    // The unsharded spec owns everything.
    for (std::size_t chunk = 0; chunk < 16; ++chunk)
        EXPECT_TRUE(sim::ShardSpec{}.owns(chunk));
}

TEST(ShardSpec, ArtifactStemAppendsShardLeaf)
{
    EXPECT_EQ(sim::shardArtifactStem("/tmp/out", 2),
              "/tmp/out/shard_2");
    EXPECT_EQ(sim::shardArtifactStem("/tmp/out/", 0),
              "/tmp/out/shard_0");
}

TEST(BackoffPolicy, DeterministicExponentialWithCap)
{
    const BackoffPolicy policy{0.5, 8.0, 2.0};
    EXPECT_DOUBLE_EQ(policy.delaySec(0), 0.5);
    EXPECT_DOUBLE_EQ(policy.delaySec(1), 1.0);
    EXPECT_DOUBLE_EQ(policy.delaySec(2), 2.0);
    EXPECT_DOUBLE_EQ(policy.delaySec(3), 4.0);
    EXPECT_DOUBLE_EQ(policy.delaySec(4), 8.0);
    EXPECT_DOUBLE_EQ(policy.delaySec(5), 8.0);
    EXPECT_DOUBLE_EQ(policy.delaySec(100), 8.0); // no overflow
    // Same input, same delay: retries are reproducible.
    EXPECT_DOUBLE_EQ(policy.delaySec(3), policy.delaySec(3));
}

TEST(Subprocess, ExitCodeReported)
{
    const Expected<pid_t> pid = spawnProcess(
        SpawnSpec{{"/bin/sh", "-c", "exit 3"}, {}, "", ""});
    ASSERT_TRUE(pid.ok()) << pid.error();
    const Expected<ExitStatus> st = waitProcess(*pid);
    ASSERT_TRUE(st.ok()) << st.error();
    EXPECT_FALSE(st->signaled);
    EXPECT_EQ(st->code, 3);
    EXPECT_EQ(st->describe(), "exit 3");
    EXPECT_FALSE(st->ok());
}

TEST(Subprocess, EnvOverridesAndRedirection)
{
    TempDir dir("subproc_env");
    const std::string out = dir.file("child.out");
    const Expected<pid_t> pid = spawnProcess(SpawnSpec{
        {"/bin/sh", "-c", "printf '%s' \"$AEGIS_TEST_VALUE\""},
        {{"AEGIS_TEST_VALUE", "injected"}},
        out,
        ""});
    ASSERT_TRUE(pid.ok()) << pid.error();
    const Expected<ExitStatus> st = waitProcess(*pid);
    ASSERT_TRUE(st.ok() && st->ok()) << st.error();
    std::ifstream f(out);
    std::string text((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text, "injected");

    // An empty value unsets the variable in the child.
    ::setenv("AEGIS_TEST_VALUE", "leaked", 1);
    const Expected<pid_t> pid2 = spawnProcess(SpawnSpec{
        {"/bin/sh", "-c", "test -z \"${AEGIS_TEST_VALUE+x}\""},
        {{"AEGIS_TEST_VALUE", ""}},
        "",
        ""});
    ::unsetenv("AEGIS_TEST_VALUE");
    ASSERT_TRUE(pid2.ok()) << pid2.error();
    const Expected<ExitStatus> st2 = waitProcess(*pid2);
    ASSERT_TRUE(st2.ok()) << st2.error();
    EXPECT_TRUE(st2->ok()) << st2->describe();
}

TEST(Subprocess, PollThenKillReportsSignal)
{
    const Expected<pid_t> pid = spawnProcess(
        SpawnSpec{{"/bin/sh", "-c", "sleep 30"}, {}, "", ""});
    ASSERT_TRUE(pid.ok()) << pid.error();
    EXPECT_FALSE(pollProcess(*pid).has_value()); // still running
    killProcess(*pid);
    const Expected<ExitStatus> st = waitProcess(*pid);
    ASSERT_TRUE(st.ok()) << st.error();
    EXPECT_TRUE(st->signaled);
    EXPECT_EQ(st->code, 9);
    EXPECT_EQ(st->describe(), "signal 9");
}

TEST(Subprocess, ExecFailureSurfacesAs127)
{
    const Expected<pid_t> pid = spawnProcess(SpawnSpec{
        {"/nonexistent-dir/no-such-binary"}, {}, "", ""});
    ASSERT_TRUE(pid.ok()) << pid.error();
    const Expected<ExitStatus> st = waitProcess(*pid);
    ASSERT_TRUE(st.ok()) << st.error();
    EXPECT_FALSE(st->signaled);
    EXPECT_EQ(st->code, 127);
}

TEST(ShardReport, RoundTripsThroughTextAndDisk)
{
    TempDir dir("report");
    const std::vector<obs::ShardEntry> entries = {
        obs::ShardEntry{0, "ok", 1, 0, 1.25, ""},
        obs::ShardEntry{1, "ok", 3, 0, 4.5, ""},
        obs::ShardEntry{2, "failed", 4, -9,
                        0.125, "stalled; killed after 2.0s"},
    };
    const std::string path = dir.file("shards.report");
    ASSERT_TRUE(sweep::writeShardReportFile(path, entries).ok());
    const Expected<std::vector<obs::ShardEntry>> back =
        sweep::loadShardReportFile(path);
    ASSERT_TRUE(back.ok()) << back.error();
    ASSERT_EQ(back->size(), 3u);
    EXPECT_EQ((*back)[0].status, "ok");
    EXPECT_EQ((*back)[1].attempts, 3u);
    EXPECT_EQ((*back)[2].exitCode, -9);
    EXPECT_EQ((*back)[2].detail, "stalled; killed after 2.0s");
    EXPECT_DOUBLE_EQ((*back)[2].wallSeconds, 0.125);
}

TEST(ShardReport, MalformedInputRejected)
{
    for (const char *bad : {
             "",                                  // no header
             "wrong-header v1\n",                 // bad header
             "aegis-shard-report v2\n",           // bad version
             "aegis-shard-report v1\nshard\n",    // short line
             "aegis-shard-report v1\nshard x ok 1 0 0.5\n", // bad int
             "aegis-shard-report v1\nshard 0 maybe 1 0 0.5\n",
         }) {
        const Expected<std::vector<obs::ShardEntry>> r =
            sweep::decodeShardReport(bad, "r.txt");
        EXPECT_FALSE(r.ok()) << "accepted: " << bad;
        if (!r.ok()) {
            EXPECT_NE(r.error().find("r.txt"), std::string::npos)
                << r.error();
        }
    }
}

TEST(SupervisorConfig, ParseShardChaos)
{
    const std::map<std::uint32_t, std::string> chaos =
        sweep::parseShardChaos(
            "1=kill-after-chunks=3;2=hang-after-chunks=2,io-fail-rate=0.5",
            4);
    ASSERT_EQ(chaos.size(), 2u);
    EXPECT_EQ(chaos.at(1), "kill-after-chunks=3");
    EXPECT_EQ(chaos.at(2), "hang-after-chunks=2,io-fail-rate=0.5");
    EXPECT_TRUE(sweep::parseShardChaos("", 4).empty());

    EXPECT_THROW(sweep::parseShardChaos("4=kill-after-chunks=1", 4),
                 ConfigError); // shard out of range
    EXPECT_THROW(sweep::parseShardChaos("nonsense", 4), ConfigError);
    EXPECT_THROW(sweep::parseShardChaos("1=", 4), ConfigError);
}

TEST(ChaosSpec, HangAfterChunksParses)
{
    const ChaosConfig c = parseChaosSpec("hang-after-chunks=7");
    EXPECT_EQ(c.hangAfterChunks, 7u);
    EXPECT_TRUE(c.enabled());
    EXPECT_THROW(parseChaosSpec("hang-after-chunks=x"), ConfigError);
}

// ---------------------------------------------------------------------
// Merge

/** A toy study body identical across shards/golden runs. */
void
toyBody(sim::PageStudy &acc, std::size_t i)
{
    Rng rng(9000 + i);
    acc.pageLifetime.add(1e3 * static_cast<double>(i) +
                         rng.nextDouble());
    acc.survival.addDeath(static_cast<double>(i + 1));
    acc.metrics.counters[0] += 1;
}

constexpr std::size_t kToyItems = 64;
constexpr std::size_t kToyGrain = 4; // 16 chunks
constexpr std::uint64_t kToyFingerprint = 0x5eed;

/** Run the toy unit under @p shard, writing @p path. */
void
runShardWorker(const std::string &path, sim::ShardSpec shard)
{
    sim::CheckpointSession session(path, "toy", 7, 42, shard);
    session.setSnapshotEveryChunks(1);
    sim::ScopedRunContext scoped(
        sim::RunContext{&session, nullptr, shard, false});
    (void)sim::runStudyUnit<sim::PageStudy>(
        kToyItems, 2, sim::StudyKind::Page, kToyFingerprint, toyBody,
        kToyGrain);
}

TEST(Merge, ShardsReassembleAndResumeBitIdentical)
{
    const sim::PageStudy golden = sim::runStudyUnit<sim::PageStudy>(
        kToyItems, 1, sim::StudyKind::Page, kToyFingerprint, toyBody,
        kToyGrain);

    TempDir dir("merge_e2e");
    std::vector<std::string> paths;
    const std::uint32_t N = 3;
    for (std::uint32_t i = 0; i < N; ++i) {
        paths.push_back(dir.file("shard_" + std::to_string(i) +
                                 ".ckpt"));
        runShardWorker(paths.back(), sim::ShardSpec{i, N});
    }

    sweep::MergeReport report;
    const Expected<sim::CheckpointData> merged =
        sweep::mergeShardCheckpoints(paths, sweep::MergeOptions{},
                                     &report);
    ASSERT_TRUE(merged.ok()) << merged.error();
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.shardFiles, 3u);
    EXPECT_EQ(report.units, 1u);
    EXPECT_EQ(report.chunks, 16u);
    EXPECT_EQ(merged->shardIndex, 0u);
    EXPECT_EQ(merged->shardCount, 1u);
    ASSERT_EQ(merged->partials.size(), 1u);
    ASSERT_EQ(merged->partials[0].chunks.size(), 16u);
    for (std::uint32_t c = 0; c < 16; ++c)
        EXPECT_EQ(merged->partials[0].chunks[c].index, c);

    // Resuming the merged checkpoint restores every chunk — nothing
    // recomputes — and reproduces the single-process study bit for
    // bit.
    const std::string mergedPath = dir.file("merged.ckpt");
    ASSERT_TRUE(
        atomicWriteFile(mergedPath, sim::encodeCheckpoint(*merged))
            .ok());
    sim::CheckpointSession session(mergedPath, "toy", 7, 42);
    ASSERT_TRUE(session.resume().ok());
    std::atomic<bool> executed{false};
    sim::ScopedRunContext scoped(
        sim::RunContext{&session, nullptr, {}, false});
    const sim::PageStudy restored = sim::runStudyUnit<sim::PageStudy>(
        kToyItems, 4, sim::StudyKind::Page, kToyFingerprint,
        [&](sim::PageStudy &, std::size_t) { executed = true; },
        kToyGrain);
    EXPECT_FALSE(executed.load());
    EXPECT_EQ(session.skippedChunks(), 0u);

    BinaryWriter wg, wr;
    serializeStudy(golden, wg);
    serializeStudy(restored, wr);
    EXPECT_EQ(wr.data(), wg.data())
        << "merged sharded sweep diverged from single-process run";
}

TEST(Merge, SingleShardPassthrough)
{
    TempDir dir("merge_single");
    const std::string path = dir.file("only.ckpt");
    runShardWorker(path, sim::ShardSpec{}); // 0/1: plain run
    const Expected<sim::CheckpointData> merged =
        sweep::mergeShardCheckpoints({path}, sweep::MergeOptions{});
    ASSERT_TRUE(merged.ok()) << merged.error();
    // An unsharded worker completes its unit outright.
    EXPECT_EQ(merged->completed.size(), 1u);
}

TEST(Merge, MismatchedIdentityRejected)
{
    TempDir dir("merge_stale");
    const std::string a = dir.file("a.ckpt");
    const std::string b = dir.file("b.ckpt");
    runShardWorker(a, sim::ShardSpec{0, 2});
    {
        // Same shard layout, different master seed: a stale artifact.
        sim::CheckpointSession session(b, "toy", 7, 43,
                                       sim::ShardSpec{1, 2});
        sim::ScopedRunContext scoped(sim::RunContext{
            &session, nullptr, sim::ShardSpec{1, 2}, false});
        (void)sim::runStudyUnit<sim::PageStudy>(
            kToyItems, 1, sim::StudyKind::Page, kToyFingerprint,
            toyBody, kToyGrain);
    }
    const Expected<sim::CheckpointData> r =
        sweep::mergeShardCheckpoints({a, b}, sweep::MergeOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("stale"), std::string::npos) << r.error();
}

TEST(Merge, DuplicateShardIndexRejected)
{
    TempDir dir("merge_dup");
    const std::string a = dir.file("a.ckpt");
    const std::string b = dir.file("b.ckpt");
    runShardWorker(a, sim::ShardSpec{0, 2});
    runShardWorker(b, sim::ShardSpec{0, 2});
    const Expected<sim::CheckpointData> r =
        sweep::mergeShardCheckpoints({a, b}, sweep::MergeOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("claim shard"), std::string::npos)
        << r.error();
}

TEST(Merge, CrossWiredChunkRejected)
{
    // A checkpoint claiming shard 1/2 but holding shard 0's chunks is
    // cross-wired (renamed file, copy-paste accident): reject.
    TempDir dir("merge_cross");
    const std::string a = dir.file("a.ckpt");
    runShardWorker(a, sim::ShardSpec{0, 2});
    Expected<sim::CheckpointData> data = sim::loadCheckpointFile(a);
    ASSERT_TRUE(data.ok()) << data.error();
    data->shardIndex = 1; // lie about provenance
    const std::string b = dir.file("b.ckpt");
    ASSERT_TRUE(
        atomicWriteFile(b, sim::encodeCheckpoint(*data)).ok());

    const std::string c = dir.file("c.ckpt");
    runShardWorker(c, sim::ShardSpec{0, 2});
    const Expected<sim::CheckpointData> r =
        sweep::mergeShardCheckpoints({c, b}, sweep::MergeOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("cross-wired"), std::string::npos)
        << r.error();
}

TEST(Merge, MissingShardFailsStrictlyButDegradesWhenAllowed)
{
    TempDir dir("merge_missing");
    std::vector<std::string> paths;
    for (std::uint32_t i = 0; i < 2; ++i) { // shards 0,1 of 3
        paths.push_back(dir.file("s" + std::to_string(i) + ".ckpt"));
        runShardWorker(paths.back(), sim::ShardSpec{i, 3});
    }

    const Expected<sim::CheckpointData> strict =
        sweep::mergeShardCheckpoints(paths, sweep::MergeOptions{});
    ASSERT_FALSE(strict.ok());

    sweep::MergeReport report;
    const Expected<sim::CheckpointData> degraded =
        sweep::mergeShardCheckpoints(paths,
                                     sweep::MergeOptions{true},
                                     &report);
    ASSERT_TRUE(degraded.ok()) << degraded.error();
    EXPECT_FALSE(report.complete());
    EXPECT_GT(report.missingChunks, 0u);

    // A degraded finalize restores what survived, recomputes nothing,
    // and accounts the gap so the manifest can say "partial".
    const std::string mergedPath = dir.file("merged.ckpt");
    ASSERT_TRUE(atomicWriteFile(mergedPath,
                                sim::encodeCheckpoint(*degraded))
                    .ok());
    sim::CheckpointSession session(mergedPath, "toy", 7, 42);
    ASSERT_TRUE(session.resume().ok());
    std::atomic<bool> executed{false};
    sim::ScopedRunContext scoped(sim::RunContext{
        &session, nullptr, sim::ShardSpec{}, /*restoreOnly=*/true});
    const sim::PageStudy partial = sim::runStudyUnit<sim::PageStudy>(
        kToyItems, 1, sim::StudyKind::Page, kToyFingerprint,
        [&](sim::PageStudy &, std::size_t) { executed = true; },
        kToyGrain);
    EXPECT_FALSE(executed.load());
    EXPECT_GT(session.skippedChunks(), 0u);
    EXPECT_LT(partial.pageLifetime.count(), kToyItems);
    EXPECT_GT(partial.pageLifetime.count(), 0u);
}

TEST(Merge, UnreadableInputRejectedUnlessAllowed)
{
    TempDir dir("merge_unreadable");
    const std::string good = dir.file("good.ckpt");
    runShardWorker(good, sim::ShardSpec{0, 2});
    const std::string bad = dir.file("bad.ckpt");
    ASSERT_TRUE(atomicWriteFile(bad, "garbage, not a checkpoint").ok());

    const Expected<sim::CheckpointData> strict =
        sweep::mergeShardCheckpoints({good, bad},
                                     sweep::MergeOptions{});
    ASSERT_FALSE(strict.ok());
    EXPECT_NE(strict.error().find("bad.ckpt"), std::string::npos)
        << strict.error();

    sweep::MergeReport report;
    const Expected<sim::CheckpointData> degraded =
        sweep::mergeShardCheckpoints({good, bad},
                                     sweep::MergeOptions{true},
                                     &report);
    ASSERT_TRUE(degraded.ok()) << degraded.error();
    EXPECT_FALSE(report.warnings.empty());
    EXPECT_FALSE(report.complete());
}

TEST(Merge, NoUsableInputFails)
{
    const Expected<sim::CheckpointData> r = sweep::mergeShardCheckpoints(
        {"/nonexistent-dir/a.ckpt"}, sweep::MergeOptions{true});
    EXPECT_FALSE(r.ok());
}

} // namespace
} // namespace aegis
