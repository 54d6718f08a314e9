/**
 * @file
 * The checkpoint/resume layer: bit-exact study serialization, the
 * versioned+checksummed file codec's rejection of corrupt and stale
 * inputs, and CheckpointSession end-to-end — a sweep interrupted
 * mid-unit and resumed (with a different worker count) must produce a
 * study bit-identical to an uninterrupted run.
 */

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "sim/checkpoint.h"
#include "sim/experiment.h"
#include "util/chaos.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/stats.h"

namespace aegis::sim {
namespace {

/** Unique temp path per test; removed on destruction. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : p((std::filesystem::temp_directory_path() /
             ("aegis_ckpt_test_" + name + "_" +
              std::to_string(::getpid())))
                .string())
    {
        std::remove(p.c_str());
    }
    ~TempPath() { std::remove(p.c_str()); }
    const std::string &str() const { return p; }

  private:
    std::string p;
};

/** Restore the no-chaos default after a test that injects faults. */
class ChaosGuard
{
  public:
    ~ChaosGuard() { setChaosConfigForTest(ChaosConfig{}); }
};

PageStudy
samplePageStudy()
{
    PageStudy s;
    s.scheme = "aegis-9x61";
    s.overheadBits = 67;
    s.blockBits = 512;
    s.recoverableFaults.add(3.0);
    s.recoverableFaults.add(7.5);
    s.pageLifetime.add(1e6);
    s.repartitions.add(2.0);
    s.survival.addDeath(1e6);
    s.survival.addDeath(2e6);
    s.metrics.counters[0] = 11;
    s.metrics.gauges[0] = 4;
    s.metrics.timers[0] = obs::TimingStat{3, 900, 400};
    return s;
}

TEST(CheckpointCodec, PageStudyRoundTripsBitExact)
{
    const PageStudy s = samplePageStudy();
    BinaryWriter w;
    serializeStudy(s, w);
    BinaryReader r(w.data());
    PageStudy back;
    ASSERT_TRUE(deserializeStudy(back, r));
    EXPECT_TRUE(r.atEnd());

    EXPECT_EQ(back.scheme, s.scheme);
    EXPECT_EQ(back.overheadBits, s.overheadBits);
    EXPECT_EQ(back.blockBits, s.blockBits);
    EXPECT_EQ(back.recoverableFaults.count(),
              s.recoverableFaults.count());
    EXPECT_EQ(back.recoverableFaults.mean(),
              s.recoverableFaults.mean());    // exact: same bits
    EXPECT_EQ(back.pageLifetime.sum(), s.pageLifetime.sum());
    EXPECT_EQ(back.metrics.counters[0], 11u);
    EXPECT_EQ(back.metrics.timers[0].count, 3u);

    // Re-serializing the restored study reproduces the exact bytes.
    BinaryWriter w2;
    serializeStudy(back, w2);
    EXPECT_EQ(w2.data(), w.data());
}

TEST(CheckpointCodec, BlockAndSurvivalStudiesRoundTrip)
{
    BlockStudy b;
    b.scheme = "safer64";
    b.blockLifetime.add(42.0);
    b.faultsAtDeath.add(9);
    b.faultsAtDeath.add(9);
    BinaryWriter wb;
    serializeStudy(b, wb);
    BinaryReader rb(wb.data());
    BlockStudy b2;
    ASSERT_TRUE(deserializeStudy(b2, rb) && rb.atEnd());
    EXPECT_EQ(b2.scheme, "safer64");
    EXPECT_EQ(b2.faultsAtDeath.countOf(9), 2u);

    SurvivalStudy v;
    v.survival.addDeath(5.0);
    BinaryWriter wv;
    serializeStudy(v, wv);
    BinaryReader rv(wv.data());
    SurvivalStudy v2;
    ASSERT_TRUE(deserializeStudy(v2, rv) && rv.atEnd());
    EXPECT_EQ(v2.survival.population(), 1u);
}

TEST(CheckpointCodec, TruncatedStudyBlobFails)
{
    BinaryWriter w;
    serializeStudy(samplePageStudy(), w);
    const std::string whole = w.data();
    PageStudy out;
    BinaryReader r(std::string_view(whole).substr(0, whole.size() / 2));
    EXPECT_FALSE(deserializeStudy(out, r));
}

CheckpointData
sampleCheckpoint()
{
    CheckpointData data;
    data.program = "fig5_bench";
    data.flagsFingerprint = 0xfeedface;
    data.masterSeed = 42;
    BinaryWriter blob;
    serializeStudy(samplePageStudy(), blob);
    data.completed.push_back(
        CheckpointUnit{0, 0xabcdef, 1, blob.data()});
    CheckpointPartial partial;
    partial.index = 1;
    partial.fingerprint = 0x123456;
    partial.kind = 1;
    partial.items = 64;
    partial.grain = 16;
    partial.chunks.push_back(CheckpointChunk{2, blob.data()});
    data.inFlight = partial;
    return data;
}

TEST(CheckpointFile, EncodeDecodeRoundTrips)
{
    const CheckpointData data = sampleCheckpoint();
    const std::string image = encodeCheckpoint(data);
    const Expected<CheckpointData> back = decodeCheckpoint(image, "x");
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(back->program, "fig5_bench");
    EXPECT_EQ(back->flagsFingerprint, 0xfeedfaceu);
    EXPECT_EQ(back->masterSeed, 42u);
    ASSERT_EQ(back->completed.size(), 1u);
    EXPECT_EQ(back->completed[0].fingerprint, 0xabcdefu);
    EXPECT_EQ(back->completed[0].blob, data.completed[0].blob);
    ASSERT_TRUE(back->inFlight.has_value());
    EXPECT_EQ(back->inFlight->index, 1u);
    EXPECT_EQ(back->inFlight->items, 64u);
    ASSERT_EQ(back->inFlight->chunks.size(), 1u);
    EXPECT_EQ(back->inFlight->chunks[0].index, 2u);

    // Between units no unit is in flight.
    CheckpointData idle = data;
    idle.inFlight.reset();
    const Expected<CheckpointData> idleBack =
        decodeCheckpoint(encodeCheckpoint(idle), "x");
    ASSERT_TRUE(idleBack.ok()) << idleBack.error();
    EXPECT_FALSE(idleBack->inFlight.has_value());
    EXPECT_EQ(idleBack->completed.size(), 1u);
}

TEST(CheckpointFile, BadMagicRejected)
{
    std::string image = encodeCheckpoint(sampleCheckpoint());
    image[0] = 'X';
    const Expected<CheckpointData> r = decodeCheckpoint(image, "ck");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("ck"), std::string::npos) << r.error();
}

TEST(CheckpointFile, VersionMismatchRejected)
{
    std::string image = encodeCheckpoint(sampleCheckpoint());
    image[8] = static_cast<char>(kCheckpointVersion + 1);
    const Expected<CheckpointData> r = decodeCheckpoint(image, "ck");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("version"), std::string::npos)
        << r.error();

    // A file of the previous format says which version it holds.
    image[8] = static_cast<char>(kCheckpointVersion - 1);
    const Expected<CheckpointData> old = decodeCheckpoint(image, "ck");
    ASSERT_FALSE(old.ok());
    EXPECT_NE(old.error().find(
                  "has format version " +
                  std::to_string(kCheckpointVersion - 1) +
                  "; this build reads version " +
                  std::to_string(kCheckpointVersion)),
              std::string::npos)
        << old.error();
}

TEST(CheckpointFile, TruncationRejected)
{
    const std::string image = encodeCheckpoint(sampleCheckpoint());
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{4}, std::size_t{27},
          image.size() - 1}) {
        const Expected<CheckpointData> r = decodeCheckpoint(
            std::string_view(image).substr(0, keep), "ck");
        EXPECT_FALSE(r.ok()) << "kept " << keep << " bytes";
    }
}

TEST(CheckpointFile, TruncationAtEveryPrefixRejectedCleanly)
{
    // A crash can cut the file anywhere: inside the magic, the
    // version, the length/checksum words, or mid-payload. Every
    // proper prefix must come back as a structured error naming the
    // path — never a crash, never a silently partial decode.
    const std::string image = encodeCheckpoint(sampleCheckpoint());
    ASSERT_GT(image.size(), 28u); // header is 28 bytes
    for (std::size_t keep = 0; keep < image.size(); ++keep) {
        const Expected<CheckpointData> r = decodeCheckpoint(
            std::string_view(image).substr(0, keep), "trunc.ckpt");
        ASSERT_FALSE(r.ok()) << "kept " << keep << " of "
                             << image.size() << " bytes";
        EXPECT_NE(r.error().find("trunc.ckpt"), std::string::npos)
            << "kept " << keep << ": " << r.error();
    }
}

TEST(CheckpointFile, CorruptionAtSeveralOffsetsRejected)
{
    // Flip one byte at offsets spread across every file region; the
    // decoder must reject each image with a structured error (which
    // detector fires — magic, version, length, checksum — depends on
    // the offset, but none may pass).
    const std::string image = encodeCheckpoint(sampleCheckpoint());
    const std::size_t offsets[] = {
        0,                   // magic
        9,                   // version word
        14,                  // payload-size word
        21,                  // checksum word
        28,                  // first payload byte
        28 + (image.size() - 28) / 2, // mid-payload
        image.size() - 1,    // last payload byte
    };
    for (const std::size_t at : offsets) {
        std::string bad = image;
        bad[at] = static_cast<char>(bad[at] ^ 0x5a);
        const Expected<CheckpointData> r =
            decodeCheckpoint(bad, "corrupt.ckpt");
        ASSERT_FALSE(r.ok()) << "flip at byte " << at;
        EXPECT_NE(r.error().find("corrupt.ckpt"), std::string::npos)
            << "flip at byte " << at << ": " << r.error();
    }
}

TEST(CheckpointFile, CorruptPayloadRejectedByChecksum)
{
    std::string image = encodeCheckpoint(sampleCheckpoint());
    image[image.size() - 1] ^= 0x40;    // flip a payload bit
    const Expected<CheckpointData> r = decodeCheckpoint(image, "ck");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("checksum"), std::string::npos)
        << r.error();
}

TEST(CheckpointFile, MissingFileReportsPath)
{
    const Expected<CheckpointData> r =
        loadCheckpointFile("/nonexistent-dir/nope.ckpt");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("nope.ckpt"), std::string::npos)
        << r.error();
}

/** Run a tiny checkpointed page sweep; body mirrors runPageStudy. */
PageStudy
runToyUnit(CheckpointSession *session, CancelToken *cancel,
           unsigned jobs, std::size_t items, std::size_t cancelAfter)
{
    ScopedRunContext scoped(RunContext{session, cancel});
    std::atomic<std::size_t> done{0};
    return runStudyUnit<PageStudy>(
        items, jobs, StudyKind::Page, /*fingerprint=*/0x5eed,
        [&](PageStudy &acc, std::size_t i) {
            Rng rng(1234 + i);    // stands in for master.split(i)
            acc.pageLifetime.add(1e3 * static_cast<double>(i) +
                                 rng.nextDouble());
            acc.survival.addDeath(static_cast<double>(i + 1));
            acc.metrics.counters[0] += 1;
            if (cancelAfter != 0 &&
                done.fetch_add(1) + 1 >= cancelAfter && cancel)
                cancel->requestCancel(CancelReason::Injected);
        },
        /*grain=*/4);
}

TEST(CheckpointSession, InterruptedSweepResumesBitIdentical)
{
    // Golden: the uninterrupted, uncheckpointed run.
    const PageStudy golden =
        runToyUnit(nullptr, nullptr, 1, /*items=*/64, 0);

    for (const unsigned resumeJobs : {1u, 4u}) {
        TempPath path("resume_j" + std::to_string(resumeJobs));
        // First attempt: cancel partway through; progress lands in
        // the checkpoint via the injected-cancel path.
        {
            CheckpointSession session(path.str(), "toy", 7, 42);
            session.setSnapshotEveryChunks(1);
            CancelToken cancel;
            EXPECT_THROW(
                runToyUnit(&session, &cancel, 1, 64, /*cancelAfter=*/9),
                CancelledError);
        }
        // Second process: resume with a different jobs value.
        CheckpointSession session(path.str(), "toy", 7, 42);
        ASSERT_TRUE(session.resume().ok());
        const PageStudy resumed =
            runToyUnit(&session, nullptr, resumeJobs, 64, 0);

        BinaryWriter wg, wr;
        serializeStudy(golden, wg);
        serializeStudy(resumed, wr);
        EXPECT_EQ(wr.data(), wg.data())
            << "resume with --jobs " << resumeJobs
            << " diverged from the uninterrupted run";
        // Restored chunks were not re-executed: their metrics arrive
        // via restoredMetrics() instead of the process totals.
        EXPECT_GT(session.restoredMetrics().counters[0], 0u);
    }
}

TEST(CheckpointSession, CompletedUnitRestoredWithoutExecution)
{
    TempPath path("completed_unit");
    {
        CheckpointSession session(path.str(), "toy", 7, 42);
        (void)runToyUnit(&session, nullptr, 1, 32, 0);
    }
    CheckpointSession session(path.str(), "toy", 7, 42);
    ASSERT_TRUE(session.resume().ok());
    std::atomic<bool> executed{false};
    ScopedRunContext scoped(RunContext{&session, nullptr});
    const PageStudy restored = runStudyUnit<PageStudy>(
        32, 1, StudyKind::Page, 0x5eed,
        [&](PageStudy &, std::size_t) { executed = true; },
        /*grain=*/4);
    EXPECT_FALSE(executed.load())
        << "a finished unit must restore from the blob, not re-run";
    EXPECT_EQ(restored.pageLifetime.count(), 32u);
    EXPECT_EQ(session.restoredMetrics().counters[0], 32u);
}

TEST(CheckpointSession, StaleIdentityRejected)
{
    TempPath path("stale");
    {
        CheckpointSession session(path.str(), "toy", 7, 42);
        (void)runToyUnit(&session, nullptr, 1, 32, 0);
    }
    {    // different program
        CheckpointSession s(path.str(), "other", 7, 42);
        EXPECT_FALSE(s.resume().ok());
    }
    {    // different flags fingerprint
        CheckpointSession s(path.str(), "toy", 8, 42);
        EXPECT_FALSE(s.resume().ok());
    }
    {    // different master seed
        CheckpointSession s(path.str(), "toy", 7, 43);
        EXPECT_FALSE(s.resume().ok());
    }
    {    // same session identity, different unit fingerprint
        CheckpointSession s(path.str(), "toy", 7, 42);
        ASSERT_TRUE(s.resume().ok());
        ScopedRunContext scoped(RunContext{&s, nullptr});
        EXPECT_THROW((void)runStudyUnit<PageStudy>(
                         32, 1, StudyKind::Page, 0xbad,
                         [](PageStudy &, std::size_t) {}, 4),
                     ConfigError);
    }
}

TEST(CheckpointSession, ResumeRejectsCorruptFile)
{
    TempPath path("corrupt_file");
    {
        CheckpointSession session(path.str(), "toy", 7, 42);
        (void)runToyUnit(&session, nullptr, 1, 32, 0);
    }
    // Truncate the file on disk.
    std::filesystem::resize_file(path.str(), 10);
    CheckpointSession session(path.str(), "toy", 7, 42);
    const Status s = session.resume();
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.error().find(path.str()), std::string::npos)
        << s.error();
}

TEST(CheckpointSession, InjectedIoFailureDoesNotKillTheSweep)
{
    ChaosGuard guard;
    ChaosConfig chaos;
    chaos.ioFailRate = 1.0;    // every snapshot write fails
    setChaosConfigForTest(chaos);

    TempPath path("chaos_io");
    CheckpointSession session(path.str(), "toy", 7, 42);
    session.setSnapshotEveryChunks(1);
    // The sweep completes despite every checkpoint write failing.
    const PageStudy study = runToyUnit(&session, nullptr, 1, 32, 0);
    EXPECT_EQ(study.pageLifetime.count(), 32u);
    EXPECT_FALSE(session.writeSnapshot().ok());
}

TEST(CheckpointSession, RunnersIntegrateWithRealStudies)
{
    // The real runPageStudy through a checkpoint session equals the
    // plain run — no session, no difference.
    ExperimentConfig config;
    config.pages = 24;
    config.pageBytes = 512;
    config.lifetimeMean = 1e4;
    config.jobs = 1;
    const PageStudy golden = runPageStudy(config);

    TempPath path("real_study");
    CheckpointSession session(path.str(), "test", 1, config.seed);
    ScopedRunContext scoped(RunContext{&session, nullptr});
    const PageStudy viaSession = runPageStudy(config);

    BinaryWriter wg, ws;
    serializeStudy(golden, wg);
    serializeStudy(viaSession, ws);
    EXPECT_EQ(ws.data(), wg.data());
}

} // namespace
} // namespace aegis::sim
