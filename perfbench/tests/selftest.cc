/**
 * @file
 * Self-test of the benchmark's own machinery: the tracing decorators
 * forward every virtual, the traced run reproduces the entry points'
 * outputs byte for byte, and a perturbed golden fails its config.
 */

#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "aegis/factory.h"
#include "pcm/fail_cache.h"
#include "traced.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace scheme = aegis::scheme;

/** Records which tracker virtuals were reached. */
class RecordingTracker final : public scheme::LifetimeTracker
{
  public:
    explicit RecordingTracker(std::set<std::string> &log) : log(log) {}

    scheme::FaultVerdict onFault(const aegis::pcm::Fault &) override
    { log.insert("onFault"); return scheme::FaultVerdict::Alive; }
    double writeFailureProbability(aegis::Rng &) override
    { log.insert("writeFailureProbability"); return 0.25; }
    std::vector<std::uint32_t> amplifiedCells() const override
    { log.insert("amplifiedCells"); return {3, 5}; }
    std::size_t faultCount() const override
    { log.insert("faultCount"); return 7; }
    std::uint64_t repartitions() const override
    { log.insert("repartitions"); return 11; }
    bool dataIndependent() const override
    { log.insert("dataIndependent"); return true; }

  private:
    std::set<std::string> &log;
};

/** Records which scheme virtuals were reached; every value it returns
 *  differs from the base class default. */
class RecordingScheme final : public scheme::Scheme
{
  public:
    explicit RecordingScheme(std::set<std::string> &log) : log(log) {}

    const std::string &name() const override
    { log.insert("name"); return label; }
    std::size_t blockBits() const override
    { log.insert("blockBits"); return 64; }
    std::size_t overheadBits() const override
    { log.insert("overheadBits"); return 9; }
    std::size_t hardFtc() const override
    { log.insert("hardFtc"); return 2; }
    scheme::WriteOutcome write(aegis::pcm::CellArray &,
                               const aegis::BitVector &) override
    {
        log.insert("write");
        scheme::WriteOutcome o;
        o.ok = true;
        o.programPasses = 3;
        return o;
    }
    aegis::BitVector read(const aegis::pcm::CellArray &) const override
    { log.insert("read"); return aegis::BitVector(64); }
    void readInto(const aegis::pcm::CellArray &,
                  aegis::BitVector &out) const override
    { log.insert("readInto"); out = aegis::BitVector(64); }
    void reset() override { log.insert("reset"); }
    std::unique_ptr<scheme::Scheme> clone() const override
    { log.insert("clone"); return std::make_unique<RecordingScheme>(log); }
    std::unique_ptr<scheme::LifetimeTracker>
    makeTracker(const scheme::TrackerOptions &) const override
    {
        log.insert("makeTracker");
        return std::make_unique<RecordingTracker>(log);
    }
    void attachDirectory(aegis::pcm::FaultDirectory *dir,
                         std::uint64_t id) override
    {
        log.insert("attachDirectory");
        attachedDir = dir;
        attachedId = id;
    }
    bool requiresDirectory() const override
    { log.insert("requiresDirectory"); return true; }
    std::size_t metadataBits() const override
    { log.insert("metadataBits"); return 13; }
    aegis::BitVector exportMetadata() const override
    { log.insert("exportMetadata"); return aegis::BitVector(13); }
    void importMetadata(const aegis::BitVector &) override
    { log.insert("importMetadata"); }

    aegis::pcm::FaultDirectory *attachedDir = nullptr;
    std::uint64_t attachedId = 0;

  private:
    std::set<std::string> &log;
    std::string label = "recording";
};

TEST(TracedScheme, ForwardsEveryVirtual)
{
    std::set<std::string> log;
    LayerTimes times;
    auto owned = std::make_unique<RecordingScheme>(log);
    RecordingScheme *inner = owned.get();
    TracedScheme traced(std::move(owned), times);

    EXPECT_EQ(traced.name(), "recording");
    EXPECT_EQ(traced.blockBits(), 64u);
    EXPECT_EQ(traced.overheadBits(), 9u);
    EXPECT_EQ(traced.hardFtc(), 2u);
    aegis::pcm::CellArray cells(64);
    EXPECT_EQ(traced.write(cells, aegis::BitVector(64)).programPasses, 3u);
    EXPECT_EQ(traced.read(cells).size(), 64u);
    aegis::BitVector out;
    traced.readInto(cells, out);
    traced.reset();
    aegis::pcm::OracleFaultDirectory dir;
    traced.attachDirectory(&dir, 42);
    EXPECT_EQ(inner->attachedDir, &dir);
    EXPECT_EQ(inner->attachedId, 42u);
    EXPECT_TRUE(traced.requiresDirectory());
    EXPECT_EQ(traced.metadataBits(), 13u);
    EXPECT_EQ(traced.exportMetadata().size(), 13u);
    traced.importMetadata(aegis::BitVector(13));

    const std::unique_ptr<scheme::Scheme> copy = traced.clone();
    ASSERT_NE(dynamic_cast<TracedScheme *>(copy.get()), nullptr);
    copy->write(cells, aegis::BitVector(64));
    EXPECT_EQ(times.writes, 2u);
    EXPECT_EQ(times.writeNs.size(), 2u);

    const auto tracker = traced.makeTracker(scheme::TrackerOptions{});
    EXPECT_EQ(tracker->onFault({1, true}), scheme::FaultVerdict::Alive);
    aegis::Rng rng(1);
    EXPECT_EQ(tracker->writeFailureProbability(rng), 0.25);
    EXPECT_EQ(tracker->amplifiedCells().size(), 2u);
    EXPECT_EQ(tracker->faultCount(), 7u);
    EXPECT_EQ(tracker->repartitions(), 11u);
    EXPECT_TRUE(tracker->dataIndependent());
    EXPECT_EQ(times.calls[LayerTimes::Make], 1u);
    EXPECT_EQ(times.calls[LayerTimes::OnFault], 1u);
    EXPECT_EQ(times.calls[LayerTimes::Wfp], 1u);
    EXPECT_EQ(times.calls[LayerTimes::Amplified], 1u);

    for (const char *v :
         {"name", "blockBits", "overheadBits", "hardFtc", "write", "read",
          "readInto", "reset", "clone", "makeTracker", "attachDirectory",
          "requiresDirectory", "metadataBits", "exportMetadata",
          "importMetadata", "onFault", "writeFailureProbability",
          "amplifiedCells", "faultCount", "repartitions",
          "dataIndependent"})
        EXPECT_EQ(log.count(v), 1u) << v << " was not forwarded";
}

TEST(TracedLifetimeModel, CountsEveryDraw)
{
    LayerTimes times;
    const auto inner = aegis::pcm::makePaperLifetimeModel();
    const TracedLifetimeModel traced(*inner, times);
    aegis::Rng a(9), b(9);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(traced.sample(a), inner->sample(b));
    EXPECT_EQ(times.cellsDrawn, 5u);
    EXPECT_EQ(traced.mean(), inner->mean());
    EXPECT_EQ(traced.name(), inner->name());
}

/** Every config of every workload: entry point, own per-life path and
 *  traced path agree byte for byte, at both pinned seeds. */
TEST(TracedRun, ReproducesEntryPointOutputs)
{
    for (const Workload &w : workloads()) {
        for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
            for (const Op &op : w.ops) {
                SCOPED_TRACE(w.name + " " + op.label);
                const OpResult entry = runOp(w, op, seed);
                LayerTimes times;
                if (w.kind == Kind::Latency) {
                    EXPECT_EQ(runTracedLatency(w, op, seed, times).outputs,
                              entry.outputs);
                    EXPECT_GT(times.writes, 0u);
                    continue;
                }
                EXPECT_EQ(runOwnPath(w, op, seed, nullptr).outputs,
                          entry.outputs);
                EXPECT_EQ(runOwnPath(w, op, seed, &times).outputs,
                          entry.outputs);
                const std::uint64_t lives =
                    entry.counters.counter(aegis::obs::Counter::BlockLives);
                EXPECT_EQ(times.cellsDrawn, lives * op.blockBits);
                EXPECT_EQ(times.calls[LayerTimes::Make], lives);
            }
        }
    }
}

/** The driver itself, on a golden file with one config perturbed. */
TEST(Goldens, PerturbedGoldenFailsItsConfig)
{
    const std::string dir = PERFBENCH_GOLDEN_DIR;
    Goldens goldens = loadGoldens(dir + "/timed-write.txt");
    const Workload &w = workloadByName("timed-write");
    ASSERT_EQ(goldens.size(), 2 * w.ops.size());

    const std::string path =
        std::string(PERFBENCH_EXE) + ".perturbed-timed-write.txt";
    {
        std::ofstream out(path);
        for (auto &[key, outputs] : goldens) {
            if (key.first == kDefaultSeed && key.second == w.ops[3].label)
                outputs.back() = outputs.back() == '0' ? '1' : '0';
            out << key.first << " " << key.second << " " << outputs << "\n";
        }
    }
    const std::string cmd = std::string(PERFBENCH_EXE) +
                            " --workload timed-write --seed 3 --seconds "
                            "0.01 --trace 0 --goldens " + path +
                            " 2>/dev/null";
    FILE *pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string last, line;
    char buf[4096];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) {
        line += buf;
        if (!line.empty() && line.back() == '\n') {
            last = line;
            line.clear();
        }
    }
    ASSERT_EQ(pclose(pipe), 0);
    std::remove(path.c_str());
    EXPECT_NE(last.find("\"correct\": false"), std::string::npos) << last;
    EXPECT_NE(last.find("\"failed\": 1,"), std::string::npos) << last;
}

} // namespace
