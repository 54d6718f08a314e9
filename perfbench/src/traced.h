/**
 * @file
 * The traced run: forwarding decorators over the public Scheme,
 * LifetimeTracker and LifetimeModel interfaces that time and count the
 * calls the program's own metrics do not see, and a driver that runs a
 * Monte-Carlo op along the same Rng::split streams as the study
 * runners, through BlockSimulator/PageSimulator directly, so the
 * decorators can be slotted in.
 *
 * Everything here is single-threaded: one LayerTimes per traced pass,
 * shared by reference by every decorator of that pass.
 */

#ifndef PERFBENCH_TRACED_H
#define PERFBENCH_TRACED_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pcm/lifetime_model.h"
#include "scheme/scheme.h"
#include "scheme/tracker.h"
#include "workloads.h"

namespace perfbench {

/** Monotonic host time in nanoseconds. */
std::uint64_t nowNs();

/** Host-time and call accumulators of one traced pass. */
struct LayerTimes
{
    enum Call { Make, OnFault, Wfp, Amplified, kCallCount };

    /** LifetimeModel::sample calls. */
    std::uint64_t cellsDrawn = 0;
    /** Host time from a life's first draw to its makeTracker call. */
    double drawS = 0.0;
    bool drawOpen = false;
    std::uint64_t drawStartNs = 0;

    std::array<std::uint64_t, kCallCount> calls{};
    std::array<double, kCallCount> callS{};
    std::array<double, kFamilyCount> trackerFamilyS{};

    std::uint64_t writes = 0;
    double writeS = 0.0;
    std::array<double, kFamilyCount> writeFamilyS{};
    /** One host-time sample per Scheme::write, in nanoseconds. */
    std::vector<std::uint32_t> writeNs;

    /** Every tracker call's host time. */
    double trackerS() const;
};

/**
 * Counts LifetimeModel::sample draws. BlockSimulator draws a life's
 * whole cell population before it asks the scheme for that life's
 * tracker, so the span from the first draw to TracedScheme::makeTracker
 * is the draw phase; timing it there costs two clock reads per life
 * instead of two per cell.
 */
class TracedLifetimeModel final : public aegis::pcm::LifetimeModel
{
  public:
    TracedLifetimeModel(const aegis::pcm::LifetimeModel &inner,
                        LayerTimes &times);

    double sample(aegis::Rng &rng) const override;
    double mean() const override { return inner.mean(); }
    std::string name() const override { return inner.name(); }

  private:
    const aegis::pcm::LifetimeModel &inner;
    LayerTimes &times;
};

/**
 * Forwards every Scheme virtual to the wrapped scheme. write() is timed
 * per call; makeTracker() closes the draw span, is timed, and returns a
 * timing LifetimeTracker; clone() re-wraps, so the per-block clones a
 * PcmDevice makes are timed too.
 */
class TracedScheme final : public aegis::scheme::Scheme
{
  public:
    TracedScheme(std::unique_ptr<aegis::scheme::Scheme> inner,
                 LayerTimes &times);

    const std::string &name() const override { return inner->name(); }
    std::size_t blockBits() const override { return inner->blockBits(); }
    std::size_t overheadBits() const override
    { return inner->overheadBits(); }
    std::size_t hardFtc() const override { return inner->hardFtc(); }
    aegis::scheme::WriteOutcome write(aegis::pcm::CellArray &cells,
                                      const aegis::BitVector &data) override;
    aegis::BitVector read(const aegis::pcm::CellArray &cells) const override
    { return inner->read(cells); }
    void readInto(const aegis::pcm::CellArray &cells,
                  aegis::BitVector &out) const override
    { inner->readInto(cells, out); }
    void reset() override { inner->reset(); }
    std::unique_ptr<aegis::scheme::Scheme> clone() const override;
    std::unique_ptr<aegis::scheme::LifetimeTracker>
    makeTracker(const aegis::scheme::TrackerOptions &opts) const override;
    void attachDirectory(aegis::pcm::FaultDirectory *dir,
                         std::uint64_t block_id) override;
    bool requiresDirectory() const override
    { return inner->requiresDirectory(); }
    std::size_t metadataBits() const override
    { return inner->metadataBits(); }
    aegis::BitVector exportMetadata() const override
    { return inner->exportMetadata(); }
    void importMetadata(const aegis::BitVector &image) override
    { inner->importMetadata(image); }

  private:
    std::unique_ptr<aegis::scheme::Scheme> inner;
    LayerTimes &times;
    Family family;
};

/** An op driven along the benchmark's own path. */
struct OwnRun
{
    std::string outputs;
    /** Host time building the scheme (and lifetime model). */
    double stackS = 0.0;
    /** Host time inside the simulator: the PageSimulator::run or
     *  BlockSimulator::run calls, or the runLatencySim call. */
    double simS = 0.0;
    /** Host time of each page life, in milliseconds. */
    std::vector<double> pageLifeMs;
    /** Faults recovered before page death, summed over the pages. */
    std::uint64_t faultsRecovered = 0;
};

/**
 * Run Monte-Carlo op @p op of @p w at @p seed through BlockSimulator /
 * PageSimulator on the Rng::split streams sim::runPageStudy and
 * sim::runBlockStudy use, folding lives on the same chunk grid, so the
 * outputs equal the entry point's byte for byte. With @p times the
 * scheme and lifetime model are wrapped in the decorators above.
 */
OwnRun runOwnPath(const Workload &w, const Op &op, std::uint64_t seed,
                  LayerTimes *times);

/** Latency op @p op at @p seed with a TracedScheme prototype. */
OwnRun runTracedLatency(const Workload &w, const Op &op, std::uint64_t seed,
                        LayerTimes &times);

} // namespace perfbench

#endif // PERFBENCH_TRACED_H
