/**
 * @file
 * The benchmark's workloads and the operations they run.
 *
 * An operation is one config: a scheme x geometry Monte-Carlo study, or
 * a scheme x fault-rate latency cell. Every operation runs through the
 * public entry point its figure uses (sim::runPageStudy,
 * sim::runBlockStudy, sim::timing::runLatencySim) on one worker, and
 * its simulated outputs are reduced to one canonical text line that is
 * compared byte for byte: against the pinned goldens at the pinned
 * seeds, and against the traced run's outputs at every seed.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/experiment.h"
#include "sim/timing/latency_sim.h"

namespace perfbench {

enum class Kind { Page, Block, Latency };

/** One config of a workload. */
struct Op
{
    std::string label;   ///< unique within the workload, e.g. "ecp4@512"
    std::string scheme;  ///< factory spelling
    std::uint32_t blockBits = 512;
    double faultsPerKwrite = 0.0; ///< latency cells only
};

struct Workload
{
    std::string name;
    Kind kind = Kind::Page;
    std::vector<Op> ops;
    /** Pages per page study, blocks per block study, or writes per
     *  latency cell. */
    std::uint32_t items = 0;
};

/** Every workload, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** The workload called @p name; throws std::invalid_argument. */
const Workload &workloadByName(const std::string &name);

/** The seed the goldens were first pinned at (the benches' default). */
inline constexpr std::uint64_t kDefaultSeed = 1;
/** A second pinned seed, kept out of day-to-day tuning so a later
 *  change can be re-checked on inputs it was not written against. */
inline constexpr std::uint64_t kHeldOutSeed = 20131207;

/** Family of a scheme spelling, for per-family attribution. */
enum class Family { None, Ecp, Safer, Rdis, Aegis, AegisRw, AegisRwP, Other };
inline constexpr std::size_t kFamilyCount = 8;
Family familyOf(const std::string &scheme);

/** The study config of a Monte-Carlo op (one worker). */
aegis::sim::ExperimentConfig experimentConfig(const Workload &w,
                                              const Op &op,
                                              std::uint64_t seed);

/** The config of a latency op. */
aegis::sim::timing::LatencySimConfig latencyConfig(const Workload &w,
                                                   const Op &op);

/** Canonical text of an op's simulated outputs. */
std::string outputsOf(const aegis::sim::PageStudy &study);
std::string outputsOf(const aegis::sim::BlockStudy &study);
std::string outputsOf(const aegis::sim::timing::LatencySimResult &result);

/** What one op produced. */
struct OpResult
{
    std::string outputs;
    /** Page lives, block lives, or requests retired. */
    std::uint64_t units = 0;
    /** The study's own counters (StudyResult::metrics) or, for latency
     *  cells, the process-total delta over the cell. */
    aegis::obs::Metrics counters;
};

/**
 * Run @p op of @p w at @p seed through its public entry point. Throws
 * std::runtime_error when the outputs break an invariant that holds at
 * every seed (unit counts, finite positive lifetimes, request totals).
 * A latency cell's Rng stream is Rng(seed) for every scheme and rate,
 * so all cells of a seed see the same requests, data and fault sites.
 */
OpResult runOp(const Workload &w, const Op &op, std::uint64_t seed);

/** Counter-wise @p after minus @p before (timers and gauges zero). */
aegis::obs::Metrics counterDelta(const aegis::obs::Metrics &after,
                                 const aegis::obs::Metrics &before);

/** Pinned outputs keyed by (seed, op label). */
using Goldens = std::map<std::pair<std::uint64_t, std::string>, std::string>;

/** Parse a golden file ("<seed> <label> <outputs>" lines, '#'
 *  comments); throws std::runtime_error when it cannot be read. */
Goldens loadGoldens(const std::string &path);

/** The golden file text for @p w at both pinned seeds. */
std::string pinGoldens(const Workload &w);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
