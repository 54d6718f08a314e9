/**
 * @file
 * Named experiment configurations and runners for the paper's
 * evaluation (one call per figure series).
 */

#ifndef AEGIS_SIM_EXPERIMENT_H
#define AEGIS_SIM_EXPERIMENT_H

#include <cstdint>
#include <string>

#include "aegis/factory.h"
#include "obs/metrics.h"
#include "scheme/tracker.h"
#include "sim/block_sim.h"
#include "util/histogram.h"
#include "util/stats.h"

namespace aegis::sim {

/** Shared Monte-Carlo configuration (paper §3.1 defaults). */
struct ExperimentConfig
{
    /** Scheme under test (factory name, e.g. "aegis-9x61"). */
    std::string scheme = "aegis-9x61";
    /** Protected data block size in bits. */
    std::uint32_t blockBits = 512;
    /** Memory (allocation) block size in bytes; 4096 = OS page. */
    std::uint32_t pageBytes = 4096;
    /** Pages simulated (2048 = the paper's 8MB memory). */
    std::uint32_t pages = 256;
    /** Master seed; identical seeds reuse identical cell populations
     *  across schemes. */
    std::uint64_t seed = 1;
    /** Cell lifetime model. */
    std::string lifetimeKind = "normal";
    double lifetimeMean = 1e8;
    double lifetimeParam = 0.25;    ///< cv / shape / spread
    WearModel wear;
    scheme::TrackerOptions tracker;
    /** Wrap every functional scheme in the runtime invariant auditor
     *  (audit::SchemeAuditor) so Monte-Carlo runs double as
     *  correctness sweeps. Costly; off by default. */
    bool audit = false;
    /** Worker threads for the Monte-Carlo sweeps (0 = one per
     *  hardware thread). Results are bit-identical for every value:
     *  each page/block draws from its own seed-derived RNG stream and
     *  chunk accumulators merge in a jobs-independent order. */
    std::uint32_t jobs = 0;

    /** Structured factory spec of @ref scheme honouring @ref audit. */
    core::SchemeSpec schemeSpec() const { return schemeSpec(scheme); }

    /** Structured factory spec of @p name honouring @ref audit (for
     *  secondary schemes like PAYG's LEC). */
    core::SchemeSpec schemeSpec(const std::string &name) const
    {
        core::SchemeSpec spec = core::SchemeSpec::parse(name);
        spec.audit = spec.audit || audit;
        return spec;
    }
};

/**
 * Fields shared by every aggregated study: the scheme label and bit
 * budgets every results table leads with.
 */
struct StudyResult
{
    std::string scheme;
    std::size_t overheadBits = 0;
    std::size_t blockBits = 0;

    /** Event counters and scope timers attributed to this study:
     *  per-item deltas folded into the chunk accumulators and merged
     *  in chunk order, so counter slots are bit-identical for every
     *  jobs value (timers are wall-clock and therefore not). */
    obs::Metrics metrics;

    /** Overhead as a fraction of the data bits. */
    double overheadFraction() const;

  protected:
    /** Fill empty label fields from @p other; merging partial results
     *  from the parallel reducer (empty labels) is a no-op. */
    void adoptLabels(const StudyResult &other);
};

/** Aggregated page-level results (Figures 5, 6, 7, 9, 11, 12, 13). */
struct PageStudy : StudyResult
{
    /** Faults recovered per page before its first block failure. */
    RunningStat recoverableFaults;
    /** Page lifetime in page writes. */
    RunningStat pageLifetime;
    /** Re-partitions per page over its whole life. */
    RunningStat repartitions;
    /** Death times for survival curves / half lifetime (Fig 9). */
    SurvivalCurve survival;

    /** Fold another (partial) study into this one — the combining
     *  step of the parallel reducer, also usable to join studies of
     *  disjoint page populations. */
    void merge(const PageStudy &other);
};

/** Aggregated block-level results (Figures 8 and 10). */
struct BlockStudy : StudyResult
{
    /** Block lifetime in block writes. */
    RunningStat blockLifetime;
    /** Fault count at death, for the failure-probability CDF. */
    Histogram faultsAtDeath;

    /** P(block failed once @p faults faults occurred) — Fig 8. */
    double failureProbabilityAt(std::int64_t faults) const
    { return faultsAtDeath.cdf(faults); }

    /** Fold another (partial) study into this one. */
    void merge(const BlockStudy &other);
};

/** Aggregated memory-survival results (workload-weighted deaths). */
struct SurvivalStudy : StudyResult
{
    /** Death times in memory time (page lifetime / page write rate). */
    SurvivalCurve survival;

    /** Fold another (partial) study into this one. */
    void merge(const SurvivalStudy &other);
};

/** Run the page-level Monte Carlo for one scheme. */
PageStudy runPageStudy(const ExperimentConfig &config);

/** Run @p blocks single-block lives for one scheme. */
BlockStudy runBlockStudy(const ExperimentConfig &config,
                         std::uint32_t blocks);

/**
 * Lifetime improvement of @p study over the unprotected baseline
 * measured on the same cell populations (same config/seed with
 * scheme "none").
 */
double lifetimeImprovement(const PageStudy &study,
                           const PageStudy &baseline);

class Workload;

/**
 * Memory-level survival under a (possibly skewed) write workload: a
 * page's death time in memory time is its intrinsic lifetime divided
 * by the workload's per-page rate multiplier. With the paper's
 * perfect wear leveling this equals the PageStudy survival curve.
 */
SurvivalCurve runMemorySurvival(const ExperimentConfig &config,
                                const Workload &workload);

} // namespace aegis::sim

#endif // AEGIS_SIM_EXPERIMENT_H
