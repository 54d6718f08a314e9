/**
 * @file
 * Event-driven lifetime simulation of a single protected data block.
 *
 * Methodology (DESIGN.md §2): every cell draws a lifetime (total
 * programs absorbed before sticking). Under perfect wear leveling and
 * differential writes, a cell is programmed with probability 0.5 per
 * block write (the paper's §3.1 assumption); cells sharing a group
 * with a fault under a cache-less scheme absorb one extra program per
 * write in expectation (the inversion rewrite). Wear rates are
 * therefore piecewise-constant between fault arrivals, and the
 * simulation advances fault-to-fault:
 *
 *   next_fault = argmin (remaining_life[i] / rate[i])
 *
 * After each arrival the scheme's tracker decides whether the block
 * is deterministically dead; otherwise its per-write failure
 * probability p is turned into a geometric deviate to decide whether
 * a data-dependent failure strikes before the next arrival.
 */

#ifndef AEGIS_SIM_BLOCK_SIM_H
#define AEGIS_SIM_BLOCK_SIM_H

#include <limits>
#include <memory>
#include <vector>

#include "pcm/lifetime_model.h"
#include "scheme/scheme.h"
#include "scheme/tracker.h"
#include "util/rng.h"

namespace aegis::sim {

/** Wear parameters of the write stream. */
struct WearModel
{
    /** Cell programs per block write (differential-write factor). */
    double baseRate = 0.5;
    /** Extra programs per write for cells in fault-bearing groups of
     *  cache-less schemes (the inversion rewrite, paper §3.3). */
    double amplifiedExtra = 0.5;
};

/**
 * Reusable scratch for BlockSimulator::run, so back-to-back block
 * lives allocate nothing once the vectors are warmed. run() re-sizes
 * and overwrites every field; the workspace carries no state between
 * lives. (char instead of bool: vector<bool> has no word access and
 * its proxy references cost measurably in the arg-min scan.)
 */
struct BlockSimWorkspace
{
    std::vector<double> remaining;
    std::vector<double> rate;
    std::vector<char> stuckValue;
    std::vector<char> healthy;
};

/** Outcome of one block's simulated life. */
struct BlockLifeResult
{
    /** Block writes survived before the unrecoverable failure. */
    double deathTime = 0.0;
    /** Fault count at death (the fatal fault included). */
    std::uint32_t faultsAtDeath = 0;
    /** Arrival time (block writes) of each fault, ascending. */
    std::vector<double> faultTimes;
    /** Re-partitions the tracker performed. */
    std::uint64_t repartitions = 0;
    /** True when the block outlived every cell without failing
     *  (deathTime is +infinity in that case). */
    bool immortal = false;
};

/** Simulate one block protected by @p scheme until data loss. */
class BlockSimulator
{
  public:
    /**
     * @param scheme scheme prototype (consulted for its tracker).
     * @param lifetime cell lifetime distribution.
     * @param wear write-stream wear parameters.
     * @param tracker_opts labeling-sampling knobs.
     */
    BlockSimulator(const scheme::Scheme &scheme,
                   const pcm::LifetimeModel &lifetime,
                   const WearModel &wear,
                   const scheme::TrackerOptions &tracker_opts);

    /**
     * Run one life. @p cell_rng drives the lifetime/stuck-value draws
     * (keep it scheme-independent so different schemes see identical
     * cell populations); @p sim_rng drives tracker sampling and
     * geometric failure draws. Uses thread-local scratch (run() is
     * const and called concurrently by parallelFor workers).
     */
    BlockLifeResult run(Rng &cell_rng, Rng &sim_rng) const;

    /** Like run(), with caller-owned scratch. */
    BlockLifeResult run(Rng &cell_rng, Rng &sim_rng,
                        BlockSimWorkspace &ws) const;

  private:
    const scheme::Scheme &schemeProto;
    const pcm::LifetimeModel &lifetime;
    WearModel wear;
    scheme::TrackerOptions trackerOpts;
};

} // namespace aegis::sim

#endif // AEGIS_SIM_BLOCK_SIM_H
