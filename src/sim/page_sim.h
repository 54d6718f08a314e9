/**
 * @file
 * Page- and memory-level Monte Carlo built on BlockSimulator.
 *
 * A memory block (OS page) consists of independent data blocks; every
 * page write touches all of them, so block time equals page time. The
 * page dies when its first data block becomes unrecoverable (the
 * paper's definition), and the faults it "recovered" are all faults —
 * in any of its blocks — that arrived strictly before that moment.
 */

#ifndef AEGIS_SIM_PAGE_SIM_H
#define AEGIS_SIM_PAGE_SIM_H

#include <cstdint>
#include <vector>

#include "sim/block_sim.h"

namespace aegis::sim {

/** Outcome of one page's simulated life. */
struct PageLifeResult
{
    /** Page writes survived before the first block failure. */
    double deathTime = 0.0;
    /** Faults recovered across all blocks before death. */
    std::uint64_t faultsRecovered = 0;
    /** Total re-partitions across the page's blocks. */
    std::uint64_t repartitions = 0;
};

/** Simulate one page of @p blocks_per_page independent data blocks. */
class PageSimulator
{
  public:
    /**
     * @param block_sim the per-block simulator driven for each block.
     * @param blocks_per_page data blocks per memory block (OS page).
     */
    PageSimulator(const BlockSimulator &block_sim,
                  std::uint32_t blocks_per_page);

    /**
     * Run one page life. @p page_rng is split per block into separate
     * cell and sim streams (see BlockSimulator::run), so a page
     * simulated with the same @p page_rng seed sees identical cell
     * populations regardless of the scheme under test.
     */
    PageLifeResult run(const Rng &page_rng) const;

    /**
     * Like run(), but also returns every block's full life (for
     * consumers that need per-block death times, e.g. the dynamic
     * pairing study).
     */
    PageLifeResult runDetailed(const Rng &page_rng,
                               std::vector<BlockLifeResult> &blocks)
        const;

  private:
    const BlockSimulator &blockSim;
    std::uint32_t blocksPerPage;
};

} // namespace aegis::sim

#endif // AEGIS_SIM_PAGE_SIM_H
