#include "sim/page_sim.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace aegis::sim {

PageSimulator::PageSimulator(const BlockSimulator &block_sim,
                             std::uint32_t blocks_per_page)
    : blockSim(block_sim), blocksPerPage(blocks_per_page)
{
    AEGIS_REQUIRE(blocks_per_page > 0, "a page needs at least one block");
}

PageLifeResult
PageSimulator::run(const Rng &page_rng) const
{
    // run() is const and called concurrently by parallelFor workers;
    // the per-thread buffer keeps back-to-back page lives from
    // reallocating the block-result vector.
    static thread_local std::vector<BlockLifeResult> blocks;
    return runDetailed(page_rng, blocks);
}

PageLifeResult
PageSimulator::runDetailed(const Rng &page_rng,
                           std::vector<BlockLifeResult> &blocks) const
{
    AEGIS_TRACE_SCOPE(obs::Scope::PageLife);
    blocks.clear();
    blocks.reserve(blocksPerPage);
    double death = std::numeric_limits<double>::infinity();
    for (std::uint32_t b = 0; b < blocksPerPage; ++b) {
        // Stream ids: even = cell population, odd = sim noise.
        Rng cell_rng = page_rng.split(2ull * b);
        Rng sim_rng = page_rng.split(2ull * b + 1);
        blocks.push_back(blockSim.run(cell_rng, sim_rng));
        death = std::min(death, blocks.back().deathTime);
    }

    obs::bump(obs::Counter::PageLives);
    PageLifeResult result;
    result.deathTime = death;
    for (const BlockLifeResult &blk : blocks) {
        result.repartitions += blk.repartitions;
        for (double ft : blk.faultTimes) {
            if (ft < death)
                ++result.faultsRecovered;
            else
                break;    // fault times are ascending
        }
    }
    return result;
}

} // namespace aegis::sim
