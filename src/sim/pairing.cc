#include "sim/pairing.h"

#include <algorithm>

#include "aegis/factory.h"
#include "pcm/address.h"
#include "pcm/lifetime_model.h"
#include "sim/page_sim.h"
#include "util/error.h"

namespace aegis::sim {

namespace {

/** Dead-block offsets of one page at a given time. */
std::uint64_t
deadMask(const std::vector<double> &deaths, double when)
{
    AEGIS_ASSERT(deaths.size() <= 64,
                 "pairing study supports up to 64 blocks per page");
    std::uint64_t mask = 0;
    for (std::size_t b = 0; b < deaths.size(); ++b) {
        if (deaths[b] <= when)
            mask |= 1ull << b;
    }
    return mask;
}

/** Greedy first-fit matching of compatible (disjoint-mask) pages. */
std::size_t
matchPairs(std::vector<std::uint64_t> masks)
{
    std::size_t pairs = 0;
    std::vector<bool> used(masks.size(), false);
    for (std::size_t i = 0; i < masks.size(); ++i) {
        if (used[i])
            continue;
        for (std::size_t j = i + 1; j < masks.size(); ++j) {
            if (!used[j] && (masks[i] & masks[j]) == 0) {
                used[i] = used[j] = true;
                ++pairs;
                break;
            }
        }
    }
    return pairs;
}

} // namespace

double
PairingStudy::timeToCapacity(double fraction, bool paired) const
{
    const auto &curve = paired ? withPairing : withoutPairing;
    AEGIS_REQUIRE(!curve.empty(), "empty pairing study");
    const double target = fraction * curve.front().second;
    for (const auto &[when, capacity] : curve) {
        if (capacity < target)
            return when;
    }
    return curve.back().first;
}

PairingStudy
runPairingStudy(const ExperimentConfig &config, std::size_t points)
{
    const pcm::Geometry geom{config.blockBits, config.pageBytes,
                             config.pages};
    AEGIS_REQUIRE(geom.blocksPerPage() <= 64,
                  "pairing study supports up to 64 blocks per page");
    const auto scheme =
        core::makeScheme(config.schemeSpec(), config.blockBits);
    const auto lifetime = pcm::makeLifetimeModel(
        config.lifetimeKind, config.lifetimeMean, config.lifetimeParam);
    const BlockSimulator block_sim(*scheme, *lifetime, config.wear,
                                   config.tracker);
    const PageSimulator page_sim(block_sim, geom.blocksPerPage());

    // Per-page block death times.
    std::vector<std::vector<double>> page_deaths(config.pages);
    const Rng master(config.seed);
    double horizon = 0;
    for (std::uint32_t p = 0; p < config.pages; ++p) {
        std::vector<BlockLifeResult> blocks;
        (void)page_sim.runDetailed(master.split(p), blocks);
        page_deaths[p].reserve(blocks.size());
        for (const BlockLifeResult &blk : blocks) {
            page_deaths[p].push_back(blk.deathTime);
            horizon = std::max(horizon, blk.deathTime);
        }
    }

    PairingStudy study;
    for (std::size_t i = 0; i <= points; ++i) {
        const double when =
            horizon * static_cast<double>(i) /
            static_cast<double>(points == 0 ? 1 : points);

        std::size_t healthy = 0;
        std::vector<std::uint64_t> faulty_masks;
        for (const auto &deaths : page_deaths) {
            const std::uint64_t mask = deadMask(deaths, when);
            if (mask == 0)
                ++healthy;
            else
                faulty_masks.push_back(mask);
        }
        const std::size_t pairs = matchPairs(std::move(faulty_masks));
        study.withoutPairing.emplace_back(
            when, static_cast<double>(healthy));
        study.withPairing.emplace_back(
            when, static_cast<double>(healthy + pairs));
    }
    return study;
}

} // namespace aegis::sim
