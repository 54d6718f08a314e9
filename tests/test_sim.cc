/**
 * @file
 * Tests for the event-driven Monte-Carlo engine (block, page and
 * experiment layers).
 */

#include <gtest/gtest.h>

#include "aegis/factory.h"
#include "sim/experiment.h"
#include "sim/page_sim.h"

namespace aegis::sim {
namespace {

/** A small deterministic lifetime for fast tests. */
std::unique_ptr<pcm::LifetimeModel>
testLifetime()
{
    return pcm::makeLifetimeModel("normal", 1e6, 0.25);
}

TEST(BlockSim, DeterministicPerSeed)
{
    auto scheme = core::makeScheme("aegis-23x23", 512);
    auto lifetime = testLifetime();
    const BlockSimulator sim(*scheme, *lifetime, {}, {});

    Rng c1(1), s1(2), c2(1), s2(2);
    const BlockLifeResult a = sim.run(c1, s1);
    const BlockLifeResult b = sim.run(c2, s2);
    EXPECT_EQ(a.deathTime, b.deathTime);
    EXPECT_EQ(a.faultsAtDeath, b.faultsAtDeath);
    EXPECT_EQ(a.faultTimes, b.faultTimes);
}

TEST(BlockSim, FaultTimesAreAscendingAndPositive)
{
    auto scheme = core::makeScheme("safer32", 512);
    auto lifetime = testLifetime();
    const BlockSimulator sim(*scheme, *lifetime, {}, {});
    Rng c(3), s(4);
    const BlockLifeResult r = sim.run(c, s);
    ASSERT_FALSE(r.faultTimes.empty());
    EXPECT_GT(r.faultTimes.front(), 0.0);
    for (std::size_t i = 1; i < r.faultTimes.size(); ++i)
        EXPECT_GT(r.faultTimes[i], r.faultTimes[i - 1]);
    EXPECT_GE(r.deathTime, r.faultTimes.back());
    EXPECT_EQ(r.faultsAtDeath, r.faultTimes.size());
}

TEST(BlockSim, NoneDiesAtFirstFault)
{
    auto scheme = core::makeScheme("none", 512);
    auto lifetime = testLifetime();
    const BlockSimulator sim(*scheme, *lifetime, {}, {});
    Rng c(5), s(6);
    const BlockLifeResult r = sim.run(c, s);
    EXPECT_EQ(r.faultsAtDeath, 1u);
    EXPECT_EQ(r.deathTime, r.faultTimes.front());
    // With rate 0.5 the earliest of 512 N(1e6, 25%) lifetimes fails
    // around 2e6 * (1 - ~3.2 sigma * 0.25) block writes; sanity-bound
    // it loosely.
    EXPECT_GT(r.deathTime, 1e5);
    EXPECT_LT(r.deathTime, 2e6);
}

TEST(BlockSim, EcpDiesAtEntryBudgetPlusOne)
{
    auto scheme = core::makeScheme("ecp4", 512);
    auto lifetime = testLifetime();
    const BlockSimulator sim(*scheme, *lifetime, {}, {});
    Rng c(7), s(8);
    const BlockLifeResult r = sim.run(c, s);
    EXPECT_EQ(r.faultsAtDeath, 5u);
    EXPECT_EQ(r.deathTime, r.faultTimes.back());
}

TEST(BlockSim, SameCellsDifferentSchemesOrdering)
{
    // On identical cell populations ECP6 must outlive ECP1, and basic
    // Aegis must outlive both (it tolerates far more faults).
    auto lifetime = testLifetime();
    auto ecp1 = core::makeScheme("ecp1", 512);
    auto ecp6 = core::makeScheme("ecp6", 512);
    auto aegis = core::makeScheme("aegis-9x61", 512);
    const BlockSimulator s1(*ecp1, *lifetime, {}, {});
    const BlockSimulator s6(*ecp6, *lifetime, {}, {});
    const BlockSimulator sa(*aegis, *lifetime, {}, {});

    int ecp_ok = 0, aegis_ok = 0;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Rng c1(seed), c2(seed), c3(seed), s(seed + 999);
        Rng sA(seed + 999), sB(seed + 999);
        const double d1 = s1.run(c1, s).deathTime;
        const double d6 = s6.run(c2, sA).deathTime;
        const double da = sa.run(c3, sB).deathTime;
        ecp_ok += d6 > d1;
        aegis_ok += da > d6;
    }
    EXPECT_EQ(ecp_ok, 20);
    EXPECT_GE(aegis_ok, 19);    // allow one statistical accident
}

TEST(BlockSim, WearAmplificationShortensLifetime)
{
    // Basic Aegis with the inversion-write amplification must not
    // outlive the same scheme with amplification disabled.
    auto scheme = core::makeScheme("aegis-17x31", 512);
    auto lifetime = testLifetime();
    WearModel amplified;            // 0.5 + 0.5
    WearModel ideal{0.5, 0.0};      // no extra wear
    const BlockSimulator sim_a(*scheme, *lifetime, amplified, {});
    const BlockSimulator sim_i(*scheme, *lifetime, ideal, {});
    double sum_a = 0, sum_i = 0;
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        Rng c1(seed), c2(seed), sa(seed + 7), si(seed + 7);
        sum_a += sim_a.run(c1, sa).deathTime;
        sum_i += sim_i.run(c2, si).deathTime;
    }
    EXPECT_LT(sum_a, sum_i);
}

TEST(PageSim, DeathIsMinOfBlocksAndCountsPriorFaults)
{
    auto scheme = core::makeScheme("ecp2", 512);
    auto lifetime = testLifetime();
    const BlockSimulator block_sim(*scheme, *lifetime, {}, {});
    const PageSimulator page_sim(block_sim, 8);

    const Rng page_rng(11);
    const PageLifeResult page = page_sim.run(page_rng);

    // Recompute by hand from the block results.
    double death = std::numeric_limits<double>::infinity();
    std::uint64_t faults = 0;
    std::vector<BlockLifeResult> blocks;
    for (std::uint32_t b = 0; b < 8; ++b) {
        Rng c = page_rng.split(2ull * b);
        Rng s = page_rng.split(2ull * b + 1);
        blocks.push_back(block_sim.run(c, s));
        death = std::min(death, blocks.back().deathTime);
    }
    for (const auto &blk : blocks) {
        for (double t : blk.faultTimes)
            faults += t < death;
    }
    EXPECT_EQ(page.deathTime, death);
    EXPECT_EQ(page.faultsRecovered, faults);
}

TEST(Experiment, PageStudyBasics)
{
    ExperimentConfig cfg;
    cfg.scheme = "ecp4";
    cfg.pages = 16;
    cfg.pageBytes = 1024;
    cfg.lifetimeMean = 1e6;
    const PageStudy study = runPageStudy(cfg);
    EXPECT_EQ(study.scheme, "ecp4");
    EXPECT_EQ(study.recoverableFaults.count(), 16u);
    EXPECT_GT(study.pageLifetime.mean(), 0.0);
    EXPECT_EQ(study.survival.population(), 16u);
    EXPECT_GT(study.overheadBits, 0u);
    // ECP4 pages recover at most 4 faults per block but usually die
    // on the first block to exceed it; still more than zero faults.
    EXPECT_GT(study.recoverableFaults.mean(), 0.0);
}

TEST(Experiment, SeedReproducibility)
{
    ExperimentConfig cfg;
    cfg.scheme = "aegis-23x23";
    cfg.pages = 8;
    cfg.pageBytes = 1024;
    cfg.lifetimeMean = 1e6;
    const PageStudy a = runPageStudy(cfg);
    const PageStudy b = runPageStudy(cfg);
    EXPECT_EQ(a.pageLifetime.mean(), b.pageLifetime.mean());
    EXPECT_EQ(a.recoverableFaults.mean(), b.recoverableFaults.mean());
}

TEST(Experiment, ImprovementOverUnprotectedExceedsOne)
{
    ExperimentConfig cfg;
    cfg.pages = 24;
    cfg.pageBytes = 1024;
    cfg.lifetimeMean = 1e6;

    cfg.scheme = "none";
    const PageStudy baseline = runPageStudy(cfg);
    cfg.scheme = "ecp4";
    const PageStudy ecp = runPageStudy(cfg);
    cfg.scheme = "aegis-17x31";
    const PageStudy aegis = runPageStudy(cfg);

    const double ecp_gain = lifetimeImprovement(ecp, baseline);
    const double aegis_gain = lifetimeImprovement(aegis, baseline);
    EXPECT_GT(ecp_gain, 1.5);
    EXPECT_GT(aegis_gain, ecp_gain);
}

TEST(Experiment, BlockStudyFailureCdfIsMonotone)
{
    ExperimentConfig cfg;
    cfg.scheme = "aegis-23x23";
    cfg.lifetimeMean = 1e6;
    const BlockStudy study = runBlockStudy(cfg, 64);
    EXPECT_EQ(study.blockLifetime.count(), 64u);
    // Failure probability is 0 through the hard FTC and reaches 1.
    EXPECT_DOUBLE_EQ(study.failureProbabilityAt(7), 0.0);
    double last = 0.0;
    for (std::int64_t f = 0; f <= 64; ++f) {
        const double p = study.failureProbabilityAt(f);
        EXPECT_GE(p, last);
        last = p;
    }
    EXPECT_DOUBLE_EQ(study.failureProbabilityAt(64), 1.0);
}

TEST(Experiment, HalfLifetimeOrdering)
{
    ExperimentConfig cfg;
    cfg.pages = 24;
    cfg.pageBytes = 1024;
    cfg.lifetimeMean = 1e6;
    cfg.scheme = "safer32";
    const PageStudy safer = runPageStudy(cfg);
    cfg.scheme = "aegis-17x31";
    const PageStudy aegis = runPageStudy(cfg);
    // Fig 9's headline: Aegis 17x31 beats SAFER32's half lifetime.
    EXPECT_GT(aegis.survival.timeToFraction(0.5),
              safer.survival.timeToFraction(0.5));
}

} // namespace
} // namespace aegis::sim
