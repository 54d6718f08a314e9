#include "sim/experiment.h"

#include <cmath>

#include "aegis/factory.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/timeline.h"
#include "pcm/address.h"
#include "sim/checkpoint.h"
#include "sim/page_sim.h"
#include "sim/workload.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace aegis::sim {

double
StudyResult::overheadFraction() const
{
    return blockBits == 0
               ? 0.0
               : static_cast<double>(overheadBits) /
                     static_cast<double>(blockBits);
}

void
StudyResult::adoptLabels(const StudyResult &other)
{
    if (scheme.empty())
        scheme = other.scheme;
    if (overheadBits == 0)
        overheadBits = other.overheadBits;
    if (blockBits == 0)
        blockBits = other.blockBits;
}

void
PageStudy::merge(const PageStudy &other)
{
    adoptLabels(other);
    metrics.merge(other.metrics);
    recoverableFaults.merge(other.recoverableFaults);
    pageLifetime.merge(other.pageLifetime);
    repartitions.merge(other.repartitions);
    survival.merge(other.survival);
}

void
BlockStudy::merge(const BlockStudy &other)
{
    adoptLabels(other);
    metrics.merge(other.metrics);
    blockLifetime.merge(other.blockLifetime);
    faultsAtDeath.merge(other.faultsAtDeath);
}

void
SurvivalStudy::merge(const SurvivalStudy &other)
{
    adoptLabels(other);
    metrics.merge(other.metrics);
    survival.merge(other.survival);
}

namespace {

/** Assemble the simulator stack shared by both study kinds. */
struct Stack
{
    std::unique_ptr<scheme::Scheme> scheme;
    std::unique_ptr<pcm::LifetimeModel> lifetime;

    explicit Stack(const ExperimentConfig &config)
        : scheme(core::makeScheme(config.schemeSpec(), config.blockBits)),
          lifetime(pcm::makeLifetimeModel(config.lifetimeKind,
                                          config.lifetimeMean,
                                          config.lifetimeParam))
    {}
};

/**
 * Fingerprint of everything that shapes one study unit's results, so
 * a resumed checkpoint is rejected when any of it changed. The master
 * seed is checked at the session level and --jobs is deliberately
 * excluded: results are jobs-invariant, so a sweep may be resumed
 * with a different worker count.
 */
std::uint64_t
unitFingerprint(const ExperimentConfig &config, StudyKind kind,
                std::uint64_t items, std::uint64_t grain,
                const std::string &extra = std::string())
{
    BinaryWriter w;
    w.u8(static_cast<std::uint8_t>(kind));
    w.str(config.scheme);
    w.u32(config.blockBits);
    w.u32(config.pageBytes);
    w.str(config.lifetimeKind);
    w.f64(config.lifetimeMean);
    w.f64(config.lifetimeParam);
    w.f64(config.wear.baseRate);
    w.f64(config.wear.amplifiedExtra);
    w.u32(config.tracker.labelingSamples);
    w.u8(config.audit ? 1 : 0);
    w.u64(items);
    w.u64(grain);
    w.str(extra);
    return fnv1a64(w.data());
}

/** Open a chunk timeline row grid for this sweep (no-op when the
 *  recorder is disarmed). Named "<scheme>.<study>" in the manifest. */
void
beginStudyTimeline(const std::string &scheme, const char *study,
                   std::size_t items)
{
    if (obs::timelineEnabled())
        obs::timelineBeginSeries(
            scheme + "." + study,
            (items + kDefaultGrain - 1) / kDefaultGrain);
}

} // namespace

PageStudy
runPageStudy(const ExperimentConfig &config)
{
    const Stack stack(config);
    const pcm::Geometry geom{config.blockBits, config.pageBytes,
                             config.pages};

    const BlockSimulator block_sim(*stack.scheme, *stack.lifetime,
                                   config.wear, config.tracker);
    const PageSimulator page_sim(block_sim, geom.blocksPerPage());

    // Pages are independent Monte-Carlo lives on seed-derived RNG
    // streams; the chunk grid and merge order never depend on jobs,
    // so every jobs value yields bit-identical studies.
    const Rng master(config.seed);
    obs::ProgressReporter progress("pages [" + stack.scheme->name() + "]",
                                   config.pages, "pages");
    beginStudyTimeline(stack.scheme->name(), "page_study",
                       config.pages);
    PageStudy study;
    try {
        study = runStudyUnit<PageStudy>(
            config.pages, config.jobs, StudyKind::Page,
            unitFingerprint(config, StudyKind::Page, config.pages,
                            kDefaultGrain),
            [&](PageStudy &acc, std::size_t p) {
                const obs::ThreadMark before = obs::mark();
                const Rng page_rng = master.split(p);
                const PageLifeResult life = page_sim.run(page_rng);
                acc.recoverableFaults.add(
                    static_cast<double>(life.faultsRecovered));
                acc.pageLifetime.add(life.deathTime);
                acc.repartitions.add(
                    static_cast<double>(life.repartitions));
                acc.survival.addDeath(life.deathTime);
                acc.metrics.merge(obs::deltaSince(before));
                progress.tick();
            });
    } catch (const CancelledError &ex) {
        progress.close(cancelOutcomeLabel(ex.reason()));
        throw;
    }
    study.scheme = stack.scheme->name();
    study.overheadBits = stack.scheme->overheadBits();
    study.blockBits = config.blockBits;
    return study;
}

BlockStudy
runBlockStudy(const ExperimentConfig &config, std::uint32_t blocks)
{
    const Stack stack(config);
    const BlockSimulator block_sim(*stack.scheme, *stack.lifetime,
                                   config.wear, config.tracker);

    const Rng master(config.seed);
    obs::ProgressReporter progress("blocks [" + stack.scheme->name() + "]",
                                   blocks, "blocks");
    beginStudyTimeline(stack.scheme->name(), "block_study", blocks);
    BlockStudy study;
    try {
        study = runStudyUnit<BlockStudy>(
            blocks, config.jobs, StudyKind::Block,
            unitFingerprint(config, StudyKind::Block, blocks,
                            kDefaultGrain),
            [&](BlockStudy &acc, std::size_t b) {
                const obs::ThreadMark before = obs::mark();
                Rng cell_rng = master.split(2ull * b);
                Rng sim_rng = master.split(2ull * b + 1);
                const BlockLifeResult life =
                    block_sim.run(cell_rng, sim_rng);
                AEGIS_ASSERT(!life.immortal,
                             "paper-scale blocks cannot be immortal");
                acc.blockLifetime.add(life.deathTime);
                acc.faultsAtDeath.add(life.faultsAtDeath);
                acc.metrics.merge(obs::deltaSince(before));
                progress.tick();
            });
    } catch (const CancelledError &ex) {
        progress.close(cancelOutcomeLabel(ex.reason()));
        throw;
    }
    study.scheme = stack.scheme->name();
    study.overheadBits = stack.scheme->overheadBits();
    study.blockBits = config.blockBits;
    return study;
}

double
lifetimeImprovement(const PageStudy &study, const PageStudy &baseline)
{
    AEGIS_REQUIRE(baseline.pageLifetime.mean() > 0,
                  "baseline lifetime must be positive");
    return study.pageLifetime.mean() / baseline.pageLifetime.mean();
}

SurvivalCurve
runMemorySurvival(const ExperimentConfig &config,
                  const Workload &workload)
{
    const Stack stack(config);
    const pcm::Geometry geom{config.blockBits, config.pageBytes,
                             config.pages};
    const BlockSimulator block_sim(*stack.scheme, *stack.lifetime,
                                   config.wear, config.tracker);
    const PageSimulator page_sim(block_sim, geom.blocksPerPage());

    const Rng master(config.seed);
    Rng workload_rng = master.split(0xffffffffull);
    const std::vector<double> rates =
        workload.pageRates(config.pages, workload_rng);

    obs::ProgressReporter progress(
        "survival [" + stack.scheme->name() + "]", config.pages, "pages");
    beginStudyTimeline(stack.scheme->name(),
                       ("survival." + workload.name()).c_str(),
                       config.pages);
    SurvivalStudy study;
    try {
        study = runStudyUnit<SurvivalStudy>(
            config.pages, config.jobs, StudyKind::Survival,
            unitFingerprint(config, StudyKind::Survival, config.pages,
                            kDefaultGrain, workload.name()),
            [&](SurvivalStudy &acc, std::size_t p) {
                const obs::ThreadMark before = obs::mark();
                const Rng page_rng = master.split(p);
                const PageLifeResult life = page_sim.run(page_rng);
                AEGIS_ASSERT(rates[p] > 0, "page rate must be positive");
                acc.survival.addDeath(life.deathTime / rates[p]);
                acc.metrics.merge(obs::deltaSince(before));
                progress.tick();
            });
    } catch (const CancelledError &ex) {
        progress.close(cancelOutcomeLabel(ex.reason()));
        throw;
    }
    return study.survival;
}

} // namespace aegis::sim
