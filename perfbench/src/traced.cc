#include "traced.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "aegis/factory.h"
#include "sim/block_sim.h"
#include "sim/page_sim.h"
#include "util/parallel.h"

namespace perfbench {

namespace sim = aegis::sim;

namespace {

double
secondsSince(std::uint64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/** Times every call of the wrapped tracker into its call type and
 *  family. */
class TracedTracker final : public aegis::scheme::LifetimeTracker
{
  public:
    TracedTracker(std::unique_ptr<aegis::scheme::LifetimeTracker> inner,
                  LayerTimes &times, Family family)
        : inner(std::move(inner)), times(times), family(family)
    {}

    aegis::scheme::FaultVerdict
    onFault(const aegis::pcm::Fault &fault) override
    {
        const std::uint64_t t0 = nowNs();
        const aegis::scheme::FaultVerdict v = inner->onFault(fault);
        record(LayerTimes::OnFault, t0);
        return v;
    }

    double
    writeFailureProbability(aegis::Rng &rng) override
    {
        const std::uint64_t t0 = nowNs();
        const double p = inner->writeFailureProbability(rng);
        record(LayerTimes::Wfp, t0);
        return p;
    }

    std::vector<std::uint32_t>
    amplifiedCells() const override
    {
        const std::uint64_t t0 = nowNs();
        std::vector<std::uint32_t> cells = inner->amplifiedCells();
        record(LayerTimes::Amplified, t0);
        return cells;
    }

    std::size_t faultCount() const override { return inner->faultCount(); }
    std::uint64_t repartitions() const override
    { return inner->repartitions(); }
    bool dataIndependent() const override
    { return inner->dataIndependent(); }

  private:
    void
    record(LayerTimes::Call call, std::uint64_t t0) const
    {
        const double s = secondsSince(t0);
        ++times.calls[call];
        times.callS[call] += s;
        times.trackerFamilyS[static_cast<std::size_t>(family)] += s;
    }

    std::unique_ptr<aegis::scheme::LifetimeTracker> inner;
    LayerTimes &times;
    Family family;
};

} // namespace

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
LayerTimes::trackerS() const
{
    double s = 0.0;
    for (const double c : callS)
        s += c;
    return s;
}

TracedLifetimeModel::TracedLifetimeModel(
    const aegis::pcm::LifetimeModel &inner, LayerTimes &times)
    : inner(inner), times(times)
{}

double
TracedLifetimeModel::sample(aegis::Rng &rng) const
{
    if (!times.drawOpen) {
        times.drawOpen = true;
        times.drawStartNs = nowNs();
    }
    ++times.cellsDrawn;
    return inner.sample(rng);
}

TracedScheme::TracedScheme(std::unique_ptr<aegis::scheme::Scheme> inner,
                           LayerTimes &times)
    : inner(std::move(inner)), times(times),
      family(familyOf(this->inner->name()))
{}

aegis::scheme::WriteOutcome
TracedScheme::write(aegis::pcm::CellArray &cells,
                    const aegis::BitVector &data)
{
    const std::uint64_t t0 = nowNs();
    const aegis::scheme::WriteOutcome outcome = inner->write(cells, data);
    const std::uint64_t ns = nowNs() - t0;
    ++times.writes;
    times.writeS += static_cast<double>(ns) * 1e-9;
    times.writeFamilyS[static_cast<std::size_t>(family)] +=
        static_cast<double>(ns) * 1e-9;
    times.writeNs.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(ns, std::numeric_limits<std::uint32_t>::max())));
    return outcome;
}

std::unique_ptr<aegis::scheme::Scheme>
TracedScheme::clone() const
{
    return std::make_unique<TracedScheme>(inner->clone(), times);
}

std::unique_ptr<aegis::scheme::LifetimeTracker>
TracedScheme::makeTracker(const aegis::scheme::TrackerOptions &opts) const
{
    if (times.drawOpen) {
        times.drawS += secondsSince(times.drawStartNs);
        times.drawOpen = false;
    }
    const std::uint64_t t0 = nowNs();
    auto tracker = std::make_unique<TracedTracker>(
        inner->makeTracker(opts), times, family);
    const double s = secondsSince(t0);
    ++times.calls[LayerTimes::Make];
    times.callS[LayerTimes::Make] += s;
    times.trackerFamilyS[static_cast<std::size_t>(family)] += s;
    return tracker;
}

void
TracedScheme::attachDirectory(aegis::pcm::FaultDirectory *dir,
                              std::uint64_t block_id)
{
    Scheme::attachDirectory(dir, block_id);
    inner->attachDirectory(dir, block_id);
}

OwnRun
runOwnPath(const Workload &w, const Op &op, std::uint64_t seed,
           LayerTimes *times)
{
    if (w.kind == Kind::Latency)
        throw std::invalid_argument("runOwnPath takes Monte-Carlo ops");
    const sim::ExperimentConfig cfg = experimentConfig(w, op, seed);
    OwnRun out;
    const std::uint64_t stack_t0 = nowNs();
    std::unique_ptr<aegis::scheme::Scheme> scheme =
        aegis::core::makeScheme(cfg.schemeSpec(), cfg.blockBits);
    const std::unique_ptr<aegis::pcm::LifetimeModel> lifetime =
        aegis::pcm::makeLifetimeModel(cfg.lifetimeKind, cfg.lifetimeMean,
                                      cfg.lifetimeParam);
    std::unique_ptr<aegis::pcm::LifetimeModel> traced_lifetime;
    if (times != nullptr) {
        scheme = std::make_unique<TracedScheme>(std::move(scheme), *times);
        traced_lifetime =
            std::make_unique<TracedLifetimeModel>(*lifetime, *times);
    }
    out.stackS = secondsSince(stack_t0);
    const sim::BlockSimulator block_sim(
        *scheme, traced_lifetime ? *traced_lifetime : *lifetime, cfg.wear,
        cfg.tracker);
    const aegis::Rng master(cfg.seed);

    // Lives fold into per-chunk accumulators merged in chunk order, the
    // study runners' reduction, so the floating-point sums match.
    const std::size_t grain = aegis::kDefaultGrain;
    if (w.kind == Kind::Page) {
        const aegis::pcm::Geometry geom{cfg.blockBits, cfg.pageBytes,
                                        cfg.pages};
        const sim::PageSimulator page_sim(block_sim, geom.blocksPerPage());
        sim::PageStudy study;
        for (std::size_t begin = 0; begin < cfg.pages; begin += grain) {
            sim::PageStudy chunk;
            const std::size_t end = std::min<std::size_t>(cfg.pages,
                                                          begin + grain);
            for (std::size_t p = begin; p < end; ++p) {
                const std::uint64_t t0 = nowNs();
                const sim::PageLifeResult life = page_sim.run(master.split(p));
                const double s = secondsSince(t0);
                out.simS += s;
                out.pageLifeMs.push_back(s * 1e3);
                out.faultsRecovered += life.faultsRecovered;
                chunk.recoverableFaults.add(
                    static_cast<double>(life.faultsRecovered));
                chunk.pageLifetime.add(life.deathTime);
                chunk.repartitions.add(
                    static_cast<double>(life.repartitions));
                chunk.survival.addDeath(life.deathTime);
            }
            study.merge(chunk);
        }
        out.outputs = outputsOf(study);
    } else {
        sim::BlockStudy study;
        for (std::size_t begin = 0; begin < w.items; begin += grain) {
            sim::BlockStudy chunk;
            const std::size_t end = std::min<std::size_t>(w.items,
                                                          begin + grain);
            for (std::size_t b = begin; b < end; ++b) {
                aegis::Rng cell_rng = master.split(2ull * b);
                aegis::Rng sim_rng = master.split(2ull * b + 1);
                const std::uint64_t t0 = nowNs();
                const sim::BlockLifeResult life =
                    block_sim.run(cell_rng, sim_rng);
                out.simS += secondsSince(t0);
                if (life.immortal)
                    throw std::runtime_error(op.label +
                                             ": an immortal block life");
                chunk.blockLifetime.add(life.deathTime);
                chunk.faultsAtDeath.add(life.faultsAtDeath);
            }
            study.merge(chunk);
        }
        out.outputs = outputsOf(study);
    }
    return out;
}

OwnRun
runTracedLatency(const Workload &w, const Op &op, std::uint64_t seed,
                 LayerTimes &times)
{
    OwnRun out;
    std::uint64_t t0 = nowNs();
    const TracedScheme proto(
        aegis::core::makeScheme(op.scheme, op.blockBits), times);
    out.stackS = secondsSince(t0);
    const sim::timing::LatencySimConfig cfg = latencyConfig(w, op);
    t0 = nowNs();
    const sim::timing::LatencySimResult r =
        sim::timing::runLatencySim(proto, cfg, aegis::Rng(seed));
    out.simS = secondsSince(t0);
    out.outputs = outputsOf(r);
    return out;
}

} // namespace perfbench
