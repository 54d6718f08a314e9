#include "sim/block_sim.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace aegis::sim {

BlockSimulator::BlockSimulator(const scheme::Scheme &scheme,
                               const pcm::LifetimeModel &lifetime_model,
                               const WearModel &wear_model,
                               const scheme::TrackerOptions &tracker_opts)
    : schemeProto(scheme), lifetime(lifetime_model), wear(wear_model),
      trackerOpts(tracker_opts)
{
    AEGIS_REQUIRE(wear_model.baseRate > 0,
                  "base wear rate must be positive");
}

BlockLifeResult
BlockSimulator::run(Rng &cell_rng, Rng &sim_rng) const
{
    // run() is const and invoked concurrently by parallelFor workers,
    // so the reusable scratch lives per thread.
    static thread_local BlockSimWorkspace ws;
    return run(cell_rng, sim_rng, ws);
}

BlockLifeResult
BlockSimulator::run(Rng &cell_rng, Rng &sim_rng,
                    BlockSimWorkspace &ws) const
{
    AEGIS_TRACE_SCOPE(obs::Scope::BlockLife);
    const std::size_t n = schemeProto.blockBits();

    // Draw the cell population first so it is identical for every
    // scheme simulated from the same cell_rng stream.
    std::vector<double> &remaining = ws.remaining;
    std::vector<char> &stuck_value = ws.stuckValue;
    remaining.resize(n);
    stuck_value.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        remaining[i] = lifetime.sample(cell_rng);
        stuck_value[i] = cell_rng.nextBool() ? 1 : 0;
    }

    std::vector<double> &rate = ws.rate;
    std::vector<char> &healthy = ws.healthy;
    rate.assign(n, wear.baseRate);
    healthy.assign(n, 1);

    auto tracker = schemeProto.makeTracker(trackerOpts);
    BlockLifeResult result;
    double t = 0.0;

    for (;;) {
        // Next natural fault arrival under the current rates.
        double dt = std::numeric_limits<double>::infinity();
        std::size_t victim = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (healthy[i] == 0)
                continue;
            const double d = remaining[i] / rate[i];
            if (d < dt) {
                dt = d;
                victim = i;
            }
        }

        // Data-dependent failure before the next arrival?
        const double p = tracker->writeFailureProbability(sim_rng);
        if (p > 0.0) {
            const double death = static_cast<double>(
                sim_rng.nextGeometric(p));
            if (death <= dt || victim == n) {
                result.deathTime = t + death;
                result.faultsAtDeath =
                    static_cast<std::uint32_t>(tracker->faultCount());
                result.repartitions = tracker->repartitions();
                obs::bump(obs::Counter::BlockLives);
                return result;
            }
        } else if (victim == n) {
            // Every cell is stuck yet the scheme still stores all
            // data patterns: the block never dies. (Only reachable
            // for tiny blocks with generous schemes.)
            result.deathTime = std::numeric_limits<double>::infinity();
            result.immortal = true;
            result.faultsAtDeath =
                static_cast<std::uint32_t>(tracker->faultCount());
            result.repartitions = tracker->repartitions();
            obs::bump(obs::Counter::BlockLives);
            return result;
        }

        // Advance to the fault arrival.
        // aegis-lint: allow(DET-FLOAT per-life sequential fold; life order is fixed by the chunk grid)
        t += dt;
        for (std::size_t i = 0; i < n; ++i) {
            if (healthy[i] != 0)
                // aegis-lint: allow(DET-FLOAT per-life sequential fold; life order is fixed by the chunk grid)
                remaining[i] -= rate[i] * dt;
        }
        healthy[victim] = 0;
        result.faultTimes.push_back(t);
        obs::bump(obs::Counter::FaultArrivals);

        const pcm::Fault fault{static_cast<std::uint32_t>(victim),
                               stuck_value[victim] != 0};
        if (tracker->onFault(fault) == scheme::FaultVerdict::Dead) {
            result.deathTime = t;
            result.faultsAtDeath =
                static_cast<std::uint32_t>(tracker->faultCount());
            result.repartitions = tracker->repartitions();
            obs::bump(obs::Counter::BlockLives);
            return result;
        }

        // Refresh wear rates for the new configuration.
        std::fill(rate.begin(), rate.end(), wear.baseRate);
        for (std::uint32_t pos : tracker->amplifiedCells()) {
            if (healthy[pos] != 0)
                // aegis-lint: allow(DET-FLOAT per-life sequential fold; life order is fixed by the chunk grid)
                rate[pos] += wear.amplifiedExtra;
        }
    }
}

} // namespace aegis::sim
