/**
 * @file
 * perfbench: run one workload for a fixed host-time budget and print
 * its metrics as one JSON line.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --goldens FILE
 *   perfbench --workload NAME --pin FILE
 *
 * Every run first replays each config at the two pinned seeds and
 * compares the simulated outputs with the goldens (this also warms
 * caches and lazy set-up before anything is timed). Then:
 *
 *  --trace 0  times the stack set-up, and runs rounds of every config
 *             through the public entry points, each round on a fresh
 *             seed derived from --seed, until --seconds have passed.
 *             Prints the end-to-end metrics.
 *  --trace 1  runs each config of each round three times: through the
 *             entry point, along the benchmark's own per-life path, and
 *             along that path with the tracing decorators. All three
 *             must agree byte for byte. Prints the per-layer metrics.
 *
 * An op is one config at one seed; it fails when it throws, breaks an
 * invariant, or its outputs differ from the golden or the other path.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aegis/factory.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "pcm/fail_cache.h"
#include "sim/device.h"
#include "sim/trace.h"
#include "traced.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using aegis::obs::Counter;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    std::string goldens;
    std::string pin;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed")
            a.seed = std::stoull(value);
        else if (flag == "--seconds")
            a.seconds = std::stod(value);
        else if (flag == "--trace")
            a.trace = std::stoi(value);
        else if (flag == "--goldens")
            a.goldens = value;
        else if (flag == "--pin")
            a.pin = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (a.workload.empty())
        throw std::invalid_argument("--workload is required");
    if (a.pin.empty() && a.goldens.empty())
        throw std::invalid_argument("--goldens is required");
    if (a.trace != 0 && a.trace != 1)
        throw std::invalid_argument("--trace takes 0 or 1");
    if (!(a.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

/** Rounds measured at least, however short --seconds is. */
constexpr int kMinRounds = 3;
/** Stack set-ups timed per run, as many as fit in the budget within
 *  these limits; setup_s is their median. */
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 1000;
constexpr double kSetupBudgetS = 1.0;

double
secondsSince(std::uint64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/** Seed of timed round @p round of a run seeded @p seed. */
std::uint64_t
roundSeed(std::uint64_t seed, std::uint64_t round)
{
    return aegis::Rng(seed).split(round).nextU64();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p q (0..1) of @p v. */
template <typename T>
double
percentile(std::vector<T> v, double q)
{
    if (v.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    const std::size_t k = rank == 0 ? 0 : rank - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    return static_cast<double>(v[k]);
}

/** Host seconds to build every config's stack once: the scheme (masks,
 *  collision ROM), its tracker and the lifetime model, plus the device
 *  clones and trace source of a latency cell. */
double
setupOnce(const Workload &w)
{
    double total = 0.0;
    for (const Op &op : w.ops) {
        const aegis::sim::ExperimentConfig cfg =
            experimentConfig(w, op, kDefaultSeed);
        const std::uint64_t t0 = nowNs();
        const auto scheme =
            aegis::core::makeScheme(cfg.schemeSpec(), cfg.blockBits);
        const auto tracker = scheme->makeTracker(cfg.tracker);
        const auto lifetime = aegis::pcm::makeLifetimeModel(
            cfg.lifetimeKind, cfg.lifetimeMean, cfg.lifetimeParam);
        std::unique_ptr<aegis::sim::PcmDevice> device;
        std::unique_ptr<aegis::sim::TraceSource> trace;
        if (w.kind == Kind::Latency) {
            const aegis::sim::timing::LatencySimConfig lc =
                latencyConfig(w, op);
            const aegis::pcm::Geometry geom{lc.shape.blockBits,
                                            lc.shape.pageBytes,
                                            lc.shape.pages};
            device = std::make_unique<aegis::sim::PcmDevice>(
                geom, *scheme,
                scheme->requiresDirectory()
                    ? std::make_shared<aegis::pcm::OracleFaultDirectory>()
                    : nullptr);
            trace = aegis::sim::makeTrace(lc.traceSpec, lc.shape,
                                          aegis::Rng(kDefaultSeed).split(0));
        }
        // Tear-down is left out of the timed span.
        total += secondsSince(t0);
    }
    return total;
}

/** Per-config attribution printed above the result line. */
struct ConfigRow
{
    double hostS = 0.0;
    std::uint64_t units = 0;
    /** StudyResult::metrics (or the cell's counter delta) summed over
     *  both pinned seeds: exact for every run of a given build. */
    aegis::obs::Metrics pinnedCounters;
};

class Runner
{
  public:
    Runner(const Workload &w, const Args &a) : w(w), args(a) {}

    /** Run @p body as one op of config @p op; count it, and count it
     *  failed when it throws. */
    void
    attempt(const Op &op, std::uint64_t seed,
            const std::function<void()> &body)
    {
        ++attempted;
        try {
            body();
        } catch (const std::exception &e) {
            fail(op, seed, e.what());
        }
    }

    void
    fail(const Op &op, std::uint64_t seed, const std::string &why)
    {
        ++failed;
        if (failed <= 10)
            std::fprintf(stderr, "perfbench: %s seed %" PRIu64
                         " failed: %s\n",
                         op.label.c_str(), seed, why.c_str());
    }

    void
    goldenPass(const Goldens &goldens)
    {
        for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
            for (const Op &op : w.ops) {
                attempt(op, seed, [&] {
                    const OpResult r = runOp(w, op, seed);
                    rows[op.label].pinnedCounters.merge(r.counters);
                    const auto it = goldens.find({seed, op.label});
                    if (it == goldens.end())
                        fail(op, seed, "no golden pinned");
                    else if (it->second != r.outputs)
                        fail(op, seed, "outputs differ from the golden: " +
                                           r.outputs);
                });
            }
        }
    }

    std::map<std::string, double>
    endToEnd()
    {
        std::vector<double> setups;
        const std::uint64_t setup_start = nowNs();
        while (setups.size() < kMinSetupReps ||
               (setups.size() < kMaxSetupReps &&
                secondsSince(setup_start) < kSetupBudgetS))
            setups.push_back(setupOnce(w));

        const std::uint64_t start = nowNs();
        for (std::uint64_t round = 0;
             rounds < kMinRounds || secondsSince(start) < args.seconds;
             ++round, ++rounds) {
            const std::uint64_t seed = roundSeed(args.seed, round);
            double round_s = 0.0;
            std::uint64_t units = 0;
            for (const Op &op : w.ops) {
                attempt(op, seed, [&] {
                    const std::uint64_t t0 = nowNs();
                    const OpResult r = runOp(w, op, seed);
                    const double s = secondsSince(t0);
                    round_s += s;
                    units += r.units;
                    rows[op.label].hostS += s;
                    rows[op.label].units += r.units;
                });
            }
            roundRates.push_back(static_cast<double>(units) / round_s);
        }

        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        return {{"items_per_s", median(roundRates)},
                {"setup_s", median(setups)},
                {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0}};
    }

    std::map<std::string, double> perLayer();

    void
    printAttribution() const
    {
        std::printf("# %s seed %" PRIu64 " trace %d: %d timed rounds, "
                    "%" PRIu64 " ops, %" PRIu64 " failed\n",
                    w.name.c_str(), args.seed, args.trace, rounds,
                    attempted, failed);
        if (!roundRates.empty()) {
            std::printf("# items/s per round:");
            for (const double r : roundRates)
                std::printf(" %.6g", r);
            std::printf("\n");
        }
        std::printf("# %-24s %10s %10s  counters at the pinned seeds\n",
                    "config", "host_s", "units");
        for (const Op &op : w.ops) {
            const auto it = rows.find(op.label);
            const ConfigRow row = it == rows.end() ? ConfigRow{} : it->second;
            std::string counters;
            for (std::size_t c = 0; c < aegis::obs::kCounterCount; ++c) {
                if (row.pinnedCounters.counters[c] == 0)
                    continue;
                counters += ' ';
                counters += aegis::obs::counterName(static_cast<Counter>(c));
                counters += '=';
                counters += std::to_string(row.pinnedCounters.counters[c]);
            }
            std::printf("# %-24s %10.4f %10" PRIu64 " %s\n",
                        op.label.c_str(), row.hostS, row.units,
                        counters.c_str());
        }
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    const Workload &w;
    const Args &args;
    int rounds = 0;
    std::vector<double> roundRates;
    std::map<std::string, ConfigRow> rows;
};

std::map<std::string, double>
Runner::perLayer()
{
    LayerTimes times;
    double entry_s = 0.0, own_s = 0.0, traced_s = 0.0;
    double stack_s = 0.0, sim_s = 0.0;
    std::uint64_t faults_recovered = 0;
    std::vector<double> page_life_ms;
    aegis::obs::Metrics study_counters;  // StudyResult::metrics
    aegis::obs::Metrics traced_counters; // over the decorated pass
    const bool mc = w.kind != Kind::Latency;

    const std::uint64_t start = nowNs();
    for (std::uint64_t round = 0;
         rounds < kMinRounds || secondsSince(start) < args.seconds;
         ++round, ++rounds) {
        const std::uint64_t seed = roundSeed(args.seed, round);
        for (const Op &op : w.ops) {
            attempt(op, seed, [&] {
                std::uint64_t t0 = nowNs();
                const OpResult entry = runOp(w, op, seed);
                const double s = secondsSince(t0);
                entry_s += s;
                rows[op.label].hostS += s;
                rows[op.label].units += entry.units;
                study_counters.merge(entry.counters);

                std::string own_outputs = entry.outputs;
                if (mc) {
                    t0 = nowNs();
                    own_outputs = runOwnPath(w, op, seed, nullptr).outputs;
                    own_s += secondsSince(t0);
                }

                const aegis::obs::Metrics before =
                    aegis::obs::processTotals();
                t0 = nowNs();
                const OwnRun traced =
                    mc ? runOwnPath(w, op, seed, &times)
                       : runTracedLatency(w, op, seed, times);
                traced_s += secondsSince(t0);
                traced_counters.merge(
                    counterDelta(aegis::obs::processTotals(), before));
                stack_s += traced.stackS;
                sim_s += traced.simS;
                faults_recovered += traced.faultsRecovered;
                page_life_ms.insert(page_life_ms.end(),
                                    traced.pageLifeMs.begin(),
                                    traced.pageLifeMs.end());

                if (own_outputs != entry.outputs)
                    fail(op, seed, "own per-life path differs from the "
                                   "entry point: " + own_outputs);
                else if (traced.outputs != entry.outputs)
                    fail(op, seed, "traced run differs from the entry "
                                   "point: " + traced.outputs);
            });
        }
    }

    const auto count = [](const aegis::obs::Metrics &m, Counter c) {
        return static_cast<double>(m.counter(c));
    };
    const auto family = [](const auto &arr, Family f) {
        return arr[static_cast<std::size_t>(f)];
    };
    const double arrivals = count(traced_counters, Counter::FaultArrivals);
    const double loop_self =
        mc ? sim_s - times.drawS - times.trackerS() : 0.0;
    const double requests = count(traced_counters, Counter::TimingReads) +
                            count(traced_counters, Counter::TimingWrites);
    const double timing_self = mc ? 0.0 : sim_s - times.writeS;
    const bool page = w.kind == Kind::Page;

    return {
        {"pcm.cells_drawn", static_cast<double>(times.cellsDrawn)},
        {"pcm.draw_s", times.drawS},
        {"sim.block.lives", count(traced_counters, Counter::BlockLives)},
        {"sim.block.arrivals", arrivals},
        {"sim.block.loop_self_s", loop_self},
        {"sim.block.ns_per_arrival",
         arrivals > 0 ? loop_self / arrivals * 1e9 : 0.0},
        {"tracker.make.calls",
         static_cast<double>(times.calls[LayerTimes::Make])},
        {"tracker.on_fault.calls",
         static_cast<double>(times.calls[LayerTimes::OnFault])},
        {"tracker.wfp.calls",
         static_cast<double>(times.calls[LayerTimes::Wfp])},
        {"tracker.amplified.calls",
         static_cast<double>(times.calls[LayerTimes::Amplified])},
        {"tracker.make_s", times.callS[LayerTimes::Make]},
        {"tracker.on_fault_s", times.callS[LayerTimes::OnFault]},
        {"tracker.wfp_s", times.callS[LayerTimes::Wfp]},
        {"tracker.amplified_s", times.callS[LayerTimes::Amplified]},
        {"tracker.ecp_s", family(times.trackerFamilyS, Family::Ecp)},
        {"tracker.safer_s", family(times.trackerFamilyS, Family::Safer)},
        {"tracker.rdis_s", family(times.trackerFamilyS, Family::Rdis)},
        {"tracker.aegis_s", family(times.trackerFamilyS, Family::Aegis)},
        {"tracker.aegis_rw_s",
         family(times.trackerFamilyS, Family::AegisRw)},
        {"tracker.aegis_rw_p_s",
         family(times.trackerFamilyS, Family::AegisRwP)},
        {"tracker.labelings_sampled",
         count(study_counters, Counter::LabelingsSampled)},
        {"rdis.solves", count(study_counters, Counter::RdisSolves)},
        {"aegis.slope_repartitions",
         count(study_counters, Counter::AegisRepartitions)},
        {"safer.repartitions",
         count(study_counters, Counter::SaferRepartitions)},
        {"sim.page.lives", count(traced_counters, Counter::PageLives)},
        {"sim.page.faults_recovered",
         static_cast<double>(faults_recovered)},
        {"sim.page.useful_arrival_ratio",
         page && arrivals > 0
             ? static_cast<double>(faults_recovered) / arrivals
             : 0.0},
        {"sim.page.life_ms_p50", percentile(page_life_ms, 0.50)},
        {"sim.page.life_ms_p90", percentile(page_life_ms, 0.90)},
        {"scheme.write.calls", static_cast<double>(times.writes)},
        {"scheme.write_s", times.writeS},
        {"scheme.write_ns_p50", percentile(times.writeNs, 0.50)},
        {"scheme.write_ns_p99", percentile(times.writeNs, 0.99)},
        {"scheme.none.write_s", family(times.writeFamilyS, Family::None)},
        {"scheme.ecp.write_s", family(times.writeFamilyS, Family::Ecp)},
        {"scheme.safer.write_s", family(times.writeFamilyS, Family::Safer)},
        {"scheme.aegis.write_s", family(times.writeFamilyS, Family::Aegis)},
        {"scheme.program_passes",
         count(traced_counters, Counter::ProgramPasses)},
        {"scheme.verify_mismatches",
         count(traced_counters, Counter::VerifyMismatches)},
        {"pcm.diff_writes", count(traced_counters, Counter::DiffWrites)},
        {"pcm.diff_bits_flipped",
         count(traced_counters, Counter::DiffBitsFlipped)},
        {"timing.self_s", timing_self},
        {"timing.ns_per_request",
         requests > 0 ? timing_self / requests * 1e9 : 0.0},
        {"timing.reads", count(traced_counters, Counter::TimingReads)},
        {"timing.writes", count(traced_counters, Counter::TimingWrites)},
        {"timing.verify_reads",
         count(traced_counters, Counter::TimingVerifyReads)},
        {"trace.rounds", static_cast<double>(rounds)},
        {"trace.host_s", traced_s},
        {"trace.overhead_s", traced_s - (mc ? own_s : entry_s)},
        {"trace.path_delta_s", mc ? own_s - entry_s : 0.0},
        {"trace.stack_s", stack_s},
        {"trace.unattributed_s", traced_s - stack_s - sim_s},
    };
}

/** Unit of a metric, from its name's suffix. */
const char *
unitOf(const std::string &name)
{
    const auto ends = [&](const char *suffix) {
        const std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    if (name == "items_per_s")
        return "1/s";
    if (name == "peak_rss_mb")
        return "MB";
    if (ends("_ratio"))
        return "ratio";
    if (ends("_s"))
        return "s";
    if (name.find("_ms_") != std::string::npos)
        return "ms";
    if (name.find("_ns_") != std::string::npos || ends("ns_per_arrival") ||
        ends("ns_per_request"))
        return "ns";
    return "count";
}

void
printResult(const Runner &r, const std::map<std::string, double> &metrics)
{
    std::string json = "{\"correct\": ";
    json += r.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted) +
            ", \"failed\": " + std::to_string(r.failed) +
            ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : metrics) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + unitOf(name) + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        aegis::obs::setProgressEnabled(false);
        const Workload &w = workloadByName(args.workload);

        if (!args.pin.empty()) {
            std::ofstream out(args.pin);
            out << pinGoldens(w);
            if (!out.flush())
                throw std::runtime_error("cannot write `" + args.pin + "'");
            return 0;
        }

        const Goldens goldens = loadGoldens(args.goldens);
        Runner runner(w, args);
        runner.goldenPass(goldens);
        const std::map<std::string, double> metrics =
            args.trace == 0 ? runner.endToEnd() : runner.perLayer();
        runner.printAttribution();
        printResult(runner, metrics);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
