#include "workloads.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "aegis/factory.h"
#include "util/serialize.h"

namespace perfbench {

namespace sim = aegis::sim;

namespace {

std::vector<Workload>
buildWorkloads()
{
    // Figure 5: the paper's schemes at both block sizes, under the
    // paper lifetime model. Every page-level figure runs this path.
    Workload fig5{"page-fig5", Kind::Page, {}, 4};
    for (const std::uint32_t bits : {512u, 256u})
        for (const std::string &name : aegis::core::paperSchemeNames(bits))
            fig5.ops.push_back({name + "@" + std::to_string(bits), name,
                                bits, 0.0});

    // Figure 10: the Aegis-rw-p pointer sweep plus its Aegis-rw plateau
    // for every formation; labeling sampling dominates and neither RDIS
    // nor SAFER runs.
    Workload fig10{"block-fig10", Kind::Block, {}, 16};
    for (const char *formation : {"23x23", "17x31", "9x61", "8x71"}) {
        for (int p = 1; p <= 15; p += 2) {
            const std::string name = "aegis-rw-p" + std::to_string(p) +
                                     "-" + formation;
            fig10.ops.push_back({name + "@512", name, 512, 0.0});
        }
        const std::string rw = std::string("aegis-rw-") + formation;
        fig10.ops.push_back({rw + "@512", rw, 512, 0.0});
    }

    // The functional write path under the controller, with reads beside
    // writes. Cache-less schemes only: see NOTES.md for why the
    // fail-cache schemes are left out.
    Workload timed{"timed-write", Kind::Latency, {}, 40000};
    for (const char *name : {"none", "ecp6", "safer64", "aegis-9x61"})
        for (const double rate : {0.0, 20.0})
            timed.ops.push_back(
                {std::string(name) + "@" +
                     std::to_string(static_cast<int>(rate)) + "/kw",
                 name, 512, rate});

    return {fig5, fig10, timed};
}

std::string
hex(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** Count, p50, p99 and an FNV-1a digest of every (key, count) bin. */
std::string
histogramDigest(const aegis::Histogram &h)
{
    std::string bins;
    for (const auto &[key, count] : h.items())
        bins += std::to_string(key) + ":" + std::to_string(count) + ",";
    char buf[128];
    std::snprintf(buf, sizeof buf, "%" PRIu64 "/%" PRId64 "/%" PRId64
                  "/%016" PRIx64,
                  h.total(), h.total() ? h.quantileKey(0.5) : 0,
                  h.total() ? h.quantileKey(0.99) : 0,
                  aegis::fnv1a64(bins));
    return buf;
}

void
require(bool ok, const Op &op, const char *what)
{
    if (!ok)
        throw std::runtime_error(op.label + ": " + what);
}

bool
finitePositive(double v)
{
    return std::isfinite(v) && v > 0.0;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = buildWorkloads();
    return all;
}

const Workload &
workloadByName(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return w;
    throw std::invalid_argument("unknown workload `" + name + "'");
}

Family
familyOf(const std::string &scheme)
{
    const auto starts = [&](const char *prefix) {
        return scheme.rfind(prefix, 0) == 0;
    };
    if (starts("aegis-rw-p"))
        return Family::AegisRwP;
    if (starts("aegis-rw-"))
        return Family::AegisRw;
    if (starts("aegis-"))
        return Family::Aegis;
    if (starts("safer"))
        return Family::Safer;
    if (starts("rdis"))
        return Family::Rdis;
    if (starts("ecp"))
        return Family::Ecp;
    if (starts("none"))
        return Family::None;
    return Family::Other;
}

sim::ExperimentConfig
experimentConfig(const Workload &w, const Op &op, std::uint64_t seed)
{
    sim::ExperimentConfig cfg;
    cfg.scheme = op.scheme;
    cfg.blockBits = op.blockBits;
    cfg.pages = w.items;
    cfg.seed = seed;
    cfg.jobs = 1;
    return cfg;
}

sim::timing::LatencySimConfig
latencyConfig(const Workload &w, const Op &op)
{
    // The latency benches' defaults: 16 pages, half reads, a request
    // every 40 ticks.
    sim::timing::LatencySimConfig cfg;
    cfg.traceSpec = "uniform";
    cfg.shape.pages = 16;
    cfg.shape.blockBits = op.blockBits;
    cfg.shape.readFraction = 0.5;
    cfg.shape.arrivalGap = 40;
    cfg.writes = w.items;
    cfg.faultsPerKwrite = op.faultsPerKwrite;
    return cfg;
}

std::string
outputsOf(const sim::PageStudy &study)
{
    return "pages=" + std::to_string(study.pageLifetime.count()) +
           " recoverable_mean=" + hex(study.recoverableFaults.mean()) +
           " lifetime_mean=" + hex(study.pageLifetime.mean());
}

std::string
outputsOf(const sim::BlockStudy &study)
{
    std::string fad;
    for (const auto &[faults, count] : study.faultsAtDeath.items()) {
        if (!fad.empty())
            fad += ',';
        fad += std::to_string(faults);
        fad += ':';
        fad += std::to_string(count);
    }
    return "blocks=" + std::to_string(study.blockLifetime.count()) +
           " lifetime_mean=" + hex(study.blockLifetime.mean()) +
           " faults_at_death=" + fad;
}

std::string
outputsOf(const sim::timing::LatencySimResult &r)
{
    const sim::timing::ControllerTotals &t = r.totals;
    std::ostringstream o;
    o << "read_latency=" << histogramDigest(r.readLatency)
      << " write_latency=" << histogramDigest(r.writeLatency)
      << " totals=" << t.reads << "," << t.writes << ","
      << t.programPasses << "," << t.verifyReads << ","
      << t.failCacheLookups << "," << t.failCacheUpdates << ","
      << t.repartitionStalls << "," << t.rowMisses
      << " injected=" << r.faultsInjected << " dead=" << r.deadBlocks
      << " failed_writes=" << r.failedWrites;
    return o.str();
}

aegis::obs::Metrics
counterDelta(const aegis::obs::Metrics &after,
             const aegis::obs::Metrics &before)
{
    aegis::obs::Metrics d;
    for (std::size_t i = 0; i < d.counters.size(); ++i)
        d.counters[i] = after.counters[i] - before.counters[i];
    return d;
}

OpResult
runOp(const Workload &w, const Op &op, std::uint64_t seed)
{
    using aegis::obs::Counter;
    OpResult out;
    switch (w.kind) {
    case Kind::Page: {
        const sim::PageStudy s =
            sim::runPageStudy(experimentConfig(w, op, seed));
        require(s.pageLifetime.count() == w.items &&
                    s.recoverableFaults.count() == w.items &&
                    s.survival.population() == w.items &&
                    s.metrics.counter(Counter::PageLives) == w.items,
                op, "page count differs from the pages simulated");
        require(finitePositive(s.pageLifetime.min()) &&
                    std::isfinite(s.pageLifetime.max()),
                op, "page lifetime not finite and positive");
        out.outputs = outputsOf(s);
        out.units = s.pageLifetime.count();
        out.counters = s.metrics;
        break;
    }
    case Kind::Block: {
        const sim::BlockStudy s =
            sim::runBlockStudy(experimentConfig(w, op, seed), w.items);
        require(s.blockLifetime.count() == w.items &&
                    s.faultsAtDeath.total() == w.items &&
                    s.metrics.counter(Counter::BlockLives) == w.items,
                op, "block count differs from the blocks simulated");
        require(finitePositive(s.blockLifetime.min()) &&
                    std::isfinite(s.blockLifetime.max()),
                op, "block lifetime not finite and positive");
        out.outputs = outputsOf(s);
        out.units = s.blockLifetime.count();
        out.counters = s.metrics;
        break;
    }
    case Kind::Latency: {
        const auto proto = aegis::core::makeScheme(op.scheme, op.blockBits);
        const sim::timing::LatencySimConfig cfg = latencyConfig(w, op);
        const aegis::obs::Metrics before = aegis::obs::processTotals();
        const sim::timing::LatencySimResult r =
            sim::timing::runLatencySim(*proto, cfg, aegis::Rng(seed));
        out.counters =
            counterDelta(aegis::obs::processTotals(), before);
        require(r.totals.writes == cfg.writes &&
                    r.writeLatency.total() == r.totals.writes &&
                    r.readLatency.total() == r.totals.reads,
                op, "retired requests differ from the requests issued");
        require(op.faultsPerKwrite > 0.0 ||
                    (r.faultsInjected == 0 && r.deadBlocks == 0 &&
                     r.failedWrites == 0),
                op, "a write failed with no faults injected");
        out.outputs = outputsOf(r);
        out.units = r.totals.reads + r.totals.writes;
        break;
    }
    }
    return out;
}

Goldens
loadGoldens(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read goldens `" + path + "'");
    Goldens g;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t a = line.find(' ');
        const std::size_t b =
            a == std::string::npos ? a : line.find(' ', a + 1);
        if (b == std::string::npos)
            throw std::runtime_error("malformed golden line in `" + path +
                                     "': " + line);
        g[{std::stoull(line.substr(0, a)), line.substr(a + 1, b - a - 1)}] =
            line.substr(b + 1);
    }
    return g;
}

std::string
pinGoldens(const Workload &w)
{
    std::string text = "# " + w.name +
                       ": <seed> <config> <simulated outputs>, pinned by "
                       "`perfbench --pin`\n";
    for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed})
        for (const Op &op : w.ops)
            text += std::to_string(seed) + " " + op.label + " " +
                    runOp(w, op, seed).outputs + "\n";
    return text;
}

} // namespace perfbench
