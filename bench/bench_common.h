/**
 * @file
 * Shared plumbing for the figure-reproduction benchmark binaries.
 *
 * Every bench accepts the same Monte-Carlo flags and prints a table
 * with a "paper" column (where §3 of the paper quotes a number) next
 * to the measured value. Absolute agreement is not expected — the
 * paper ran 2048 pages, we default to fewer for speed — but ordering,
 * ratios and crossovers should match (EXPERIMENTS.md records both).
 *
 * BenchRunner adds the observability surface every bench shares:
 * --json writes a schema-versioned run manifest, --quiet silences the
 * progress/ETA reports, --trace-timers records scoped wall-clock
 * timers (with log2-bucket percentile estimates), --trace-out writes
 * a Perfetto-loadable event trace on simulated time, --timeseries
 * embeds deterministic telemetry series in the manifest. Flags are
 * declared as FlagSpec tables (util/cli.h), so each
 * binary's surface is one readable table and --help is generated from
 * the same source of truth.
 * The study wrappers (pageStudy/blockStudy/memorySurvival) and emit()
 * feed the active runner, so a bench body needs no manifest plumbing
 * of its own.
 */

#ifndef AEGIS_BENCH_BENCH_COMMON_H
#define AEGIS_BENCH_BENCH_COMMON_H

#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "aegis/factory.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"
#include "sim/checkpoint.h"
#include "sim/experiment.h"
#include "sim/workload.h"
#include "util/atomic_file.h"
#include "util/cancel.h"
#include "util/chaos.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/serialize.h"
#include "util/table_printer.h"

namespace aegis::bench {

/** The flags shared by all Monte-Carlo figure benches. */
inline constexpr FlagSpec kCommonFlagSpecs[] = {
    {"pages", FlagKind::Uint, "64",
     "4KB pages per Monte-Carlo run (paper: 2048 = 8MB)"},
    {"blocks", FlagKind::Uint, "512", "blocks for block-level studies"},
    {"seed", FlagKind::Uint, "1", "master random seed"},
    {"lifetime-mean", FlagKind::Double, "1e8",
     "mean cell lifetime in writes"},
    {"lifetime-cv", FlagKind::Double, "0.25",
     "lifetime coefficient of variation"},
    {"lifetime-kind", FlagKind::String, "normal",
     "lifetime distribution: normal|lognormal|weibull|uniform"},
    {"labelings", FlagKind::Uint, "256",
     "W/R labeling samples for data-dependent schemes"},
    {"csv", FlagKind::Bool, "false",
     "emit CSV instead of aligned tables"},
    {"audit", FlagKind::Bool, "false",
     "wrap every scheme in the runtime invariant auditor (slow; "
     "aborts on the first violation)"},
    {"timeseries", FlagKind::Bool, "false",
     "record a per-chunk telemetry row grid in the manifest's "
     "timeseries section (jobs-invariant except the wall_ms column)"},
    {"jobs", FlagKind::Uint, "0",
     "Monte-Carlo worker threads (0 = one per hardware thread); "
     "output is identical for every value"},
};

/** The flags shared by the timed latency benches (bench/latency_*):
 *  workload shape plus the controller's timing-model knobs. */
inline constexpr FlagSpec kTimedFlagSpecs[] = {
    {"schemes", FlagKind::String, "none,ecp6,safer64-cache,aegis-9x61",
     "comma-separated schemes to simulate"},
    {"trace", FlagKind::String, "uniform",
     "request stream: uniform|sequential|hotcold:<f>:<t>|"
     "zipfian[:<theta>]|file:<path>"},
    {"pages", FlagKind::Uint, "16", "4KB pages the trace covers"},
    {"writes", FlagKind::Uint, "2000",
     "write requests to retire per scheme"},
    {"read-fraction", FlagKind::Double, "0.5",
     "fraction of synthetic requests that read"},
    {"arrival-gap", FlagKind::Uint, "40",
     "ticks between synthetic request arrivals"},
    {"seed", FlagKind::Uint, "1", "master random seed"},
    {"banks", FlagKind::Uint, "8", "independent memory banks"},
    {"queue-depth", FlagKind::Uint, "32",
     "per-bank, per-class request queue depth"},
    {"t-read", FlagKind::Uint, "50", "array read latency, ticks"},
    {"t-program", FlagKind::Uint, "500",
     "one program pulse of program-and-verify, ticks"},
    {"t-verify", FlagKind::Uint, "50",
     "one in-loop verification read, ticks"},
    {"csv", FlagKind::Bool, "false",
     "emit CSV instead of aligned tables"},
    {"timeline-interval", FlagKind::Uint, "2000",
     "sim-tick interval between timeseries samples when --timeseries "
     "is on (0 disables sampling)"},
    {"timeseries", FlagKind::Bool, "false",
     "record each simulation's sampled controller totals in the "
     "manifest's timeseries section (bit-identical across --jobs)"},
    {"jobs", FlagKind::Uint, "0",
     "scheme-level worker threads (0 = one per hardware thread); "
     "output is identical for every value"},
};

/** The observability/robustness flags every BenchRunner registers. */
inline constexpr FlagSpec kRunnerFlagSpecs[] = {
    {"json", FlagKind::String, "",
     "write a JSON run manifest to this path"},
    {"quiet", FlagKind::Bool, "false",
     "suppress progress/ETA reports on stderr"},
    {"trace-timers", FlagKind::Bool, "false",
     "record scoped wall-clock timers (scheme read/write/recover, "
     "block/page lives) in the manifest"},
    {"checkpoint", FlagKind::String, "",
     "periodically snapshot sweep state to this path (atomic "
     "replace; resumable with --resume)"},
    {"resume", FlagKind::Bool, "false",
     "restore prior progress from the --checkpoint file; the "
     "resumed run is bit-identical to an uninterrupted one"},
    {"checkpoint-every", FlagKind::Uint, "8",
     "snapshot cadence in finished chunks (0 = only at sweep "
     "boundaries)"},
    {"deadline", FlagKind::Double, "0",
     "cancel gracefully after this many seconds of wall clock "
     "(0 = none); a cancelled run exits 124 and can be resumed"},
    {"trace-out", FlagKind::String, "",
     "write a Chrome trace-event JSON file (Perfetto-loadable) of "
     "the run's simulated-time events to this path"},
    {"trace-capacity", FlagKind::Uint, "65536",
     "event-trace ring capacity per track; past it events are "
     "dropped and counted"},
};

/** Register the flags shared by all figure benches. */
inline void
addCommonFlags(CliParser &cli)
{
    cli.addAll(kCommonFlagSpecs);
}

/** Build the experiment config implied by the parsed flags. */
inline sim::ExperimentConfig
configFrom(const CliParser &cli, std::uint32_t block_bits)
{
    sim::ExperimentConfig cfg;
    cfg.blockBits = block_bits;
    cfg.pages = static_cast<std::uint32_t>(cli.getUint("pages"));
    cfg.seed = cli.getUint("seed");
    cfg.lifetimeKind = cli.getString("lifetime-kind");
    cfg.lifetimeMean = cli.getDouble("lifetime-mean");
    cfg.lifetimeParam = cli.getDouble("lifetime-cv");
    cfg.tracker.labelingSamples =
        static_cast<std::uint32_t>(cli.getUint("labelings"));
    cfg.audit = cli.getBool("audit");
    cfg.jobs = static_cast<std::uint32_t>(cli.getUint("jobs"));
    return cfg;
}

/**
 * Structured factory spec for a scheme honouring --audit, for benches
 * that build schemes directly instead of through an ExperimentConfig.
 */
inline core::SchemeSpec
schemeSpec(const CliParser &cli, const std::string &name)
{
    core::SchemeSpec spec = core::SchemeSpec::parse(name);
    spec.audit = spec.audit || cli.getBool("audit");
    return spec;
}

/**
 * The leading table cells every per-scheme row shares: the scheme
 * label and its overhead-bit budget.
 */
inline std::vector<std::string>
studyCells(const sim::StudyResult &study)
{
    return {study.scheme, std::to_string(study.overheadBits)};
}

/** An ExperimentConfig as a manifest "configs" entry. */
inline obs::JsonObject
configJson(const sim::ExperimentConfig &cfg)
{
    using obs::JsonValue;
    obs::JsonObject o;
    o.emplace_back("scheme", JsonValue::str(cfg.scheme));
    o.emplace_back("blockBits", JsonValue::uint(cfg.blockBits));
    o.emplace_back("pageBytes", JsonValue::uint(cfg.pageBytes));
    o.emplace_back("pages", JsonValue::uint(cfg.pages));
    o.emplace_back("seed", JsonValue::uint(cfg.seed));
    o.emplace_back("lifetimeKind", JsonValue::str(cfg.lifetimeKind));
    o.emplace_back("lifetimeMean", JsonValue::real(cfg.lifetimeMean));
    o.emplace_back("lifetimeParam", JsonValue::real(cfg.lifetimeParam));
    o.emplace_back("wearBaseRate", JsonValue::real(cfg.wear.baseRate));
    o.emplace_back("wearAmplifiedExtra",
                   JsonValue::real(cfg.wear.amplifiedExtra));
    o.emplace_back("labelingSamples",
                   JsonValue::uint(cfg.tracker.labelingSamples));
    o.emplace_back("audit", JsonValue::boolean(cfg.audit));
    o.emplace_back("jobs", JsonValue::uint(cfg.jobs));
    return o;
}

/** A parsed flag as its natural JSON type. */
inline obs::JsonValue
flagJson(const CliParser::FlagValue &f)
{
    switch (f.kind) {
    case CliParser::FlagKind::Uint:
        return obs::JsonValue::uint(std::stoull(f.value));
    case CliParser::FlagKind::Double:
        return obs::JsonValue::real(std::stod(f.value));
    case CliParser::FlagKind::Bool:
        return obs::JsonValue::boolean(f.value == "true" ||
                                       f.value == "1" ||
                                       f.value == "yes");
    case CliParser::FlagKind::String:
        break;
    }
    return obs::JsonValue::str(f.value);
}

/**
 * One bench invocation: flag registration, progress/trace switches,
 * phase timing and the JSON run manifest.
 *
 * Exactly one instance exists per bench process; it registers itself
 * so the free helpers below (emit(), pageStudy(), ...) can feed the
 * manifest without every call site carrying a runner reference.
 */
class BenchRunner
{
  public:
    enum class Flags {
        MonteCarlo, ///< full Monte-Carlo flag set (kCommonFlagSpecs)
        Timed,      ///< latency benches: workload + timing model knobs
        Minimal     ///< analytic benches: --csv only
    };

    BenchRunner(const std::string &program, const std::string &about,
                Flags flag_set = Flags::MonteCarlo)
        : cliParser(program, about), record(program, about),
          flagSet(flag_set), programName(program)
    {
        static constexpr FlagSpec kCsvOnly[] = {
            {"csv", FlagKind::Bool, "false",
             "emit CSV instead of aligned tables"},
        };
        switch (flagSet) {
        case Flags::MonteCarlo:
            cliParser.addAll(kCommonFlagSpecs);
            break;
        case Flags::Timed:
            cliParser.addAll(kTimedFlagSpecs);
            break;
        case Flags::Minimal:
            cliParser.addAll(kCsvOnly);
            break;
        }
        cliParser.addAll(kRunnerFlagSpecs);
        AEGIS_REQUIRE(current_ == nullptr,
                      "one BenchRunner per process");
        current_ = this;
    }

    ~BenchRunner() { current_ = nullptr; }

    BenchRunner(const BenchRunner &) = delete;
    BenchRunner &operator=(const BenchRunner &) = delete;

    CliParser &cli() { return cliParser; }
    const CliParser &cli() const { return cliParser; }

    /** The manifest under construction, for bench-specific extras. */
    obs::Manifest &manifest() { return record; }

    /**
     * Close the open phase (recording its wall-clock) and open a new
     * one. A bench that never calls this gets a single "run" phase
     * spanning the whole body.
     */
    void
    phase(const std::string &name)
    {
        closePhase();
        phaseName = name;
        phaseStart = std::chrono::steady_clock::now();
        phaseOpen = true;
    }

    /** Record one experiment configuration (duplicates skipped). */
    void
    noteConfig(const sim::ExperimentConfig &cfg)
    {
        record.addConfig(configJson(cfg));
    }

    /** Record a printed table's cells verbatim. */
    void noteTable(const TablePrinter &table) { record.addTable(table); }

    /**
     * Parse flags, run @p body, then finalize/write the manifest.
     *
     * Exit codes: 0 success, 1 runtime/configuration error, 2 usage
     * error (bad flags, rejected before any work), 130/124/3 when the
     * sweep was cancelled by a signal / the --deadline watchdog / an
     * injected cancellation (the manifest is still written, marked
     * "status": "partial", and a final checkpoint is saved).
     */
    template <typename Fn>
    int
    run(int argc, const char *const *argv, Fn body)
    {
        const Expected<CliParser::ParseResult> parsed =
            cliParser.tryParse(argc, argv);
        if (!parsed.ok()) {
            std::cerr << "error: " << parsed.error() << "\n";
            return 2;
        }
        if (parsed.value() == CliParser::ParseResult::Help)
            return 0;
        if (flagSet != Flags::Minimal && cliParser.isSet("jobs") &&
            cliParser.getUint("jobs") == 0) {
            std::cerr << "error: --jobs must be at least 1 (omit the "
                         "flag for one worker per hardware thread)\n";
            return 2;
        }
        if (cliParser.getBool("resume") &&
            cliParser.getString("checkpoint").empty()) {
            std::cerr << "error: --resume requires --checkpoint "
                         "<path>\n";
            return 2;
        }

        try {
            obs::setProgressEnabled(!cliParser.getBool("quiet"));
            obs::setTracingEnabled(cliParser.getBool("trace-timers"));
            (void)chaosConfig(); // malformed AEGIS_CHAOS fails here

            // Fail fast on unwritable output paths: a sweep must not
            // run for hours only to lose its results at the end.
            const std::string jsonPath = cliParser.getString("json");
            if (!jsonPath.empty()) {
                const Status w = probeWritable(jsonPath);
                AEGIS_REQUIRE(w.ok(), "--json path is not writable: " +
                                          w.error());
            }
            const std::string tracePath =
                cliParser.getString("trace-out");
            if (!tracePath.empty()) {
                const Status w = probeWritable(tracePath);
                AEGIS_REQUIRE(w.ok(),
                              "--trace-out path is not writable: " +
                                  w.error());
                obs::armTraceSink(static_cast<std::size_t>(
                    cliParser.getUint("trace-capacity")));
            }
            if (flagSet != Flags::Minimal &&
                cliParser.getBool("timeseries"))
                obs::armTimeline();

            CancelToken &cancel = processCancelToken();
            installSignalCancellation();
            const double deadline = cliParser.getDouble("deadline");
            if (deadline > 0)
                cancel.setDeadlineAfter(deadline);

            const std::string ckptPath =
                cliParser.getString("checkpoint");
            if (!ckptPath.empty()) {
                const Status w = probeWritable(ckptPath);
                AEGIS_REQUIRE(w.ok(),
                              "--checkpoint path is not writable: " +
                                  w.error());
                session = std::make_unique<sim::CheckpointSession>(
                    ckptPath, programName, flagsFingerprint(),
                    masterSeed());
                session->setSnapshotEveryChunks(
                    static_cast<std::uint32_t>(
                        cliParser.getUint("checkpoint-every")));
                if (cliParser.getBool("resume")) {
                    const Status r = session->resume();
                    AEGIS_REQUIRE(r.ok(), r.error());
                }
            }

            const sim::ScopedRunContext scope(
                sim::RunContext{session.get(), &cancel});
            runStart = std::chrono::steady_clock::now();
            body();
            finish("complete");
            return 0;
        } catch (const CancelledError &ex) {
            obs::progressLine(std::string(programName) + ": " +
                              cancelOutcomeLabel(ex.reason()) +
                              (session != nullptr
                                   ? "; progress saved to `" +
                                         session->path() +
                                         "' (rerun with --resume)"
                                   : ""));
            try {
                finish("partial");
            } catch (const std::exception &nested) {
                std::cerr << "error: " << nested.what() << "\n";
                return 1;
            }
            return cancelExitCode(ex.reason());
        } catch (const std::exception &ex) {
            std::cerr << "error: " << ex.what() << "\n";
            return 1;
        }
    }

    /** The active runner, or nullptr outside BenchRunner::run. */
    static BenchRunner *current() { return current_; }

  private:
    void
    closePhase()
    {
        if (!phaseOpen)
            return;
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - phaseStart;
        record.addPhase(phaseName, dt.count());
        ++phasesRecorded;
        phaseOpen = false;
    }

    /** The master seed a checkpoint must match (0 for analytic
     *  benches, which have no seed flag). */
    std::uint64_t
    masterSeed() const
    {
        return flagSet != Flags::Minimal ? cliParser.getUint("seed")
                                         : 0;
    }

    /**
     * Fingerprint of the result-affecting flags, recorded in
     * checkpoints so a resume under different parameters is rejected.
     * Output/robustness flags are excluded — resuming with a
     * different --jobs, --json path, cadence or deadline is exactly
     * the point — and --seed is excluded because the session checks
     * it separately (with a friendlier message).
     */
    std::uint64_t
    flagsFingerprint() const
    {
        static constexpr std::string_view excluded[] = {
            "seed",       "jobs",   "json",
            "quiet",      "trace-timers", "csv",
            "checkpoint", "resume", "checkpoint-every",
            "deadline",   "trace-out", "trace-capacity",
            "timeseries", "timeline-interval"};
        BinaryWriter w;
        for (const CliParser::FlagValue &f : cliParser.values()) {
            bool skip = false;
            for (const std::string_view name : excluded)
                skip = skip || f.name == name;
            if (skip)
                continue;
            w.str(f.name);
            w.str(f.value);
        }
        return fnv1a64(w.data());
    }

    void
    finish(const std::string &status)
    {
        closePhase();
        if (phasesRecorded == 0) {
            const std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - runStart;
            record.addPhase("run", dt.count());
        }
        record.setStatus(status);
        for (const CliParser::FlagValue &f : cliParser.values()) {
            if (f.name == "seed" && f.kind == CliParser::FlagKind::Uint)
                record.setSeed(std::stoull(f.value));
            record.addFlag(f.name, flagJson(f));
        }
        // Work restored from a checkpoint ran in an earlier process;
        // folding its recorded metrics back in keeps a resumed run's
        // counters byte-equal to an uninterrupted run's.
        obs::Metrics totals = obs::processTotals();
        if (session != nullptr)
            totals.merge(session->restoredMetrics());
        record.setMetrics(totals);
        record.setTimerQuantiles(obs::scopeQuantileEstimates());
        // Harvest the Monte-Carlo chunk recorder's series; the timed
        // benches add their per-cell series directly via manifest().
        for (obs::TimeSeries &ts : obs::takeTimelines())
            record.addTimeSeries(std::move(ts));
        obs::disarmTimeline();
        const std::string &path = cliParser.getString("json");
        if (!path.empty())
            record.writeFile(path);
        const std::string &tracePath = cliParser.getString("trace-out");
        if (!tracePath.empty()) {
            const obs::TraceSinkStats stats = obs::traceSinkStats();
            obs::writeTraceFile(tracePath);
            obs::disarmTraceSink();
            if (stats.dropped > 0)
                obs::progressLine(
                    std::string(programName) + ": trace ring full, " +
                    std::to_string(stats.dropped) +
                    " events dropped (raise --trace-capacity)");
        }
    }

    static inline BenchRunner *current_ = nullptr;

    CliParser cliParser;
    obs::Manifest record;
    Flags flagSet;
    std::string programName;
    std::unique_ptr<sim::CheckpointSession> session;
    std::chrono::steady_clock::time_point runStart{};
    std::chrono::steady_clock::time_point phaseStart{};
    std::string phaseName;
    bool phaseOpen = false;
    std::size_t phasesRecorded = 0;
};

/** Print @p table as text or CSV per the --csv flag, and record its
 *  cells in the active runner's manifest. */
inline void
emit(const TablePrinter &table, const CliParser &cli)
{
    if (BenchRunner::current() != nullptr)
        BenchRunner::current()->noteTable(table);
    if (cli.getBool("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\n";
}

/** runPageStudy, recording @p cfg in the active runner's manifest. */
inline sim::PageStudy
pageStudy(const sim::ExperimentConfig &cfg)
{
    if (BenchRunner::current() != nullptr)
        BenchRunner::current()->noteConfig(cfg);
    return sim::runPageStudy(cfg);
}

/** runBlockStudy, recording @p cfg in the active runner's manifest. */
inline sim::BlockStudy
blockStudy(const sim::ExperimentConfig &cfg, std::uint32_t blocks)
{
    if (BenchRunner::current() != nullptr)
        BenchRunner::current()->noteConfig(cfg);
    return sim::runBlockStudy(cfg, blocks);
}

/** runMemorySurvival, recording @p cfg in the manifest. */
inline SurvivalCurve
memorySurvival(const sim::ExperimentConfig &cfg,
               const sim::Workload &workload)
{
    if (BenchRunner::current() != nullptr)
        BenchRunner::current()->noteConfig(cfg);
    return sim::runMemorySurvival(cfg, workload);
}

/** Wrap main-body logic with uniform error reporting: usage errors
 *  exit 2 before any work runs, runtime errors exit 1. */
template <typename Fn>
int
runBench(int argc, const char *const *argv, CliParser &cli, Fn body)
{
    const Expected<CliParser::ParseResult> parsed =
        cli.tryParse(argc, argv);
    if (!parsed.ok()) {
        std::cerr << "error: " << parsed.error() << "\n";
        return 2;
    }
    if (parsed.value() == CliParser::ParseResult::Help)
        return 0;
    try {
        body();
        return 0;
    } catch (const std::exception &ex) {
        std::cerr << "error: " << ex.what() << "\n";
        return 1;
    }
}

/** A paper-quoted reference value, or "-" when the text gives none. */
inline std::string
paperRef(double value)
{
    return value > 0 ? TablePrinter::num(value, 0) : "-";
}

} // namespace aegis::bench

#endif // AEGIS_BENCH_BENCH_COMMON_H
