/**
 * @file
 * Schema-versioned JSON run manifests: one machine-readable record
 * per bench invocation (config, seed, build provenance, per-phase
 * wall-clock, every metric, and the exact cells of every printed
 * table). tools/manifest_schema.json describes the format;
 * kSchemaVersion must be bumped on any breaking change.
 */

#ifndef AEGIS_OBS_MANIFEST_H
#define AEGIS_OBS_MANIFEST_H

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/build_info.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

namespace aegis {
class TablePrinter;
} // namespace aegis

namespace aegis::obs {

/** Ordered key/value list — JSON object with deterministic order. */
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

/** Accumulates one bench run's record and serializes it to JSON. */
class Manifest
{
  public:
    static constexpr int kSchemaVersion = 6;
    static constexpr std::string_view kSchemaName =
        "aegis-bench-manifest";

    /** @p program is the bench binary name, @p about its one-liner. */
    Manifest(std::string program, std::string about);

    /** Override build provenance (defaults to currentBuildInfo()). */
    void setBuildInfo(BuildInfo info);

    /** Pin the timestamp (defaults to wall clock at construction);
     *  golden tests use this for byte-exact output. */
    void setTimestampUtc(std::string iso8601);

    /** Record the master seed. */
    void setSeed(std::uint64_t master_seed);

    /**
     * Outcome of the run: "complete" (default) or "partial" — the
     * sweep was cancelled (signal/deadline) and the manifest records
     * only the work finished before the cancellation.
     */
    void setStatus(std::string value);

    /** Record one parsed flag value (insertion order preserved). */
    void addFlag(const std::string &name, JsonValue v);

    /** Record one experiment configuration (duplicates skipped). */
    void addConfig(JsonObject config);

    /** Record one timed phase of the run. */
    void addPhase(const std::string &name, double seconds);

    /** Capture @p table's title/header/cells verbatim, so the JSON can
     *  never diverge from what was printed. */
    void addTable(const TablePrinter &table);

    /** Set the metric snapshot embedded in the manifest (typically
     *  obs::processTotals() at the end of the run). */
    void setMetrics(const Metrics &m);

    /** Set the per-scope latency percentile estimates written next to
     *  each timer (typically obs::scopeQuantileEstimates()). Written
     *  as zeros when never set. */
    void setTimerQuantiles(
        const std::array<ScopeQuantiles, kScopeCount> &q);

    /** Append one telemetry series to the `timeseries` section. */
    void addTimeSeries(TimeSeries series);

    /** Serialize the manifest as pretty-printed JSON. */
    void write(std::ostream &os) const;

    /** write() into a string. */
    std::string toJson() const;

    /** write() into @p path (ConfigError on I/O failure). */
    void writeFile(const std::string &path) const;

  private:
    struct TableData
    {
        std::string title;
        std::vector<std::string> header;
        std::vector<std::vector<std::string>> rows;
    };

    std::string program;
    std::string description;
    std::string status = "complete";
    std::string timestampUtc;
    BuildInfo build;
    std::uint64_t seed = 0;
    std::vector<std::pair<std::string, JsonValue>> flags;
    std::vector<JsonObject> configs;
    std::vector<std::pair<std::string, double>> phases;
    std::vector<TableData> tables;
    Metrics metrics;
    std::array<ScopeQuantiles, kScopeCount> timerQuantiles{};
    std::vector<TimeSeries> timeseries;
};

} // namespace aegis::obs

#endif // AEGIS_OBS_MANIFEST_H
