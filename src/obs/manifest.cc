#include "obs/manifest.h"

#include <ctime>
#include <sstream>

#include "util/atomic_file.h"
#include "util/error.h"
#include "util/table_printer.h"

namespace aegis::obs {

namespace {

std::string
nowUtcIso8601()
{
    const std::time_t t = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&t, &tm);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

void
writeObject(JsonWriter &w, const JsonObject &object)
{
    w.beginObject();
    for (const auto &[k, v] : object)
        w.key(k).value(v);
    w.endObject();
}

std::string
serialized(const JsonObject &object)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    writeObject(w, object);
    return os.str();
}

} // namespace

Manifest::Manifest(std::string program_name, std::string about)
    : program(std::move(program_name)), description(std::move(about)),
      timestampUtc(nowUtcIso8601()), build(currentBuildInfo())
{}

void
Manifest::setBuildInfo(BuildInfo info)
{
    build = std::move(info);
}

void
Manifest::setTimestampUtc(std::string iso8601)
{
    timestampUtc = std::move(iso8601);
}

void
Manifest::setSeed(std::uint64_t master_seed)
{
    seed = master_seed;
}

void
Manifest::setStatus(std::string value)
{
    status = std::move(value);
}

void
Manifest::addFlag(const std::string &name, JsonValue v)
{
    flags.emplace_back(name, std::move(v));
}

void
Manifest::addConfig(JsonObject config)
{
    for (const JsonObject &existing : configs)
        if (serialized(existing) == serialized(config))
            return;
    configs.push_back(std::move(config));
}

void
Manifest::addPhase(const std::string &name, double seconds)
{
    phases.emplace_back(name, seconds);
}

void
Manifest::addTable(const TablePrinter &table)
{
    tables.push_back(
        TableData{table.tableTitle(), table.headerRow(), table.rowData()});
}

void
Manifest::setMetrics(const Metrics &m)
{
    metrics = m;
}

void
Manifest::setTimerQuantiles(
    const std::array<ScopeQuantiles, kScopeCount> &q)
{
    timerQuantiles = q;
}

void
Manifest::addTimeSeries(TimeSeries series)
{
    timeseries.push_back(std::move(series));
}

void
Manifest::write(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.key("schema").value(kSchemaName);
    w.key("schemaVersion")
        .value(static_cast<std::int64_t>(kSchemaVersion));
    w.key("program").value(program);
    w.key("description").value(description);
    w.key("status").value(status);
    w.key("timestampUtc").value(timestampUtc);

    w.key("build").beginObject();
    w.key("gitSha").value(build.gitSha);
    w.key("buildType").value(build.buildType);
    w.key("compiler").value(build.compiler);
    w.key("flags").value(build.flags);
    w.endObject();

    w.key("seed").value(seed);

    w.key("flags").beginObject();
    for (const auto &[name, v] : flags)
        w.key(name).value(v);
    w.endObject();

    w.key("configs").beginArray();
    for (const JsonObject &config : configs)
        writeObject(w, config);
    w.endArray();

    w.key("phases").beginArray();
    for (const auto &[name, seconds] : phases) {
        w.beginObject();
        w.key("name").value(name);
        w.key("seconds").value(seconds);
        w.endObject();
    }
    w.endArray();

    w.key("metrics").beginObject();
    w.key("counters").beginObject();
    for (std::size_t i = 0; i < kCounterCount; ++i)
        w.key(counterName(static_cast<Counter>(i)))
            .value(metrics.counters[i]);
    w.endObject();
    w.key("gauges").beginObject();
    for (std::size_t i = 0; i < kGaugeCount; ++i)
        w.key(gaugeName(static_cast<Gauge>(i))).value(metrics.gauges[i]);
    w.endObject();
    w.key("timers").beginObject();
    for (std::size_t i = 0; i < kScopeCount; ++i) {
        const TimingStat &t = metrics.timers[i];
        const ScopeQuantiles &q = timerQuantiles[i];
        w.key(scopeName(static_cast<Scope>(i))).beginObject();
        w.key("count").value(t.count);
        w.key("totalNs").value(t.totalNs);
        w.key("maxNs").value(t.maxNs);
        w.key("p50Ns").value(q.p50Ns);
        w.key("p95Ns").value(q.p95Ns);
        w.key("p99Ns").value(q.p99Ns);
        w.endObject();
    }
    w.endObject();
    w.endObject();

    w.key("tables").beginArray();
    for (const TableData &t : tables) {
        w.beginObject();
        w.key("title").value(t.title);
        w.key("header").beginArray();
        for (const std::string &cell : t.header)
            w.value(cell);
        w.endArray();
        w.key("rows").beginArray();
        for (const auto &row : t.rows) {
            w.beginArray();
            for (const std::string &cell : row)
                w.value(cell);
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.key("timeseries").beginArray();
    for (const TimeSeries &ts : timeseries) {
        w.beginObject();
        w.key("name").value(ts.name);
        w.key("columns").beginArray();
        for (const std::string &c : ts.columns)
            w.value(c);
        w.endArray();
        w.key("rows").beginArray();
        for (const auto &row : ts.rows) {
            w.beginArray();
            for (const std::uint64_t v : row)
                w.value(v);
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.endObject();
    os << "\n";
}

std::string
Manifest::toJson() const
{
    std::ostringstream os;
    write(os);
    return os.str();
}

void
Manifest::writeFile(const std::string &path) const
{
    // Crash-safe: a run killed mid-write must never leave a truncated
    // manifest where a valid one is expected.
    const Status s = atomicWriteFile(path, toJson());
    AEGIS_REQUIRE(s.ok(),
                  "failed writing manifest file `" + path + "': " +
                      s.error());
}

} // namespace aegis::obs
