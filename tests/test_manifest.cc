/**
 * @file
 * Tests for JSON emission and the schema-versioned run manifest: a
 * golden-file check pins the manifest format (bump kSchemaVersion and
 * regenerate on any breaking change), plus JsonWriter escaping and
 * number-formatting unit tests.
 */

#include <array>
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/manifest.h"
#include "util/error.h"
#include "util/table_printer.h"

namespace aegis {
namespace {

TEST(Json, QuoteEscapes)
{
    EXPECT_EQ(obs::JsonWriter::quote("plain"), "\"plain\"");
    EXPECT_EQ(obs::JsonWriter::quote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(obs::JsonWriter::quote("back\\slash"),
              "\"back\\\\slash\"");
    EXPECT_EQ(obs::JsonWriter::quote("line\nbreak\ttab"),
              "\"line\\nbreak\\ttab\"");
    EXPECT_EQ(obs::JsonWriter::quote(std::string_view("\x01", 1)),
              "\"\\u0001\"");
}

TEST(Json, NumberFormatting)
{
    // Integral doubles keep a trailing ".0" so the JSON type is
    // unambiguous; non-finite values become null.
    EXPECT_EQ(obs::JsonWriter::number(2.0), "2.0");
    EXPECT_EQ(obs::JsonWriter::number(2.5), "2.5");
    EXPECT_EQ(obs::JsonWriter::number(0.0), "0.0");
    EXPECT_EQ(obs::JsonWriter::number(std::nan("")), "null");
    EXPECT_EQ(obs::JsonWriter::number(INFINITY), "null");
    // Shortest round-trip formatting.
    EXPECT_EQ(obs::JsonWriter::number(0.1), "0.1");
}

TEST(Json, WriterStructure)
{
    std::ostringstream os;
    obs::JsonWriter w(os, 0);
    w.beginObject();
    w.key("answer").value(std::uint64_t{42});
    w.key("items").beginArray().value("a").value("b").endArray();
    w.key("neg").value(std::int64_t{-3});
    w.key("flag").value(true);
    w.key("nothing").value(obs::JsonValue::null());
    w.endObject();
    // indent width 0: structure newlines remain, no leading spaces.
    EXPECT_EQ(os.str(), "{\n\"answer\": 42,\n\"items\": [\n\"a\",\n"
                        "\"b\"\n],\n\"neg\": -3,\n\"flag\": true,\n"
                        "\"nothing\": null\n}");
}

TEST(Manifest, GoldenFixture)
{
    obs::Manifest m("demo_bench", "golden manifest fixture");
    m.setBuildInfo(
        obs::BuildInfo{"deadbeef", "Release", "testc++ 1.0", "-O2"});
    m.setTimestampUtc("2026-01-02T03:04:05Z");
    m.setSeed(42);
    m.addFlag("pages", obs::JsonValue::uint(64));
    m.addFlag("csv", obs::JsonValue::boolean(false));
    m.addFlag("scheme", obs::JsonValue::str("aegis-9x61"));
    m.addFlag("mean", obs::JsonValue::real(2.5));
    obs::JsonObject cfg;
    cfg.emplace_back("scheme", obs::JsonValue::str("aegis-9x61"));
    cfg.emplace_back("blockBits", obs::JsonValue::uint(512));
    m.addConfig(cfg);
    m.addConfig(cfg);    // exact duplicate: recorded once
    m.addPhase("warmup", 0.25);
    m.addPhase("sweep", 1.5);
    obs::Metrics metrics;
    metrics.counters[0] = 17;
    metrics.gauges[0] = 3;
    metrics.timers[0] = obs::TimingStat{2, 100, 75};
    m.setMetrics(metrics);
    std::array<obs::ScopeQuantiles, obs::kScopeCount> quantiles{};
    quantiles[0] = obs::ScopeQuantiles{63, 127, 127};
    m.setTimerQuantiles(quantiles);
    obs::TimeSeries series;
    series.name = "demo.controller";
    series.columns = {"tick", "writes"};
    series.rows = {{2000, 17}, {4000, 34}};
    m.addTimeSeries(std::move(series));
    TablePrinter t("Demo table");
    t.setHeader({"scheme", "bits"});
    t.addRow({"aegis-9x61", "67"});
    m.addTable(t);

    const std::string golden = R"json({
  "schema": "aegis-bench-manifest",
  "schemaVersion": 6,
  "program": "demo_bench",
  "description": "golden manifest fixture",
  "status": "complete",
  "timestampUtc": "2026-01-02T03:04:05Z",
  "build": {
    "gitSha": "deadbeef",
    "buildType": "Release",
    "compiler": "testc++ 1.0",
    "flags": "-O2"
  },
  "seed": 42,
  "flags": {
    "pages": 64,
    "csv": false,
    "scheme": "aegis-9x61",
    "mean": 2.5
  },
  "configs": [
    {
      "scheme": "aegis-9x61",
      "blockBits": 512
    }
  ],
  "phases": [
    {
      "name": "warmup",
      "seconds": 0.25
    },
    {
      "name": "sweep",
      "seconds": 1.5
    }
  ],
  "metrics": {
    "counters": {
      "scheme.group_inversions": 17,
      "scheme.program_passes": 0,
      "scheme.verify_mismatches": 0,
      "aegis.slope_repartitions": 0,
      "safer.repartitions": 0,
      "rdis.solves": 0,
      "rdis.recursion_levels": 0,
      "ecp.pointers_consumed": 0,
      "failcache.hits": 0,
      "failcache.misses": 0,
      "failcache.insertions": 0,
      "failcache.evictions": 0,
      "pcm.diff_writes": 0,
      "pcm.diff_bits_flipped": 0,
      "pcm.blind_writes": 0,
      "tracker.labelings_sampled": 0,
      "sim.fault_arrivals": 0,
      "sim.block_lives": 0,
      "sim.page_lives": 0,
      "audit.checks": 0,
      "audit.violations": 0,
      "timing.reads": 0,
      "timing.writes": 0,
      "timing.verify_reads": 0,
      "timing.failcache_lookups": 0,
      "timing.failcache_updates": 0,
      "timing.repartition_stalls": 0
    },
    "gauges": {
      "rdis.max_recursion_depth": 3
    },
    "timers": {
      "scheme.write": {
        "count": 2,
        "totalNs": 100,
        "maxNs": 75,
        "p50Ns": 63,
        "p95Ns": 127,
        "p99Ns": 127
      },
      "scheme.read": {
        "count": 0,
        "totalNs": 0,
        "maxNs": 0,
        "p50Ns": 0,
        "p95Ns": 0,
        "p99Ns": 0
      },
      "scheme.recover": {
        "count": 0,
        "totalNs": 0,
        "maxNs": 0,
        "p50Ns": 0,
        "p95Ns": 0,
        "p99Ns": 0
      },
      "sim.block_life": {
        "count": 0,
        "totalNs": 0,
        "maxNs": 0,
        "p50Ns": 0,
        "p95Ns": 0,
        "p99Ns": 0
      },
      "sim.page_life": {
        "count": 0,
        "totalNs": 0,
        "maxNs": 0,
        "p50Ns": 0,
        "p95Ns": 0,
        "p99Ns": 0
      }
    }
  },
  "tables": [
    {
      "title": "Demo table",
      "header": [
        "scheme",
        "bits"
      ],
      "rows": [
        [
          "aegis-9x61",
          "67"
        ]
      ]
    }
  ],
  "timeseries": [
    {
      "name": "demo.controller",
      "columns": [
        "tick",
        "writes"
      ],
      "rows": [
        [
          2000,
          17
        ],
        [
          4000,
          34
        ]
      ]
    }
  ]
}
)json";
    EXPECT_EQ(m.toJson(), golden);
}

TEST(Manifest, PartialStatusRecorded)
{
    obs::Manifest m("p", "d");
    m.setStatus("partial");
    EXPECT_NE(m.toJson().find("\"status\": \"partial\""),
              std::string::npos);
}

TEST(Manifest, TableCellsCapturedVerbatim)
{
    obs::Manifest m("p", "d");
    TablePrinter t("T");
    t.setHeader({"h"});
    t.addRow({"weird \"cell\",\nwith junk"});
    m.addTable(t);
    const std::string json = m.toJson();
    EXPECT_NE(json.find("weird \\\"cell\\\",\\nwith junk"),
              std::string::npos)
        << json;
}

TEST(Manifest, WriteFileRejectsBadPath)
{
    const obs::Manifest m("p", "d");
    EXPECT_THROW(m.writeFile("/nonexistent-dir/x/manifest.json"),
                 ConfigError);
}

TEST(Manifest, DefaultBuildInfoPopulated)
{
    // The library was compiled without the bench-level provenance
    // macros, so the fallbacks apply; the fields still exist.
    const obs::BuildInfo info = obs::currentBuildInfo();
    EXPECT_FALSE(info.gitSha.empty());
    EXPECT_FALSE(info.compiler.empty());
}

} // namespace
} // namespace aegis
