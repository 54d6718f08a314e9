#!/usr/bin/env python3
"""Compare the deterministic sections of two aegis bench manifests.

A resumed run must be bit-identical to an uninterrupted one, but only
in the fields that are deterministic by design: the master seed, the
result tables (every cell, verbatim), the metrics *counters*, and the
timeseries section. Timestamps, phase wall-clock seconds, timer
nanoseconds, the status field and the flag record (a resumed
invocation adds --resume) are all legitimately different and
excluded, as is any other section (v5 manifests carry a `shards`
section that v6 dropped).

Usage: compare_manifests.py [--ignore-wallclock] <golden.json>
<candidate.json>
Exit status 0 when the deterministic sections match; 1 with one line
per difference otherwise.

--ignore-wallclock additionally masks wall-clock columns (wall_ms) in
the timeseries diff: the Monte-Carlo chunk timelines stamp each row
with an advisory completion time that legitimately varies across
--jobs and machines.

Perf-gate mode: compare_manifests.py --perf [--tolerance PCT] then the
two manifests. Instead of bit-exact equality, rows of the
"microbenchmarks" table are matched by benchmark name and the
candidate's cpu_ns_per_iter must not exceed the golden's by more than
the tolerance (default 10%). Benchmarks present in only one manifest
are reported but do not fail the gate (the set evolves); slower-than-
tolerance rows do.
"""

import json
import sys

PERF_TABLE = "microbenchmarks"
PERF_METRIC = "cpu_ns_per_iter"


def perf_rows(manifest, errors, label):
    """Map benchmark name -> cpu ns/iter from the microbenchmarks table."""
    for table in manifest.get("tables", []):
        if table.get("title") != PERF_TABLE:
            continue
        header = table.get("header", [])
        try:
            name_col = header.index("benchmark")
            metric_col = header.index(PERF_METRIC)
        except ValueError:
            errors.append("%s: %r table lacks benchmark/%s columns"
                          % (label, PERF_TABLE, PERF_METRIC))
            return {}
        rows = {}
        for row in table.get("rows", []):
            # Cells are human-formatted strings ("1,760,247" / "391.91").
            rows[row[name_col]] = float(row[metric_col].replace(",", ""))
        return rows
    errors.append("%s: no %r table" % (label, PERF_TABLE))
    return {}


def perf_gate(golden, candidate, tolerance_pct):
    errors = []
    g = perf_rows(golden, errors, "golden")
    c = perf_rows(candidate, errors, "candidate")
    if errors:
        for e in errors:
            print("PERF-GATE ERROR: %s" % e)
        return 2

    regressions = []
    limit = 1.0 + tolerance_pct / 100.0
    for name in sorted(set(g) | set(c)):
        if name not in c:
            print("PERF-GATE NOTE: %s only in golden (skipped)" % name)
            continue
        if name not in g:
            print("PERF-GATE NOTE: %s only in candidate (skipped)" % name)
            continue
        ratio = c[name] / g[name] if g[name] > 0 else float("inf")
        verdict = "FAIL" if ratio > limit else "ok"
        print("PERF-GATE %-4s %-45s %10.2f -> %10.2f ns/iter (%+6.1f%%)"
              % (verdict, name, g[name], c[name], (ratio - 1.0) * 100.0))
        if ratio > limit:
            regressions.append(name)

    if regressions:
        print("PERF-GATE: %d benchmark(s) regressed beyond %.0f%%: %s"
              % (len(regressions), tolerance_pct, ", ".join(regressions)))
        return 1
    print("PERF-GATE: all shared benchmarks within %.0f%% of golden"
          % tolerance_pct)
    return 0


def diff_tables(golden, candidate, errors):
    if len(golden) != len(candidate):
        errors.append("table count: %d vs %d"
                      % (len(golden), len(candidate)))
        return
    for t, (g, c) in enumerate(zip(golden, candidate)):
        where = "tables[%d] (%s)" % (t, g.get("title", "?"))
        if g.get("title") != c.get("title"):
            errors.append("%s: title %r vs %r"
                          % (where, g.get("title"), c.get("title")))
        if g.get("header") != c.get("header"):
            errors.append("%s: header %r vs %r"
                          % (where, g.get("header"), c.get("header")))
        grows, crows = g.get("rows", []), c.get("rows", [])
        if len(grows) != len(crows):
            errors.append("%s: %d rows vs %d rows"
                          % (where, len(grows), len(crows)))
            continue
        for r, (grow, crow) in enumerate(zip(grows, crows)):
            if grow != crow:
                errors.append("%s row %d: %r vs %r"
                              % (where, r, grow, crow))


def diff_counters(golden, candidate, errors):
    for name in sorted(set(golden) | set(candidate)):
        g, c = golden.get(name), candidate.get(name)
        if g != c:
            errors.append("counter %s: %r vs %r" % (name, g, c))


WALLCLOCK_COLUMNS = ("wall_ms",)


def masked_rows(series, ignore_wallclock):
    """Rows with wall-clock columns zeroed when asked to ignore them."""
    columns = series.get("columns", [])
    masked = [i for i, name in enumerate(columns)
              if ignore_wallclock and name in WALLCLOCK_COLUMNS]
    if not masked:
        return series.get("rows", [])
    return [[0 if i in masked else v for i, v in enumerate(row)]
            for row in series.get("rows", [])]


def diff_timeseries(golden, candidate, errors, ignore_wallclock):
    if len(golden) != len(candidate):
        errors.append("timeseries count: %d vs %d"
                      % (len(golden), len(candidate)))
        return
    for t, (g, c) in enumerate(zip(golden, candidate)):
        where = "timeseries[%d] (%s)" % (t, g.get("name", "?"))
        if g.get("name") != c.get("name"):
            errors.append("%s: name %r vs %r"
                          % (where, g.get("name"), c.get("name")))
        if g.get("columns") != c.get("columns"):
            errors.append("%s: columns %r vs %r"
                          % (where, g.get("columns"), c.get("columns")))
            continue
        grows = masked_rows(g, ignore_wallclock)
        crows = masked_rows(c, ignore_wallclock)
        if len(grows) != len(crows):
            errors.append("%s: %d rows vs %d rows"
                          % (where, len(grows), len(crows)))
            continue
        for r, (grow, crow) in enumerate(zip(grows, crows)):
            if grow != crow:
                errors.append("%s row %d: %r vs %r"
                              % (where, r, grow, crow))


def main(argv):
    args = argv[1:]
    perf_mode = False
    ignore_wallclock = False
    tolerance = 10.0
    while args and args[0].startswith("--"):
        if args[0] == "--perf":
            perf_mode = True
            args = args[1:]
        elif args[0] == "--ignore-wallclock":
            ignore_wallclock = True
            args = args[1:]
        elif args[0] == "--tolerance" and len(args) >= 2:
            tolerance = float(args[1])
            args = args[2:]
        else:
            print(__doc__.strip(), file=sys.stderr)
            return 2
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(args[0]) as f:
        golden = json.load(f)
    with open(args[1]) as f:
        candidate = json.load(f)

    if perf_mode:
        return perf_gate(golden, candidate, tolerance)
    argv = [argv[0], args[0], args[1]]

    errors = []
    if golden.get("seed") != candidate.get("seed"):
        errors.append("seed: %r vs %r"
                      % (golden.get("seed"), candidate.get("seed")))
    if golden.get("program") != candidate.get("program"):
        errors.append("program: %r vs %r"
                      % (golden.get("program"),
                         candidate.get("program")))
    diff_tables(golden.get("tables", []),
                candidate.get("tables", []), errors)
    diff_counters(golden.get("metrics", {}).get("counters", {}),
                  candidate.get("metrics", {}).get("counters", {}),
                  errors)
    diff_timeseries(golden.get("timeseries", []),
                    candidate.get("timeseries", []), errors,
                    ignore_wallclock)

    if errors:
        for e in errors:
            print("DIFFER %s vs %s: %s" % (argv[1], argv[2], e))
        return 1
    print("MATCH %s vs %s (seed, %d tables, counters, %d timeseries%s)"
          % (argv[1], argv[2], len(golden.get("tables", [])),
             len(golden.get("timeseries", [])),
             ", wall-clock columns ignored" if ignore_wallclock else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
