#!/bin/sh
# Figure golden test.
#
# Runs one table/figure/ablation/extension/latency bench at a small
# fixed scale and requires its output to match the pinned goldens:
# stdout byte for byte against <goldens-dir>/<bench>.txt, and the
# --json manifest against <goldens-dir>/<bench>.json in every
# deterministic field (seed, tables, counters, timeseries; see
# tools/compare_manifests.py --ignore-wallclock). The fresh manifest
# must also validate against tools/manifest_schema.json.
#
# The scale per bench: --pages 4 --blocks 32 --jobs N for the
# Monte-Carlo benches (ablation_fail_cache has only --blocks,
# table1_cost takes neither), --writes 300 --jobs N for the latency
# benches. N is $FIGURE_GOLDEN_JOBS (default 1); the goldens must hold
# for every value, as they must for every AEGIS_SIMD backend.
#
# Usage: figure_golden_test.sh <bench-binary> <goldens-dir> <tools-dir>
#        figure_golden_test.sh --pin <bench-binary> <goldens-dir>
# --pin overwrites the bench's two golden files with this run's output
# (see tools/pin_figure_goldens.sh).

set -u

PIN=0
if [ "${1:-}" = "--pin" ]; then
    PIN=1
    shift
fi
USAGE="usage: figure_golden_test.sh [--pin] <bench-binary> <goldens-dir> [<tools-dir>]"
BENCH=${1:?$USAGE}
GOLDENS=${2:?$USAGE}
TOOLS=${3:-}
if [ "$PIN" -eq 0 ] && [ -z "$TOOLS" ]; then
    echo "$USAGE" >&2
    exit 2
fi
PYTHON=${PYTHON:-python3}
JOBS=${FIGURE_GOLDEN_JOBS:-1}
NAME=$(basename "$BENCH")
case "$BENCH" in
    /*) ;;
    *) BENCH="$PWD/$BENCH" ;;
esac

case "$NAME" in
    table1_cost) FLAGS="" ;;
    ablation_fail_cache) FLAGS="--blocks 32" ;;
    latency_*) FLAGS="--writes 300 --jobs $JOBS" ;;
    *) FLAGS="--pages 4 --blocks 32 --jobs $JOBS" ;;
esac

WORK=$(mktemp -d) || exit 1
trap 'rm -rf "$WORK"' EXIT INT TERM

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# Run inside the scratch directory so the manifest records a relative
# --json path.
# shellcheck disable=SC2086
(cd "$WORK" && "$BENCH" $FLAGS --json "$NAME.json" \
    > "$NAME.txt" 2> stderr.txt) || {
    cat "$WORK/stderr.txt" >&2
    fail "$NAME $FLAGS exited non-zero"
}

if [ "$PIN" -eq 1 ]; then
    cp "$WORK/$NAME.txt" "$WORK/$NAME.json" "$GOLDENS/" ||
        fail "cannot write goldens to $GOLDENS"
    echo "pinned $NAME ($FLAGS)"
    exit 0
fi

[ -f "$GOLDENS/$NAME.txt" ] || fail "no golden $GOLDENS/$NAME.txt"
[ -f "$GOLDENS/$NAME.json" ] || fail "no golden $GOLDENS/$NAME.json"

if ! cmp -s "$GOLDENS/$NAME.txt" "$WORK/$NAME.txt"; then
    diff -u "$GOLDENS/$NAME.txt" "$WORK/$NAME.txt" >&2
    fail "$NAME stdout differs from its golden"
fi
"$PYTHON" "$TOOLS/compare_manifests.py" --ignore-wallclock \
    "$GOLDENS/$NAME.json" "$WORK/$NAME.json" ||
    fail "$NAME manifest differs from its golden"
"$PYTHON" "$TOOLS/validate_manifest.py" "$WORK/$NAME.json" ||
    fail "$NAME manifest does not validate against the schema"
echo "OK: $NAME ($FLAGS) matches its goldens"
