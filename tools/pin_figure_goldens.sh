#!/bin/sh
# Regenerate the figure goldens that the FigureGolden.<bench> ctests
# compare against: tests/goldens/<bench>.txt (stdout) and
# tests/goldens/<bench>.json (the --json manifest).
#
# Usage: tools/pin_figure_goldens.sh <build-dir> [bench...]
# With no bench names, every bench that already has a golden is
# re-pinned. A change that re-pins names each golden that moved, and
# why, in CHANGES.md.

set -u

BUILD=${1:?usage: pin_figure_goldens.sh <build-dir> [bench...]}
shift
ROOT=$(cd "$(dirname "$0")/.." && pwd)
GOLDENS="$ROOT/tests/goldens"
mkdir -p "$GOLDENS"

if [ "$#" -eq 0 ]; then
    for f in "$GOLDENS"/*.txt; do
        [ -f "$f" ] && set -- "$@" "$(basename "$f" .txt)"
    done
fi
[ "$#" -gt 0 ] || {
    echo "no goldens to re-pin; name the benches to pin" >&2
    exit 2
}

for name in "$@"; do
    sh "$ROOT/tests/figure_golden_test.sh" --pin \
        "$BUILD/bench/$name" "$GOLDENS" || exit 1
done
