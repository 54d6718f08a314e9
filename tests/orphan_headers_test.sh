#!/bin/sh
# Test-only header guard.
#
# A mechanism with no consumer gets deleted. So every header under src/
# must be included by the program: by some file under src/, bench/,
# examples/ or perfbench/ other than the header's own .cc. A header
# that only tests (or nothing) include fails this test. The one
# exception is named here and the list may only shrink:
#   util/alloc_guard.h  the counting allocator behind test_alloc_guard,
#                       a test harness by design
#
# Usage: orphan_headers_test.sh <source-dir>

set -u

ROOT=${1:?usage: orphan_headers_test.sh <source-dir>}
cd "$ROOT" || {
    echo "FAIL: cannot enter $ROOT" >&2
    exit 1
}

EXEMPT=util/alloc_guard.h
TOTAL=0
ORPHANS=
for path in $(find src -name '*.h' | sort); do
    h=${path#src/}
    TOTAL=$((TOTAL + 1))
    [ "$h" = "$EXEMPT" ] && continue
    if ! grep -rlF --include='*.h' --include='*.cc' --include='*.cpp' \
        "#include \"$h\"" src bench examples perfbench |
        grep -qvxF "src/${h%.h}.cc"; then
        ORPHANS="$ORPHANS $h"
    fi
done

if [ "$TOTAL" -eq 0 ]; then
    echo "FAIL: no header found under $ROOT/src" >&2
    exit 1
fi
if [ -n "$ORPHANS" ]; then
    echo "FAIL: src/ headers that only tests or their own .cc include:" >&2
    for h in $ORPHANS; do
        echo "  $h" >&2
    done
    exit 1
fi
echo "OK: each of the $TOTAL headers under src/ has a consumer outside tests"
