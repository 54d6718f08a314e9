#!/bin/sh
# Discovered-test-name guard.
#
# gtest prints a parameter struct that has no PrintTo overload as
# "N-byte object <..>", and gtest_discover_tests keeps that text in
# the ctest name. A pointer field makes those bytes move with ASLR, so
# two builds of the same tree would list different test names. Every
# parameter struct therefore needs a field-printing PrintTo; this test
# fails on any discovered name that still holds raw bytes.
#
# Giving a struct a PrintTo renames every test of its suite, so the
# suite below moves over in its own change (ROADMAP item 1b) and is
# let through until then. The list may only shrink:
#   PaperFormations/PartitionTheorems  Formation, three integers: the
#                                      bytes are fixed, only unreadable
#
# Usage: ctest_names_test.sh <ctest-binary> <build-dir>

set -u

CTEST=${1:?usage: ctest_names_test.sh <ctest-binary> <build-dir>}
BUILD=${2:?usage: ctest_names_test.sh <ctest-binary> <build-dir>}

LIST=$(cd "$BUILD" && "$CTEST" -N) || {
    echo "FAIL: ctest -N failed in $BUILD" >&2
    exit 1
}
TOTAL=$(printf '%s\n' "$LIST" | grep -c 'Test *#')
if [ "$TOTAL" -eq 0 ]; then
    echo "FAIL: ctest -N listed no tests in $BUILD" >&2
    exit 1
fi

PENDING=': PaperFormations/PartitionTheorems\.'
RAW=$(printf '%s\n' "$LIST" | grep -- '-byte object <' |
    grep -Ev "$PENDING")
if [ -n "$RAW" ]; then
    echo "FAIL: test names embed raw parameter bytes (add a PrintTo):" >&2
    printf '%s\n' "$RAW" >&2
    exit 1
fi
echo "OK: $TOTAL test names, none with raw parameter bytes outside the pending suites"
