#!/bin/sh
# Regenerates the checked-in full-size artifacts from one full-size
# atomicsim run: fullrun.txt (its tables on stdout), results/*.csv (its
# per-table CSVs) and report.md (its -report Markdown). Run from the
# repo root:
#
#   scripts/artifacts.sh          rewrite the artifacts in place
#   scripts/artifacts.sh DIR      write them under DIR instead
#   scripts/artifacts.sh -check   regenerate into a temp dir and fail if
#                                 any checked-in artifact differs
set -eu

if [ "${1:-}" = "-check" ]; then
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    "$0" "$tmp"
    status=0
    cmp fullrun.txt "$tmp/fullrun.txt" || status=1
    cmp report.md "$tmp/report.md" || status=1
    diff -r results "$tmp/results" || status=1
    if [ "$status" != 0 ]; then
        echo "artifacts are stale: run scripts/artifacts.sh and commit the result" >&2
        exit 1
    fi
    echo "artifacts up to date"
    exit 0
fi

out=${1:-.}
mkdir -p "$out/results"
rm -f "$out"/results/*.csv
go run ./cmd/atomicsim -quiet -csv "$out/results" -report "$out/report.md" \
    > "$out/fullrun.txt"
