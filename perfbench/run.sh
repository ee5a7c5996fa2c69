#!/usr/bin/env bash
# Builds atomicsim, atomicd and the perfbench program from the checkout
# it is started in, then runs perfbench. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload paper-full --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout, the Go build cache included.
set -euo pipefail

root=$(pwd)
for src in go.mod cmd/atomicsim cmd/atomicd; do
	if [ ! -e "$src" ]; then
		echo "run.sh: $root/$src not found; run it from the repository root" >&2
		exit 1
	fi
done
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# The go command otherwise starts a detached telemetry process on its
# first run in a fresh config directory, which outlives this script.
# "go telemetry off" itself starts none.
go telemetry off

go build -o "$out/bin/atomicsim" ./cmd/atomicsim
go build -o "$out/bin/atomicd" ./cmd/atomicd
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -out "$out/perfbench" "$@"
