#!/usr/bin/env bash
# Builds vdbserver and the benchmark from this checkout, then
# runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and run directory stays under .bench_build
# in the checkout (CARGO_TARGET_DIR is honoured as its location).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/vdbserver || ! -d internal ]]; then
	echo "perfbench: run from the root of a videodb checkout (no go.mod or cmd/vdbserver here)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/home"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
	XDG_CONFIG_HOME="$out/home" HOME="$out/home" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$out/bin/" ./cmd/vdbserver >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
