#!/usr/bin/env bash
# Builds the benchmark from this checkout, then runs it with the given
# arguments:
#
#	bash perfbench/run.sh --workload sim-steady --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# leave behind (Go build cache, binary, temp dirs, span dumps) goes
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gotmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export TMPDIR="$out/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local

go build -C "$root/perfbench" -o "$out/perfbench" .

exec "$out/perfbench" --workdir "$out/tmp" "$@"
