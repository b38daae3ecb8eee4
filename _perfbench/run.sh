#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through,
# e.g. bash _perfbench/run.sh --workload fig10-smt --seed 1 --seconds 10 --trace 0
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Keep the toolchain local and its caches inside the checkout.
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config"
(cd "$root/_perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -outdir "$out/trace" "$@"
