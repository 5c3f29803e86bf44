#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from the
# root of the repository, for example:
#
#   bash perfbench/run.sh --workload zoo-cold --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/, and the
# toolchain is kept offline: the module has no dependencies to fetch.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
