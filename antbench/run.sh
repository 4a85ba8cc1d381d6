#!/usr/bin/env bash
# Builds the benchmark and the antdensity server from source, then runs
# one benchmark run. Run it from the repository root:
#
#   bash antbench/run.sh --workload serve-mix --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the current directory: the Go build cache, the binaries, server data
# directories and trace files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOENV=off
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

(
	cd antbench
	go build -o "$out/antbench" .
	go build -o "$out/antdensity" antdensity/cmd/antdensity
) >&2

exec "$out/antbench" -server-bin "$out/antdensity" -out "$out/run" "$@"
