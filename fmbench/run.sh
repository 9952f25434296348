#!/usr/bin/env bash
# Builds the fmeter benchmark from the sources of this checkout and runs
# one workload. Everything it writes (Go build cache, binary, snapshot
# directories, span dumps) stays under .bench_build at the checkout root.
#
#   bash fmbench/run.sh --workload query-sealed --seed 1 --seconds 20 --trace 0
#
# The last line of standard output is the JSON result; everything else
# goes to standard error.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off
(cd "$root/fmbench" && go build -o "$build/fmbench" .) >&2
cd "$root"
exec "$build/fmbench" -workdir "$build" "$@"
