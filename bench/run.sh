#!/usr/bin/env bash
# The benchmark's one command: builds wfsimload and wfsimd from the checkout
# this script lives in, then runs wfsimload with the given arguments, e.g.
#
#   bash bench/run.sh --workload search_scan --seed 1 --seconds 20 --trace 0
#
# Everything it writes — Go build cache, binaries, per-run scratch — goes
# under .bench_build/ in the checkout; traces go to bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bin/" ./wfsimload repro/cmd/wfsimd)
cd "$root"
exec "$build/bin/wfsimload" -wfsimd "$build/bin/wfsimd" "$@"
