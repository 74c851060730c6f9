#!/usr/bin/env bash
# Builds hyperd and the perfbench load generator from the checkout's
# sources, then runs the load generator with the given arguments.  Run it from the root
# of the repository:
#
#	bash perfbench/run.sh --workload exact-cold --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go build -o "$out/hyperd" ./cmd/hyperd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -hyperd "$out/hyperd" -workdir "$out" "$@"
