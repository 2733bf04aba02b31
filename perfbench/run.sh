#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload shape-churn --seed 1 --seconds 50 --trace 0
#
# Every file the Go toolchain writes (build cache, telemetry, the binary)
# and the traced runs' span files stay under .perfbench_build/.
set -euo pipefail

root=$PWD
if [[ ! -f $root/go.mod || ! -d $root/internal/serve || ! -f $root/perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a hunipu checkout (go.mod, internal/serve and perfbench/ must exist)" >&2
	exit 2
fi

out=$root/.perfbench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
