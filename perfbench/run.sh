#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload imprint-cifar --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local \
	GOTELEMETRY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
# The heap hands freed pages back with MADV_FREE rather than MADV_DONTNEED,
# so a run does not re-fault its heap after every GC cycle (population-1M:
# about 15 000 faults per sim.Run with MADV_DONTNEED, 1 300 with MADV_FREE).
# On a virtual machine the cost of a fault varies with the host's load.
# Allocation volume stays measured by the alloc_mb_* metrics.
GODEBUG=madvdontneed=0 exec "$out/perfbench" "$@"
