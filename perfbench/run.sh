#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# executes it with the given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload alloc-fig10 --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, WAL directories and span files all live
# under .bench_build/perfbench in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an eflora checkout" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
