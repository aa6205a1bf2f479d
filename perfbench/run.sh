#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mixed-json --seed 1 --seconds 36 --trace 0
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ in the current directory.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
(cd "$here" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
