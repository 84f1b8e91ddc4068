#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it. Run
# it from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve_warm --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and spans files go under
# .bench_build/perfbench in the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" "$@"
