#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload dse-fixed --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and traced-run spans stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off

commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .) >&2

exec "$out/perfbench" --span-dir "$out" "$@"
