#!/usr/bin/env bash
# Builds the benchmark and parclustd from this checkout's sources, then runs
# the benchmark from the checkout root with the given arguments, e.g.
#
#   bash bench/run.sh --workload serve-warm --seed 1 --seconds 25 --trace 0
#
# Build caches, binaries and traces stay under .bench_build/ at the root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
cd "$root/bench"
go build -o "$out/parclust-bench" .
go build -o "$out/parclustd" parclust/cmd/parclustd
cd "$root"
exec "$out/parclust-bench" -daemon "$out/parclustd" "$@"
