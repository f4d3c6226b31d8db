#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload pace-40k --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything the build writes (the
# Go build cache, the go command's config and telemetry, the binary, span
# dumps) goes under $CARGO_TARGET_DIR, default .bench_build, inside the
# checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" -spans "$out/spans" "$@"
