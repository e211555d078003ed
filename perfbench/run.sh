#!/usr/bin/env bash
# Builds the benchmark and a non-race mariond from the checkout it is
# run in, then runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload batch-livermore --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh steady --workload serve-warm --runs 5
#   bash perfbench/run.sh compare parent.jsonl change.jsonl
#
# Every build product, the Go build cache and the traces stay under
# .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/mariond" ./cmd/mariond
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" -mariond "$out/mariond" -out "$out" "$@"
