#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Run from the
# root of a checkout:
#
#   bash campaignbench/run.sh --workload fuzz-mutate --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOENV=off
(cd campaignbench && go build -o "$out/campaignbench" .)
exec "$out/campaignbench" "$@"
