#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot-mutating --seed 3 --seconds 20 --trace 0
#
# The Go build cache, the binary and the traced run's spans stay under
# .bench_build/ in the checkout. Nothing is downloaded: the module has no
# dependencies outside the repository.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off GOPROXY=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --spans "$out/spans.jsonl" "$@"
