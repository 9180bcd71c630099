#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload md-cutoff --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare OLD.json NEW.json
#
# Run from the repository root. Build output, the Go build cache and run
# records stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOENV=off
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry counters
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOWORK=off

# Build to a temporary name and rename, so an interrupted build never
# leaves a half-written binary behind.
(cd perfbench && go build -o "$out/perfbench.tmp.$$" .)
mv -f "$out/perfbench.tmp.$$" "$out/perfbench"
exec "$out/perfbench" "$@"
