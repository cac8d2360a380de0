#!/usr/bin/env bash
# Builds e2ebench from the checkout this script sits in and runs it with
# the given flags, from the checkout root. The build cache, the binary and
# each run's scratch stores live under .bench_build at the checkout root.
#
#   bash e2ebench/run.sh --workload serve-sync --seed 7 --seconds 10 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in $out too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/e2ebench" build -o "$out/e2ebench" . >&2
cd "$root"
exec "$out/e2ebench" --scratch "$out" "$@"
