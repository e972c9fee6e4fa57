#!/usr/bin/env bash
# run.sh — build vhbench from source inside the checkout and run it.
#
# This is BENCHMARK.json's command: `bash bench/run.sh --workload <name>
# --seed <n> --seconds <s> --trace <0|1>`. With no --workload it runs the
# whole suite (see README.md). Everything it writes — the Go build cache, the
# binary, traces and CPU profiles — goes under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C bench -o "$build/bin/vhbench" ./vhbench
exec "$build/bin/vhbench" "$@"
