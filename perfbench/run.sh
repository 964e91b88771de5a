#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it, passing every argument through:
#
#   bash perfbench/run.sh --workload paper-long --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ at the root of the checkout. Build output goes to stderr so
# that the last line of stdout is the benchmark's JSON result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

go build -C "$root/perfbench" -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
