#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it with the
# given arguments, from the repository root:
#   bash perfbench/run.sh --workload paper-sweep --seed 42 --seconds 10 --trace 0
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
# Keep the toolchain's caches, config and telemetry in the checkout, and
# never reach the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
