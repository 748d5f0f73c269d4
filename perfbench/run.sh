#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it:
#
#   bash perfbench/run.sh --workload ycsb-b-tiered --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artefact, the Go build
# cache and the span files of traced runs stay under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build) inside the checkout, and
# the Go toolchain is kept offline. Outside a checkout of the module the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

# Telemetry off: in its default mode the go command starts a detached
# child process to process counter files, which outlives this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" --out "$out" "$@"
