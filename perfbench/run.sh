#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload kmc-long --seed 1 --seconds 25 --trace 0
# Every build and run artifact stays under .bench_build/ at the root.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# Keep every file the go command writes (build cache, temporary files,
# telemetry counters) inside the build directory.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out" "$@"
