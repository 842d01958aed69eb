#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload system-atime --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under the build directory ($CARGO_TARGET_DIR, default
# .bench_build): the binary, the Go build cache, and the traced run's
# spans and CPU profile.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root (no go.mod and internal/ here)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
go build -C perfbench -o "$out/perfbench.bin" .
exec "$out/perfbench.bin" "$@"
