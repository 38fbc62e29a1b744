#!/usr/bin/env bash
# Builds the benchmark and wishsimd from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-membound --seed 1 --seconds 40 --trace 0
#   bash perfbench/run.sh --regen
#
# Everything it writes (Go build cache, binaries, stores, journals,
# logs, spans) goes under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
  /*) ;;
  *) out="$root/$out" ;;
esac
mkdir -p "$out"

# The official Go distribution installs to /usr/local/go by default.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOWORK=off

# Building is not part of any measurement.
go build -C "$root/perfbench" -o "$out/bin/perfbench" . >&2
go build -C "$root" -o "$out/bin/wishsimd" ./cmd/wishsimd >&2

exec "$out/bin/perfbench" -dir "$root/perfbench" -bin "$out/bin" -work "$out/perfbench" "$@"
