#!/usr/bin/env bash
# Builds the phpf benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory (Go build cache, temporary files, the binary, the span
# files of traced runs).
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	GOTELEMETRY=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
