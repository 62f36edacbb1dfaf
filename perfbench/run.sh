#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root. The binary, the Go build cache and the Go tool's own state stay in
# .bench_build.
#
#   bash perfbench/run.sh --workload local-zipf --seed 1 --seconds 24 --trace 0
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
