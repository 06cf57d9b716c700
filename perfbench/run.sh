#!/usr/bin/env bash
# Builds the benchmark and the duploserved binary it drives from
# the checkout it is run in, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload warm-serve --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the go command's temporary and
# telemetry files and every file a run writes stay under .bench_build/ in
# the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/duploserved" duplo/cmd/duploserved
) >&2
exec "$out/perfbench" -root "$root" -bin "$out" "$@"
