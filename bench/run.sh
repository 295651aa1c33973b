#!/usr/bin/env bash
# Builds the benchmark and the CLIs it drives (prismbench, prismd) into
# .bench_build/, then runs it with every argument passed through. Run it
# from the repository root:
#
#   bash bench/run.sh --workload ci-cells --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1 -out a.json       # all four workloads
#   bash bench/run.sh -compare a.json b.json
#
# Every build output, the Go build cache, the go command's config and
# telemetry files and every temporary file stay under .bench_build/, and
# GOMAXPROCS is pinned to 2 for the benchmark and its children on every
# host.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOMAXPROCS=2

go build -o "$out/bin/" ./cmd/prismbench ./cmd/prismd
(cd bench && go build -o "$out/bin/prism-bench" .)
exec "$out/bin/prism-bench" -bin "$out/bin" -tmp "$out/tmp" "$@"
