#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload <paper-dcn|city-1k|fig19-sweep> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs, the Go build cache included, stay in .bench_build at the
# repository root, so the benchmark reads and writes only inside its
# checkout. Outside a checkout of the repository the build fails and the
# script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
