#!/usr/bin/env bash
# Builds the benchmark and the ftserve daemon from this checkout, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/ftserve" repro/cmd/ftserve)
cd "$root"
exec "$out/bin/perfbench" --ftserve "$out/bin/ftserve" --out "$out" "$@"
