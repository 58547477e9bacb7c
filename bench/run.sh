#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments, for example:
#
#   bash bench/run.sh --workload device-quiet --seed 42 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, fleet manifests) stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (needs go.mod and bench/go.mod)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

go -C bench build -o "$out/vrlbench" .
exec "$out/vrlbench" -workdir "$out/work" "$@"
