#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#   bash bench/run.sh --workload serve_mixed --seed 1 --seconds 15 --trace 0
# Everything the build leaves behind (Go build cache, module cache, the
# toolchain's own config and counters, the binary) and every trace file
# goes under bench/out, inside the checkout. In a directory without the
# repository's go.mod and internal/ packages the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/bench" .)
exec "$out/bench" -out "$out" "$@"
