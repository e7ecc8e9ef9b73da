#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it.
# Everything the build and the run write (Go build cache, binary, WAL
# directories, span dumps) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
# The go command's own files too: build cache, module cache, telemetry
# counters (under the user configuration directory); never a download.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/skute-bench" .
exec "$out/skute-bench" -contract "$root/BENCHMARK.json" -workdir "$out/work" "$@"
