#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's sources and runs it
# with the given arguments (see perfbench/README.md). Everything the build
# and the run write stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/modcache"
export GOENV=off
export TMPDIR="$out/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" -root "$root" "$@"
