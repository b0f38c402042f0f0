#!/usr/bin/env bash
# Builds phxbench from the checkout it sits in and runs it, passing every
# argument through. Run from the repository root:
#
#   bash _bench/run.sh --workload kv-serve --seed 1 --seconds 12 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the repository root, so a run writes nothing outside it,
# and the build never reaches for the network: the module needs nothing but
# the repository itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off GOSUMDB=off
go -C _bench build -o "$out/phxbench" .
exec "$out/phxbench" "$@"
