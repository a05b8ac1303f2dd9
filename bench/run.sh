#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run it
# from the repository root:
#
#   bash bench/run.sh -workload wide-dag -seed 1 -seconds 25 -trace 0
#
# The binary and the Go build cache live in bench/.bench_build/, so a build
# writes nothing outside the checkout. Module downloads are off: the
# benchmark needs no module beyond the checkout's own.
set -euo pipefail

out="$PWD/bench/.bench_build"
mkdir -p "$out/cache" "$out/tmp"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

go build -C bench -o "$out/legato-bench" .
exec "$out/legato-bench" "$@"
