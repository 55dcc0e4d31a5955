#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on (see README.md):
#
#   bash perfbench/run.sh --workload cluster-rw --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the span dumps stay under .bench_build
# in the current directory, and the Go toolchain never touches the network.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/perfbench"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .) >&2
exec "$out/perfbench/perfbench" "$@"
