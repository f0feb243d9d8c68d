#!/usr/bin/env bash
# Builds the sweep benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash sweepbench/run.sh --workload fig1-n4-e3 --seed 1 --seconds 25 --trace 0
#
# Everything the build writes stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build): the Go build cache, its
# temporary files, and the go command's configuration and telemetry.
set -euo pipefail
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C sweepbench build -o "$build/sweepbench" .
# Not exec: the benchmark reads its children's peak RSS, which must not
# include the go build's.
"$build/sweepbench" "$@"
