#!/bin/sh
# Builds the benchmark and ipaserver from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload wire-tpcb --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare old-results/ new-results/
#
# Everything the build writes (binaries, Go build cache, temporary files)
# stays under .bench_build in the checkout, and the build never reaches
# the network: the benchmark needs nothing beyond the repository and the
# Go toolchain.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off \
	XDG_CONFIG_HOME="$out/config"
cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/ipaserver" ipa/cmd/ipaserver
cd "$root"
exec "$out/perfbench" "$@"
