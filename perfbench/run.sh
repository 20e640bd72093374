#!/usr/bin/env bash
# Builds the repository benchmark from the sources of the checkout it is
# run in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload catalog-cold --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build product (the Go build
# cache included) stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
bin="$out/perfbench"
go -C "$root/perfbench" build -o "$bin.$$" .
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
