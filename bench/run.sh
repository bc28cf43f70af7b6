#!/bin/sh
# Builds the benchmark driver and runs it with every argument passed
# through. Run it from the repository root:
#
#	sh bench/run.sh -seed 1 -o run.json
#	sh bench/run.sh --workload warm --seed 3 --seconds 15 --trace 0
#	sh bench/run.sh compare A*.json -- B*.json
#
# Go's build cache, module cache, temporary files and configuration all
# live under .bench_build, so the benchmark writes nothing outside the
# checkout and never reaches the network.
set -eu
root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gopath/pkg/mod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
