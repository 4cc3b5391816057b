#!/bin/sh
# Builds perfbench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   sh perfbench/run.sh --workload hot-invoke --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temporaries, the go
# command's own config and telemetry files) stays in .bench_build/ under the
# checkout; the toolchain must not reach the network.
set -eu
if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ not found)" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench-bin" .) >&2
exec "$build/perfbench-bin" "$@"
