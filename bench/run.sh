#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of a
# checkout: bash bench/run.sh [flags]. The Go build cache, the binary and
# the workers' sockets all stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/bench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: run from the root of a jkernel checkout (need ./go.mod and ./bench/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gotmp"
# Everything the toolchain writes stays in the checkout (build cache, temp
# files, its own usage counters under XDG_CONFIG_HOME); nothing is fetched.
export TMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" \
	GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/jkbench" .)
exec "$build/jkbench" "$@"
