#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments (see perfbench/README.md). Everything the build and
# the run write stays under .bench_build/ in the checkout.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/config"
# GOTOOLCHAIN=local: never fetch a toolchain; GOFLAGS is cleared so the
# caller's settings cannot change how the module resolves.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" "$@"
