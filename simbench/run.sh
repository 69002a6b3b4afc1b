#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run from the root of
# the repository. Every build and run artefact stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/simbench"
mkdir -p "$out/gocache" "$out/config" "$out/tmp"

# Keep the Go build cache and tool state inside the checkout, and never
# reach for a network toolchain or module proxy: the module has no
# dependencies outside the repository.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/simbench" && go build -o "$out/simbench" .) >&2
exec "$out/simbench" -out "$out" "$@"
