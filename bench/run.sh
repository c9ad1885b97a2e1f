#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the repository root. Everything the go tool writes (build cache, work
# directories, its telemetry counters, the binary) goes under
# .bench_build/, which .gitignore names. bench/ is its own module
# (ipsa/bench) that replaces the parent module with ../, so without the
# repository around it the build fails and this script exits non-zero
# before printing any result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOWORK=off GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/ipsa-bench" .)
cd "$root"
exec "$build/ipsa-bench" "$@"
