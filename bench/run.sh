#!/usr/bin/env bash
# Driver entry point: builds the benchmark from source inside the checkout
# (build cache, temp files and the binary all live under .bench_build/) and
# runs it from the checkout root with the arguments given.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/scratch"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$out/countrymon-bench" .)
cd "$root"
exec "$out/countrymon-bench" -scratch "$out/scratch" "$@"
