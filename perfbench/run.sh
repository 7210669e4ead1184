#!/usr/bin/env bash
# Builds the front-door benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload live-steady --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the
# current directory: the Go build cache, temp files and the binary,
# plus the traced run's span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
