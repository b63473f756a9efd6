#!/usr/bin/env bash
# Builds the end-to-end benchmark from the surrounding checkout and runs it.
#
#   bash e2ebench/run.sh --workload uw-ingest --seed 1 --seconds 8 --trace 0
#
# Run from the root of the checkout. Every build product and scratch file
# stays under .bench_build/ in the checkout; the Go build cache, module
# cache and toolchain configuration are redirected there too, so nothing
# outside the checkout is read for writing or written.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the root of the checkout" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" ]]; then
	echo "e2ebench: no printqueue module at the checkout root; nothing to build" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gopath" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export GOTELEMETRY=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -scratch "$out/run" "$@"
