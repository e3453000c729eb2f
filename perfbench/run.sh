#!/usr/bin/env bash
# Builds lgserve and the benchmark from this source tree, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build and module caches, temporary files and
# trace files all stay under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$out/bin" "$out/tmp"
# The go command otherwise starts a detached telemetry upload process the
# first time it runs with a fresh config directory, and never waits for it.
go telemetry off >&2

go build -o "$out/bin/lgserve" ./cmd/lgserve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --lgserve "$out/bin/lgserve" --out "$out/trace" "$@"
