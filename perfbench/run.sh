#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload:
#
#   bash perfbench/run.sh --workload randwrite-4k --seed 1 --seconds 25 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) goes under .bench_build at the checkout root. The build fails,
# and the script exits non-zero without printing a result, when the
# simulator's sources are not beside the benchmark.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod XDG_CONFIG_HOME=$build/config
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

go build -C "$root/perfbench" -buildvcs=false -o "$build/perfbench" .

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" --commit "$commit" "$@"
