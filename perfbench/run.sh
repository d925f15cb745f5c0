#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload crash-repair --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# result files all live under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: run from the repository root (no go.mod in $root)" >&2
	exit 2
fi
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off
# XDG_CONFIG_HOME keeps the go command's own files in the checkout too.
(cd "$root/perfbench" && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
