#!/usr/bin/env bash
# Builds and runs vzbench from the repository root:
#
#   bash cmd/vzbench/run.sh --workload query_mix --seed 1 --seconds 10 --trace 0
#   bash cmd/vzbench/run.sh                      # every workload, untraced and traced
#
# vzbench is its own Go module (it imports the repository's internal
# packages through a replace directive), so it is built from its own
# directory. Go's build cache, temporary files and the benchmark's
# scratch state all live under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/vzserve || ! -f cmd/vzbench/go.mod ]]; then
	echo "vzbench: run from the repository root (needs go.mod, cmd/vzserve and cmd/vzbench)" >&2
	exit 2
fi

out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME"

(cd cmd/vzbench && go build -o "$out/bin/vzbench" .)
exec "$out/bin/vzbench" -root "$PWD" -work "$out/work" "$@"
