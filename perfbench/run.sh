#!/usr/bin/env bash
# Builds the benchmark and the programs it drives (cmd/experiments,
# cmd/cohsimd) from the sources of this checkout, then runs it. Every
# build product, Go cache entry and run output stays under .bench_build/
# in the checkout.
#
# Usage, from the checkout root:
#
#	bash perfbench/run.sh --workload noise_full --seed 1 --seconds 20 --trace 0
#	bash perfbench/run.sh --workload all --seed 1            # every workload, one table
#	bash perfbench/run.sh --workload all --repeat 10         # steadiness report
#	bash perfbench/run.sh --compare A.json B.json            # same-host comparison
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/experiments" || ! -d "$root/cmd/cohsimd" ]]; then
	echo "perfbench: run from the root of a coherentleak checkout (go.mod, cmd/experiments and cmd/cohsimd are missing here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# Keep the Go toolchain's caches, configuration and telemetry, and every
# temporary file, inside the checkout; never reach the network.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

# The revision stamp: git when the checkout is a repository, else empty
# (the benchmark then stamps a digest of the source tree only).
rev=
if [[ -e "$root/.git" ]]; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi

go build -o "$build/bin/experiments" ./cmd/experiments
go build -o "$build/bin/cohsimd" ./cmd/cohsimd
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" --root "$root" --bin "$build/bin" --rev "$rev" "$@"
