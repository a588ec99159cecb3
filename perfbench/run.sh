#!/usr/bin/env bash
# Builds the benchmark and the teemd daemon from this checkout, then
# runs one workload:
#
#   bash perfbench/run.sh --workload paper-repro --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ at the root
# of the checkout: binaries, the Go build cache, daemon logs, journals
# and span files. The last line of standard output is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal || ! -d cmd/teemd ]]; then
	echo "perfbench: $root is not a teem source checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/home/.config" "$out/run"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd perfbench && go build -o "$out/bin/" . teem/cmd/teemd) >&2

exec "$out/bin/perfbench" -rundir "$out/run" -teemd "$out/bin/teemd" "$@"
