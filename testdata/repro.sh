#!/usr/bin/env bash
# Regenerates the reproduction outputs pinned under testdata/repro/ into
# the directory given as the only argument. `make repro-gate` writes them
# into a temporary directory and diffs it against testdata/repro/;
# `make repro-golden` rewrites testdata/repro/ itself, for a change that
# moves an output on purpose.
#
# The set covers the command and example outputs that depend on the
# simulator's physics and are not pinned elsewhere (teemreport and the
# scenario grid renders have their own golden tests): teemcal on every
# catalog platform, the scenario corpus on one platform, on the whole
# catalog under both integrators and on merlin-m3, the engine flight
# recorders of the catalog grid, teemsim's CSV and charts, and the
# campaign, multiapp, adaptation, motivation, quickstart, designspace and
# customplatform examples. examples/kernels is left out: it prints
# wall-clock timings.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: $0 OUTDIR" >&2
	exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT

cd "$root"
go build -o "$bin/" ./cmd/teemcal ./cmd/teemscenario ./cmd/teemsim \
	./examples/campaign ./examples/multiapp ./examples/adaptation ./examples/motivation \
	./examples/quickstart ./examples/designspace ./examples/customplatform

for p in $("$bin/teemscenario" -list | awk '/^platforms:/ { on = 1; next } /^[a-z]+:/ { on = 0 } on && NF { print $1 }'); do
	"$bin/teemcal" -platform "$p" >"$out/teemcal.$p.txt"
done
"$bin/teemcal" -app SR -big 4 -little 4 >"$out/teemcal.SR-4b4l.txt"

"$bin/teemscenario" -govs ondemand,teem >"$out/teemscenario.txt"
"$bin/teemscenario" -platforms all -govs ondemand,teem >"$out/teemscenario.all.txt"
"$bin/teemscenario" -platforms all -govs ondemand,teem -integrator euler >"$out/teemscenario.all.euler.txt"
"$bin/teemscenario" -platform merlin-m3 -govs teem >"$out/teemscenario.merlin-m3.txt"
# Tick, jump, walk, rejection and TMU counts pin every superstep decision.
# Phase wall times are host timings and the cache hit/miss splits depend
# on what ran before in the process, so those lines are dropped.
"$bin/teemscenario" -stats -platforms all -govs ondemand,teem -workers 1 |
	grep -v -e 'phase wall' -e 'caches (hit/miss)' >"$out/teemscenario.all.stats.txt"

# Run from the output directory so the path teemsim reports is relative.
(cd "$out" && "$bin/teemsim" -csv sim.csv >teemsim.csv.txt)
"$bin/teemsim" -cold -chart >"$out/teemsim.cold-chart.txt"
"$bin/teemsim" -app SR -governor ondemand -chart >"$out/teemsim.SR-ondemand-chart.txt"

"$bin/campaign" >"$out/example.campaign.txt"
"$bin/multiapp" >"$out/example.multiapp.txt"
"$bin/adaptation" >"$out/example.adaptation.txt"
"$bin/motivation" >"$out/example.motivation.txt"
"$bin/quickstart" >"$out/example.quickstart.txt"
"$bin/designspace" >"$out/example.designspace.txt"
"$bin/customplatform" >"$out/example.customplatform.txt"
