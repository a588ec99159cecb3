package scenario

import (
	"context"
	"testing"

	"teem/internal/platform"
)

// BenchmarkScenarioRun executes the rush-hour combination scenario
// (multi-app arrivals, ambient step, governor switch) end to end — the
// scenario engine's entry in the BENCH_<date>.json perf trajectory.
func BenchmarkScenarioRun(b *testing.B) {
	sc := RushHour()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := Run(sc, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Sim.Completed {
			b.Fatal("scenario did not complete")
		}
	}
}

// BenchmarkScenarioPreempt executes the preempt-storm preset — nested
// priority preemptions with suspend/resume through the job queue — the
// preemptive scheduler's entry in the BENCH_<date>.json perf trajectory.
func BenchmarkScenarioPreempt(b *testing.B) {
	sc := PreemptStorm()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := Run(sc, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Sim.Completed {
			b.Fatal("preempt-storm did not complete")
		}
	}
}

// BenchmarkScenarioGrid measures the scenario × governor fan-out across
// the worker pool (presets × stock governors).
func BenchmarkScenarioGrid(b *testing.B) {
	scs := Presets()
	govs := []string{"ondemand", "teem"}
	for i := 0; i < b.N; i++ {
		g, err := RunGrid(scs, govs, Config{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if g.Violations() != 0 {
			b.Fatal("preset grid violated assertions")
		}
	}
}

// BenchmarkScenarioGridPlatforms measures the full three-axis fan-out —
// platform × scenario × governor — across the worker pool: every catalog
// platform running the sunlight and core-loss presets under the ondemand
// baseline and the TEEM controller. The hardware axis's entry in the
// BENCH_<date>.json perf trajectory.
func BenchmarkScenarioGridPlatforms(b *testing.B) {
	plats := platform.Names()
	scs := []*Scenario{Sunlight(), CoreLoss()}
	govs := []string{"ondemand", "teem"}
	for i := 0; i < b.N; i++ {
		g, err := RunPlatformGrid(plats, scs, govs, Config{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if g.Violations() != 0 {
			b.Fatal("platform grid violated assertions")
		}
	}
}

// BenchmarkScenarioSweepSerial runs the whole catalog × Presets() ×
// GovernorNames() grid on one worker: the engine work of one
// scenario-sweep pass, without the fan-out or a host-speed scale. Beside
// the time it reports, summed over the cells of a pass, the ordinary
// ticks (ticks neither jumped, segmented nor walked) and the governor
// epochs ticked: the re-planning the superstep path leaves, which repeats
// exactly from run to run.
func BenchmarkScenarioSweepSerial(b *testing.B) {
	plats, scs, govs := platform.Names(), Presets(), GovernorNames()
	b.ReportAllocs()
	var ordinary, epochs int64
	for i := 0; i < b.N; i++ {
		g, err := RunPlatformGrid(plats, scs, govs, Config{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, plane := range g.Cells {
			for _, row := range plane {
				for _, c := range row {
					if c.Sim == nil {
						b.Fatalf("cell %s/%s/%s failed: %v", c.Platform, c.Scenario, c.Governor, c.Violations)
					}
					ordinary += c.Sim.Stats.Ticks - c.Sim.Stats.WalkedTicks
					epochs += c.Sim.Stats.GovernorEpochs
				}
			}
		}
	}
	b.ReportMetric(float64(ordinary)/float64(b.N), "ordinary-ticks/op")
	b.ReportMetric(float64(epochs)/float64(b.N), "epochs/op")
}

// gridCellAllocs is what one warm grid cell allocates — rush-hour under
// the TEEM controller on exynos5422, its scenario compiled and bound
// once and its engine rebuilt from a retired one: the Result, the cell
// and its timeline callback, the two governors, the engine's job list
// (three appends) and the sim Result with its peaks (65 when every cell
// built its engine from nothing, 35 when every cell compiled its
// scenario).
const gridCellAllocs = 10

// BenchmarkGridCell measures one scenario grid cell as RunPlatformGrid
// runs it (no trace) on an engine rebuilt from a retired one. It fails
// when the cell allocates more than gridCellAllocs objects.
func BenchmarkGridCell(b *testing.B) {
	bundle, err := platform.Get("exynos5422")
	if err != nil {
		b.Fatal(err)
	}
	cell, rc := bindOn(b, RushHour(), bundleHardware(bundle)), Config{Governor: "teem"}
	run := func() {
		if _, err := cell.run(context.Background(), rc, true); err != nil {
			b.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(10, run); n > gridCellAllocs {
		b.Fatalf("a warm grid cell allocates %.0f objects, want at most %d", n, gridCellAllocs)
	}
	b.ReportAllocs()
	for b.Loop() {
		run()
	}
}

// Grid cells are reduced to table rows, so they keep no trace, the
// engines share one modal form per operating point, and each scenario
// compiles once per grid: the catalog grid must stay under a fixed byte
// budget, or a per-cell time series (2.0 MB/op when every cell kept
// one), per-engine jump blocks (758 KB/op with the power-of-two block
// tables) or a compile per cell (85 KB/op) have come back.
func TestScenarioGridPlatformsAllocBudget(t *testing.T) {
	const budget = 64 << 10
	if got := testing.Benchmark(BenchmarkScenarioGridPlatforms).AllocedBytesPerOp(); got > budget {
		t.Errorf("the catalog grid allocates %d B/op, budget %d B", got, budget)
	}
}

// BenchmarkScenarioReplaySparse measures the event-horizon superstep
// path on its canonical workload: the sparse-replay trace, where four
// short jobs punctuate a ten-minute horizon of idle. Nearly every tick
// lies in a provably steady interval, so the engine jumps them in
// precomputed propagator applications (see docs/integrators.md). Pairs
// with BenchmarkScenarioReplaySparseFixed for the speedup ratio tracked
// in BENCH_<date>.json.
func BenchmarkScenarioReplaySparse(b *testing.B) {
	sc := SparseReplay()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := Run(sc, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Sim.Completed {
			b.Fatal("sparse replay did not complete")
		}
	}
}

// BenchmarkScenarioReplaySparseFixed runs the same sparse-replay trace
// with supersteps disabled — the per-tick baseline the superstep path is
// measured against.
func BenchmarkScenarioReplaySparseFixed(b *testing.B) {
	sc := SparseReplay()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := Run(sc, Config{DisableSuperstep: true})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Sim.Completed {
			b.Fatal("sparse replay did not complete")
		}
	}
}
