package scenario

import (
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

// Grid cells are reduced to table rows, so they keep no trace: the
// catalog grid must stay under a fixed byte budget, or a per-cell time
// series (2.0 MB/op when every cell kept one) has come back.
func TestScenarioGridPlatformsAllocBudget(t *testing.T) {
	const budget = 1 << 20
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
