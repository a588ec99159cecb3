// Benchmarks that regenerate every table and figure of the TEEM paper's
// evaluation (one benchmark per artefact), plus end-to-end pipeline
// benchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark performs the complete experiment per iteration —
// simulation, baselines and rendering — so -benchtime=1x gives a full
// regeneration pass.
package teem_test

import (
	"sync"
	"testing"

	"teem"
	"teem/internal/baseline"
	"teem/internal/experiments"
	"teem/internal/mapping"
)

// env is shared across benchmarks: experiment results are cached inside,
// so individual benchmarks measure their own experiment, not repeated
// profiling of prerequisites.
var (
	envOnce sync.Once
	env     *experiments.Env
)

func sharedEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		e, err := experiments.NewEnv()
		if err != nil {
			b.Fatal(err)
		}
		env = e
	})
	return env
}

var fig5Mapping = teem.Mapping{Big: 4, Little: 2, UseGPU: true}

// BenchmarkFig1Motivation regenerates Fig. 1: ondemand+TMU vs TEEM on
// COVARIANCE (2L+3B, partition 1024/2048), traces included.
func BenchmarkFig1Motivation(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := e.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		if r.TEEM.ExecTimeS >= r.Ondemand.ExecTimeS {
			b.Fatalf("shape violated: TEEM %.1fs vs ondemand %.1fs", r.TEEM.ExecTimeS, r.Ondemand.ExecTimeS)
		}
		_ = r.Render()
	}
}

// BenchmarkFig3ScatterMatrix regenerates the Fig. 3 profiling dataset and
// its matrix scatterplot.
func BenchmarkFig3ScatterMatrix(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		m, err := e.ProfileApp("COVARIANCE")
		if err != nil {
			b.Fatal(err)
		}
		if s := m.Fig3(); len(s) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkTableIRegression regenerates Table I (full model, 4 predictors
// on 12 residual DF).
func BenchmarkTableIRegression(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		m, err := e.ProfileApp("COVARIANCE")
		if err != nil {
			b.Fatal(err)
		}
		if m.Model.FullModel.DFResidual != 12 {
			b.Fatalf("df = %d, want 12", m.Model.FullModel.DFResidual)
		}
		_ = m.TableI()
	}
}

// BenchmarkTableIIRegression regenerates Table II (log-transformed model,
// 2 predictors on 13 residual DF).
func BenchmarkTableIIRegression(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		m, err := e.ProfileApp("COVARIANCE")
		if err != nil {
			b.Fatal(err)
		}
		if m.Model.Model.DFResidual != 13 {
			b.Fatalf("df = %d, want 13", m.Model.Model.DFResidual)
		}
		_ = m.TableII()
	}
}

// BenchmarkFig4Residuals regenerates the Fig. 4 residuals-vs-fitted plot.
func BenchmarkFig4Residuals(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		m, err := e.ProfileApp("COVARIANCE")
		if err != nil {
			b.Fatal(err)
		}
		if s := m.Fig4(); len(s) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig5aEnergy regenerates Fig. 5(a): per-app energy of EEMP, RMP
// and TEEM at 2L+4B.
func BenchmarkFig5aEnergy(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := e.Fig5(fig5Mapping)
		if err != nil {
			b.Fatal(err)
		}
		vsEEMP, _ := r.EnergySavings()
		if vsEEMP <= 0 {
			b.Fatalf("shape violated: TEEM energy saving vs EEMP %.2f%%", 100*vsEEMP)
		}
		_ = r.RenderEnergy()
	}
}

// BenchmarkFig5bThermal regenerates Fig. 5(b): per-app temperature and the
// thermal-variance reductions.
func BenchmarkFig5bThermal(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := e.Fig5(fig5Mapping)
		if err != nil {
			b.Fatal(err)
		}
		vsEEMP, _ := r.VarianceReductions()
		if vsEEMP <= 0 {
			b.Fatalf("shape violated: variance reduction %.2f%%", 100*vsEEMP)
		}
		_ = r.RenderTemperature()
	}
}

// BenchmarkFig5cPerformance regenerates Fig. 5(c): per-app execution time.
func BenchmarkFig5cPerformance(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := e.Fig5(fig5Mapping)
		if err != nil {
			b.Fatal(err)
		}
		vsEEMP, vsRMP := r.PerformanceGains()
		if vsEEMP <= 0 || vsRMP <= 0 {
			b.Fatalf("shape violated: gains %.1f%%/%.1f%%", 100*vsEEMP, 100*vsRMP)
		}
		_ = r.RenderPerformance()
	}
}

// benchFig5Workers regenerates the full Fig. 5 evaluation (eight apps ×
// three approaches, profiling included) from a cold environment with the
// given worker-pool bound. Unlike the cached figure benchmarks above it
// measures the complete uncached evaluation, so the serial/parallel pair
// exposes the worker-pool speedup in the perf trajectory.
func benchFig5Workers(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		e, err := experiments.NewEnvWith(experiments.Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		r, err := e.Fig5(fig5Mapping)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 8 {
			b.Fatalf("%d rows, want 8", len(r.Rows))
		}
	}
}

// BenchmarkFig5Serial is the one-worker reference for the speedup.
func BenchmarkFig5Serial(b *testing.B) { benchFig5Workers(b, 1) }

// BenchmarkFig5Parallel runs the same evaluation on one worker per CPU;
// the ratio to BenchmarkFig5Serial is the parallel engine's speedup.
func BenchmarkFig5Parallel(b *testing.B) { benchFig5Workers(b, 0) }

// BenchmarkMemoryFootprint regenerates the §V.D storage comparison
// (128 table entries vs model + ETGPU).
func BenchmarkMemoryFootprint(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		m := e.Memory()
		if m.ByteSaving < 0.9 {
			b.Fatalf("saving %.3f below the abstract's 90%%", m.ByteSaving)
		}
		_ = m.Render()
	}
}

// BenchmarkDesignPointEnumeration walks the full Eq. (2) × 9 design space
// (257 040 points) and materialises the 10 368-point diverse subset.
func BenchmarkDesignPointEnumeration(b *testing.B) {
	sp, err := teem.NewSpace(teem.Exynos5422())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		sp.EnumerateAll(func(mapping.DesignPoint) bool {
			n++
			return true
		})
		if n != 257040 {
			b.Fatalf("enumerated %d, want 257040", n)
		}
		if got := len(sp.DiverseSubset()); got != 10368 {
			b.Fatalf("subset %d, want 10368", got)
		}
	}
}

// BenchmarkAblationThreshold sweeps the software threshold (the design
// choice behind the paper's 85 °C).
func BenchmarkAblationThreshold(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		pts, err := e.ThresholdSweep([]float64{80, 85, 90})
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 3 {
			b.Fatal("sweep incomplete")
		}
	}
}

// BenchmarkAblationDelta sweeps the δ step (paper: 200 MHz).
func BenchmarkAblationDelta(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.DeltaSweep([]int{100, 200, 400}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFloor sweeps the frequency floor (paper: 1400 MHz).
func BenchmarkAblationFloor(b *testing.B) {
	e := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.FloorSweep([]int{1000, 1400, 1800}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOfflineProfile measures the complete offline phase for one
// application (16 profiling runs, whose 2L+3B run doubles as the 17th
// observation, + ETGPU + two regression fits).
func BenchmarkOfflineProfile(b *testing.B) {
	plat := teem.Exynos5422()
	net := teem.Exynos5422Thermal()
	for i := 0; i < b.N; i++ {
		mgr, err := teem.NewManager(plat, net, teem.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mgr.Profile(teem.Covariance()); err != nil {
			b.Fatal(err)
		}
	}
}

// A profiling measurement is reduced to four numbers, so it keeps no
// trace: the offline phase must stay under a fixed byte budget, or a
// per-run time series (1.5 MB/op when every run kept one) has come back.
func TestOfflineProfileAllocBudget(t *testing.T) {
	const budget = 800 << 10
	if got := testing.Benchmark(BenchmarkOfflineProfile).AllocedBytesPerOp(); got > budget {
		t.Errorf("the offline phase allocates %d B/op, budget %d B", got, budget)
	}
}

// BenchmarkOnlinePipeline measures a complete online execution: decision
// plus the regulated run, on a pre-profiled manager.
func BenchmarkOnlinePipeline(b *testing.B) {
	plat := teem.Exynos5422()
	net := teem.Exynos5422Thermal()
	mgr, err := teem.NewManager(plat, net, teem.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	app := teem.Covariance()
	model, err := mgr.Profile(app)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := mgr.Run(app, model.ETGPUSec/2, 85)
		if err != nil {
			b.Fatal(err)
		}
		if res.ThrottleEvents != 0 {
			b.Fatal("TEEM tripped the TMU")
		}
	}
}

// BenchmarkTableLookupVsModel is the ablation behind §V.D: evaluating the
// stored regression model versus searching a 128-entry design-point table
// for an online decision.
func BenchmarkTableLookupVsModel(b *testing.B) {
	plat := teem.Exynos5422()
	net := teem.Exynos5422Thermal()

	b.Run("model", func(b *testing.B) {
		mgr, err := teem.NewManager(plat, net, teem.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		app := teem.Covariance()
		if _, err := mgr.Profile(app); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mgr.Decide(app.Name, 35, 85); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("table", func(b *testing.B) {
		eemp, err := baseline.NewEEMP(plat, net, fig5Mapping)
		if err != nil {
			b.Fatal(err)
		}
		app := teem.Covariance()
		if _, err := eemp.BuildTable(app); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eemp.Decide(app, 35); err != nil {
				b.Fatal(err)
			}
		}
	})
}
