package sim

import (
	"testing"

	"teem/internal/mapping"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

// BenchmarkEngineSecond measures one second of co-simulation (100 ticks of
// workload + power + thermal + metering).
func BenchmarkEngineSecond(b *testing.B) {
	cfg := Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		App:      workload.Covariance(),
		Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part:     mapping.Partition{Num: 4, Den: 8},
		MaxTimeS: 1.0,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRun measures a complete end-to-end run of the Fig. 1
// workload at fixed frequencies: engine construction plus the full tick
// loop until the application finishes (~17 s of simulated time).
func BenchmarkSimRun(b *testing.B) {
	cfg := Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		App:      workload.Covariance(),
		Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part:     mapping.Partition{Num: 4, Den: 8},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("run did not complete")
		}
	}
}

// BenchmarkRunWarmCovariance measures a complete steady-regime protocol
// run of the Fig. 1 configuration.
func BenchmarkRunWarmCovariance(b *testing.B) {
	cfg := Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		App:      workload.Covariance(),
		Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part:     mapping.Partition{Num: 4, Den: 8},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunWarm(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// warmRunAllocs is what one RunWarm of a DiscardTrace configuration
// allocates once both its engines are rebuilt from retired ones: the
// regime, and the measured run's job list and Result with its peaks (57
// when every engine was built from nothing, 6 when the warm start
// solved into a new slice and the warm-up listed its finished job).
const warmRunAllocs = 4

// BenchmarkRunWarmDiscard measures RunWarm of the Fig. 1 configuration
// with DiscardTrace, as profiling runs and sweep points call it, on
// engines rebuilt from retired ones. It fails when a run allocates more
// than warmRunAllocs objects.
func BenchmarkRunWarmDiscard(b *testing.B) {
	cfg := Config{
		Platform:     soc.Exynos5422(),
		Net:          thermal.Exynos5422Network(),
		App:          workload.Covariance(),
		Map:          mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part:         mapping.Partition{Num: 4, Den: 8},
		DiscardTrace: true,
	}
	run := func() {
		if _, err := RunWarm(cfg); err != nil {
			b.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(10, run); n > warmRunAllocs {
		b.Fatalf("a warm RunWarm allocates %.0f objects, want at most %d", n, warmRunAllocs)
	}
	b.ReportAllocs()
	for b.Loop() {
		run()
	}
}
