package sim_test

import (
	"testing"

	"teem/internal/mapping"
	"teem/internal/platform"
	"teem/internal/sim"
	"teem/internal/workload"
)

// BenchmarkEngineNew measures one sim.New on a warm system, one an
// earlier engine already compiled: the content key's hash and comparison
// plus what each engine allocates for itself. It runs on a 4-node network
// (exynos5422) and an 8-node one (harrier-s16).
func BenchmarkEngineNew(b *testing.B) {
	for _, name := range []string{"exynos5422", "harrier-s16"} {
		b.Run(name, func(b *testing.B) {
			bundle, err := platform.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			cfg := sim.Config{
				Platform: bundle.SoC,
				Net:      bundle.Net,
				App:      workload.Covariance(),
				Map:      mapping.Mapping{Big: 2, Little: 2, UseGPU: true},
				Part:     mapping.Partition{Num: 4, Den: 8},
			}
			if _, err := sim.New(cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := sim.New(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
