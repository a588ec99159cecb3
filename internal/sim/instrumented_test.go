package sim

import (
	"strings"
	"testing"

	"teem/internal/mapping"
	"teem/internal/obs"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

// The flight recorder must be free in the hot loop: counters are plain
// increments and the per-phase wall clocks read a pre-acquired function
// pointer, so even the fully instrumented tick — Clock wired to
// obs.Nanotime — allocates nothing.
func TestInstrumentedTickZeroAllocs(t *testing.T) {
	e, err := New(Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		App:      workload.Covariance(),
		Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part:     mapping.Partition{Num: 4, Den: 8},
		Clock:    obs.Nanotime,
	})
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.01
	e.govEvery = 0
	e.recEvery = 10
	for i := 0; i < 50; i++ {
		if _, err := e.tick(dt); err != nil {
			t.Fatal(err)
		}
		e.timeTicks++
	}
	if avg := testing.AllocsPerRun(2000, func() {
		if _, err := e.tick(dt); err != nil {
			t.Fatal(err)
		}
		e.timeTicks++
	}); avg != 0 {
		t.Errorf("instrumented tick allocates %.3f objects/op, want 0", avg)
	}
	if e.stats.Ticks == 0 {
		t.Error("flight recorder did not count ticks")
	}
	if e.stats.ThermalNanos <= 0 || e.stats.PowerNanos <= 0 {
		t.Errorf("phase wall clocks did not advance: thermal=%d power=%d",
			e.stats.ThermalNanos, e.stats.PowerNanos)
	}
}

// A full run must surface a self-consistent flight recorder on its
// Result: every simulated tick is either stepped or jumped, and the
// superstep bookkeeping agrees with itself.
func TestRunStatsConsistent(t *testing.T) {
	cfg := Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		App:      workload.Covariance(),
		Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part:     mapping.Partition{Num: 4, Den: 8},
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Ticks == 0 {
		t.Fatal("no ticks counted")
	}
	if st.Supersteps > 0 && st.SuperstepTicks == 0 {
		t.Error("supersteps counted but no jumped ticks")
	}
	if st.MaxJump > st.SuperstepTicks {
		t.Errorf("max jump %d exceeds total jumped ticks %d", st.MaxJump, st.SuperstepTicks)
	}
	if st.ThermalNanos != 0 {
		t.Errorf("wall timing recorded without a Clock: %d ns", st.ThermalNanos)
	}
	if !strings.Contains(st.String(), "ticks advanced") {
		t.Errorf("render looks wrong:\n%s", st.String())
	}

	// A second identical engine reuses the cached propagator.
	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.PropCacheHits == 0 {
		t.Error("second engine over the same system did not hit the propagator cache")
	}
}

// BenchmarkInstrumentedTick is BenchmarkSimRun with the flight
// recorder's wall clocks enabled — the overhead comparison pair for the
// ≤2% instrumentation budget.
func BenchmarkInstrumentedTick(b *testing.B) {
	cfg := Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		App:      workload.Covariance(),
		Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part:     mapping.Partition{Num: 4, Den: 8},
		Clock:    obs.Nanotime,
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

// A mixed-direction probe — some nodes heating while others cool, as
// near equilibrium — is its own rejection reason, not work depletion:
// an idle run has no work to deplete, so every refusal of that kind
// must land under RejectMixed.
func TestMixedDirectionRejectionsCounted(t *testing.T) {
	plat := soc.Exynos5422()
	amb := plat.AmbientC
	e, err := New(Config{
		Platform: plat,
		Net:      thermal.Exynos5422Network(),
		Map:      mapping.Mapping{Big: 4, Little: 4, UseGPU: true},
		MinTimeS: 60,
		// A hot big cluster cools while its idle neighbours warm up.
		InitialTempsC: []float64{80, amb, amb, amb},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.RejectMixed == 0 {
		t.Errorf("no mixed-direction rejection counted: %+v", st)
	}
	if st.RejectWork != 0 {
		t.Errorf("idle run counted %d work-depletion rejections", st.RejectWork)
	}
}
