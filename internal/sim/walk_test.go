package sim

import (
	"reflect"
	"testing"

	"teem/internal/mapping"
	"teem/internal/obs"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

// maxGov re-requests every cluster's maximum frequency every 30 ms. It is
// deliberately not util-only and its period is shorter than
// superstepMinSpan ticks, so no horizon ever reaches a jump: every tick
// of a run under it is either an ordinary tick or a walked one.
type maxGov struct{}

func (maxGov) Name() string          { return "test-max" }
func (maxGov) PeriodS() float64      { return 0.03 }
func (maxGov) Start(m Machine) error { return maxGov{}.Act(m) }
func (maxGov) Act(m Machine) error {
	for _, c := range m.Platform().Clusters {
		if err := m.SetClusterFreqMHz(c.Name, c.MaxFreqMHz()); err != nil {
			return err
		}
	}
	return nil
}

// walkConfig is a run that only walks or ticks: maxGov holds maximum
// frequency from a start just under a lowered trip point, so the TMU
// trips and releases repeatedly, while the LITTLE cluster and the GPU
// start cold and stay below the 25 °C leakage reference for the first
// second.
func walkConfig(disable bool) Config {
	plat := soc.Exynos5422()
	plat.TripC, plat.TripReleaseC = 85, 80
	return Config{
		Platform:         plat,
		Net:              thermal.Exynos5422Network(),
		App:              workload.Covariance(),
		Map:              mapping.Mapping{Big: 4, Little: 1, UseGPU: true},
		Part:             mapping.Partition{Num: 6, Den: 8},
		Governor:         maxGov{},
		InitialTempsC:    []float64{84, 10, 10, 60},
		DisableSuperstep: disable,
	}
}

// A steady walk is the ordinary tick's own arithmetic, not an
// approximation of it: a run that walks must equal its
// DisableSuperstep twin with == on every Result field and every trace
// sample, through TMU trips and releases and below the leakage
// reference.
func TestSuperstepWalkMatchesTick(t *testing.T) {
	run := func(disable bool) (*Engine, *Result) {
		e, err := New(walkConfig(disable))
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return e, r
	}
	eW, rW := run(false)
	eT, rT := run(true)
	if rW.ThrottleEvents == 0 {
		t.Fatal("the run never tripped the TMU; the walk's trip and release stops are untested")
	}
	if rW.Stats.WalkedTicks == 0 {
		t.Fatal("no tick was walked")
	}
	if rW.Stats.Supersteps != 0 {
		t.Fatalf("%d supersteps fired in a run built to jump nothing", rW.Stats.Supersteps)
	}
	if rW.Stats.Ticks != rT.Stats.Ticks || rW.Stats.GovernorEpochs != rT.Stats.GovernorEpochs ||
		rW.Stats.TMUTrips != rT.Stats.TMUTrips || rW.Stats.TMUReleases != rT.Stats.TMUReleases {
		t.Errorf("flight recorders disagree: walked %+v, ticked %+v", rW.Stats, rT.Stats)
	}
	// Every Result field but the flight recorder and the trace pointer,
	// compared with == (reflect.DeepEqual compares floats exactly).
	w, k := *rW, *rT
	w.Stats, k.Stats = obs.RunStats{}, obs.RunStats{}
	w.Trace, k.Trace = nil, nil
	if !reflect.DeepEqual(w, k) {
		t.Errorf("results differ:\nwalked %+v\nticked %+v", w, k)
	}
	if !reflect.DeepEqual(eW.FinalTemps(), eT.FinalTemps()) {
		t.Errorf("final temperatures differ: walked %v, ticked %v", eW.FinalTemps(), eT.FinalTemps())
	}
	sw, st := rW.Trace.Samples, rT.Trace.Samples
	if len(sw) != len(st) {
		t.Fatalf("trace lengths differ: walked %d, ticked %d", len(sw), len(st))
	}
	for i := range sw {
		a, b := sw[i], st[i]
		if a.TimeS != b.TimeS || a.PowerW != b.PowerW || !reflect.DeepEqual(a.TempsC, b.TempsC) ||
			!reflect.DeepEqual(a.FreqsMHz, b.FreqsMHz) || !reflect.DeepEqual(a.Utils, b.Utils) {
			t.Fatalf("sample %d differs:\nwalked %+v\nticked %+v", i, a, b)
		}
	}
}

// The warm walk must not touch the heap: like the ordinary tick it
// replaces, it only rewrites engine-owned buffers.
func TestSuperstepWalkZeroAllocs(t *testing.T) {
	done := make(chan struct{})
	defer close(done)
	e, err := New(Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		MinTimeS: 600,
		Governor: maxGov{},
		Done:     done,
	})
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.01
	e.govEvery = 3
	e.recEvery = 10
	// Room for the samples the measured steps will latch.
	e.meter.Reserve(8000)
	const maxTicks, minTicks = 60_000, 60_000
	step := func() {
		advanced, err := e.superstep(dt, maxTicks, minTicks)
		if err != nil {
			t.Fatal(err)
		}
		if !advanced {
			if _, err := e.tick(dt); err != nil {
				t.Fatal(err)
			}
			e.timeTicks++
		}
	}
	// Warm up: the first ticks and the trace's first arena block.
	for i := 0; i < 300; i++ {
		step()
	}
	before := e.stats.WalkedTicks
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Errorf("warm walk allocates %.3f objects/op, want 0", avg)
	}
	if e.stats.WalkedTicks == before {
		t.Error("the measured steps walked no tick")
	}
}
