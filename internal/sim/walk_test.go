package sim_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"teem/internal/mapping"
	"teem/internal/obs"
	"teem/internal/platform"
	"teem/internal/sim"
	"teem/internal/workload"
)

// maxGov re-requests every cluster's maximum frequency every 30 ms. It is
// deliberately not util-only and its period is shorter than the shortest
// jump, so no horizon ever reaches one: every tick of a run under it is
// either an ordinary tick or a walked one.
type maxGov struct{}

func (maxGov) Name() string              { return "test-max" }
func (maxGov) PeriodS() float64          { return 0.03 }
func (maxGov) Start(m sim.Machine) error { return maxGov{}.Act(m) }
func (maxGov) Act(m sim.Machine) error {
	for _, c := range m.Platform().Clusters {
		if err := m.SetClusterFreqMHz(c.Name, c.MaxFreqMHz()); err != nil {
			return err
		}
	}
	return nil
}

// walkStarts holds each catalog platform's start for walkConfig: the
// big node's temperature and that of every node no cluster heats. Each
// puts the lowered trip within reach, so every platform trips, and all
// but harrier-s16, whose capped big node stays above the release point,
// release too.
var walkStarts = map[string]struct{ bigC, boardC float64 }{
	"exynos5410":  {70, 46},
	"exynos5422":  {84, 60},
	"harrier-s16": {30, 25},
	"kestrel-e2":  {55, 31},
	"merlin-m3":   {65, 41},
	"sparrow-e1":  {55, 31},
}

// walkConfig is a run on the named catalog platform that only walks or
// ticks: maxGov holds maximum frequency from a start just under a trip
// lowered to the big node's start + 1 °C (release 5 °C lower), while the
// other clusters start cold, below the 25 °C leakage reference.
func walkConfig(t testing.TB, name string, disable bool) sim.Config {
	t.Helper()
	b, err := platform.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	start, ok := walkStarts[name]
	if !ok {
		t.Fatalf("no walk start for catalog platform %s", name)
	}
	plat := b.SoC
	plat.TripC, plat.TripReleaseC = start.bigC+1, start.bigC-4
	temps := make([]float64, len(b.Net.Nodes))
	for i := range temps {
		temps[i] = start.boardC
	}
	for _, c := range plat.Clusters {
		temps[b.Net.NodeIndex(c.Name)] = 10
	}
	temps[b.Net.NodeIndex(plat.Big().Name)] = start.bigC
	return sim.Config{
		Platform:         plat,
		Net:              b.Net,
		App:              workload.Covariance(),
		Map:              mapping.Mapping{Big: 4, Little: 1, UseGPU: true},
		Part:             mapping.Partition{Num: 6, Den: 8},
		Governor:         maxGov{},
		InitialTempsC:    temps,
		DisableSuperstep: disable,
	}
}

// A steady walk is the ordinary tick's own arithmetic, not an
// approximation of it: on every catalog platform — the fused 4-node
// loop and the general loop on 5 and 8 nodes — a run that walks must
// equal its DisableSuperstep twin with == on every Result field and
// every trace sample, through TMU trips and releases and below the
// leakage reference.
func TestSuperstepWalkMatchesTick(t *testing.T) {
	for _, name := range platform.Names() {
		t.Run(name, func(t *testing.T) {
			run := func(disable bool) (*sim.Engine, *sim.Result) {
				e, err := sim.New(walkConfig(t, name, disable))
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
				t.Fatal("the run never tripped the TMU; the walk's trip stop is untested")
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
			// Every Result field but the flight recorder and the trace
			// pointer, compared with == (reflect.DeepEqual compares
			// floats exactly).
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
		})
	}
}

// Record segments advance what a throttled chip would otherwise walk, to
// rounding: on every catalog platform, an idle board whose big node
// starts at 90 °C under a clamp that never releases has every span
// refused a jump. The hot node warms the others, which peak and cool
// inside segmented spans; in a 15 °C room the cluster nodes also start
// below the 25 °C leakage reference, where the floor check refuses
// segments and they are walked. Against the DisableSuperstep twin, the
// throttle events and every sample instant are equal, and the per-node
// peaks, the final temperatures and every sample's temperatures and
// power agree within 1e-9.
func TestSuperstepSegmentsMatchTicks(t *testing.T) {
	for _, name := range platform.Names() {
		for _, cold := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cold=%v", name, cold), func(t *testing.T) {
				testSegmentsMatchTicks(t, name, cold)
			})
		}
	}
}

func testSegmentsMatchTicks(t *testing.T, name string, cold bool) {
	run := func(disable bool) (*sim.Engine, *sim.Result) {
		b, err := platform.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		plat := b.SoC
		if cold {
			plat.AmbientC = 15
		}
		plat.TripC, plat.TripReleaseC = 60, 10
		temps := make([]float64, len(b.Net.Nodes))
		for i := range temps {
			temps[i] = plat.AmbientC
		}
		temps[b.Net.NodeIndex(plat.Big().Name)] = 90
		e, err := sim.New(sim.Config{
			Platform:         plat,
			Net:              b.Net,
			Map:              mapping.Mapping{Big: 1, UseGPU: true},
			InitialTempsC:    temps,
			MinTimeS:         60,
			DisableSuperstep: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return e, r
	}
	eS, rS := run(false)
	eT, rT := run(true)
	if (!cold && rS.Stats.SegmentTicks == 0) || (cold && rS.Stats.WalkedTicks == 0) {
		t.Fatalf("want segmented ticks in a warm room and walked ones in a cold room, got %+v", rS.Stats)
	}
	if rS.ThrottleEvents != 1 || rT.ThrottleEvents != 1 || rS.Stats.TMUReleases != rT.Stats.TMUReleases {
		t.Errorf("throttle events %d/%d, releases %d/%d", rS.ThrottleEvents, rT.ThrottleEvents, rS.Stats.TMUReleases, rT.Stats.TMUReleases)
	}
	near := func(what string, a, b []float64) {
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > 1e-9 {
				t.Errorf("%s[%d]: segmented %.12g, ticked %.12g", what, i, a[i], b[i])
			}
		}
	}
	near("PeakTempsC", rS.PeakTempsC, rT.PeakTempsC)
	near("final temperature", eS.FinalTemps(), eT.FinalTemps())
	ss, st := rS.Trace.Samples, rT.Trace.Samples
	if len(ss) != len(st) {
		t.Fatalf("trace lengths differ: segmented %d, ticked %d", len(ss), len(st))
	}
	for i := range ss {
		if ss[i].TimeS != st[i].TimeS {
			t.Fatalf("sample %d at t=%g s, ticked at %g s", i, ss[i].TimeS, st[i].TimeS)
		}
		near(fmt.Sprintf("t=%gs temperature", ss[i].TimeS), ss[i].TempsC, st[i].TempsC)
		near(fmt.Sprintf("t=%gs power", ss[i].TimeS), []float64{ss[i].PowerW}, []float64{st[i].PowerW})
	}
}

// throttledConfig is a 10 s run on the named catalog platform whose TMU
// trips on its first tick and holds its clamp: the trip is lowered under
// the chip's 40 °C start and the release under ambient, so every proven
// span is refused a jump.
func throttledConfig(b *testing.B, name string) sim.Config {
	b.Helper()
	bundle, err := platform.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	plat := bundle.SoC
	plat.TripC, plat.TripReleaseC = 30, 26
	temps := make([]float64, len(bundle.Net.Nodes))
	for i := range temps {
		temps[i] = 40
	}
	return sim.Config{
		Platform:      plat,
		Net:           bundle.Net,
		App:           workload.Covariance(),
		Map:           mapping.Mapping{Big: 4, Little: 2, UseGPU: true},
		Part:          mapping.Partition{Num: 4, Den: 8},
		InitialTempsC: temps,
		MaxTimeS:      10,
		DiscardTrace:  true,
	}
}

// timeEngines times run on b.N fresh engines of cfg. It builds them in
// batches with the timer stopped, so neither the construction nor the
// memory-statistics read each timer toggle makes lands in the timed
// region or grows with the iteration count.
func timeEngines(b *testing.B, cfg sim.Config, run func(e *sim.Engine)) {
	const batch = 64
	engines := make([]*sim.Engine, 0, batch)
	b.ResetTimer()
	b.StopTimer()
	for left := b.N; left > 0; left -= len(engines) {
		engines = engines[:0]
		for range min(batch, left) {
			e, err := sim.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			engines = append(engines, e)
		}
		b.StartTimer()
		for _, e := range engines {
			run(e)
		}
		b.StopTimer()
	}
}

// BenchmarkSteadyWalk reports what one walked tick costs, in ns per
// walked tick, on a 4-node network (exynos5422, the fused loop) and an
// 8-node one (harrier-s16, the general loop), on throttledConfig's run.
// Run would advance those spans in record segments, so sim.WalkRun
// hands every span to the walk itself. Engine construction is not timed.
func BenchmarkSteadyWalk(b *testing.B) {
	for _, name := range []string{"exynos5422", "harrier-s16"} {
		b.Run(name, func(b *testing.B) {
			cfg := throttledConfig(b, name)
			var walked, ticks int64
			timeEngines(b, cfg, func(e *sim.Engine) {
				st, err := sim.WalkRun(e, cfg.MaxTimeS)
				if err != nil {
					b.Fatal(err)
				}
				walked += st.WalkedTicks
				ticks += st.Ticks
			})
			if walked == 0 {
				b.Fatal("no tick was walked")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(walked), "ns/walked-tick")
			b.ReportMetric(float64(walked)/float64(ticks), "walked/tick")
		})
	}
}

// BenchmarkSteadySegments runs throttledConfig's run through Run, which
// advances its refused spans in record segments, and reports the cost of
// an advanced tick (ordinary, walked, segmented or jumped) and the share
// of ticks advanced in segments. Engine construction is not timed.
func BenchmarkSteadySegments(b *testing.B) {
	for _, name := range []string{"exynos5422", "harrier-s16"} {
		b.Run(name, func(b *testing.B) {
			cfg := throttledConfig(b, name)
			var segmented, advanced int64
			timeEngines(b, cfg, func(e *sim.Engine) {
				res, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				segmented += res.Stats.SegmentTicks
				advanced += res.Stats.Ticks + res.Stats.SuperstepTicks
			})
			if segmented == 0 {
				b.Fatal("no tick was advanced in a segment")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(advanced), "ns/advanced-tick")
			b.ReportMetric(float64(segmented)/float64(advanced), "segmented/tick")
		})
	}
}
