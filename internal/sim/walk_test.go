package sim_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"teem/internal/core"
	"teem/internal/governor"
	"teem/internal/mapping"
	"teem/internal/obs"
	"teem/internal/platform"
	"teem/internal/sim"
	"teem/internal/thermal"
	"teem/internal/trace"
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

// segmentGovs are the policies TestSuperstepSegmentsMatchTicks runs
// under: none, each stock util-only policy, maxGov, which is not
// util-only, and the TEEM controller, whose 85 °C threshold the big node
// cools through from its 90 °C start.
var segmentGovs = []sim.Governor{
	nil,
	governor.Performance{},
	governor.NewOndemand(),
	governor.NewConservative(),
	&governor.Userspace{},
	maxGov{},
	core.NewController(core.DefaultParams()),
}

// govName names a segmentGovs case.
func govName(g sim.Governor) string {
	if g == nil {
		return "none"
	}
	return g.Name()
}

// Record segments advance what a throttled chip would otherwise walk, to
// rounding: on every catalog platform, an idle board whose big node
// starts at 90 °C under a clamp that never releases has every span
// refused a jump. The hot node warms the others, which peak and cool
// inside segmented spans; in a 15 °C room the cluster nodes also start
// below the 25 °C leakage reference, where the floor check refuses
// segments and they are walked. Against the DisableSuperstep twin, the
// throttle events, every frequency decision and every sample instant,
// frequency and utilisation are equal, and the per-node peaks, the final
// temperatures and every sample's temperatures and power agree within
// 1e-9. Under each governor the spans cross epochs by the rule jumps
// follow (see agreeGoverned). Two last cases per platform trip and
// release under a util-only policy (see testTripReleaseMatchesTicks) and
// jump across the TEEM controller's quiet epochs (see
// testQuietEpochsMatchTicks).
func TestSuperstepSegmentsMatchTicks(t *testing.T) {
	for _, name := range platform.Names() {
		for _, gov := range segmentGovs {
			for _, cold := range []bool{false, true} {
				sub := fmt.Sprintf("%s/cold=%v", name, cold)
				if gov != nil {
					sub = fmt.Sprintf("%s/%s/cold=%v", name, gov.Name(), cold)
				}
				t.Run(sub, func(t *testing.T) {
					testSegmentsMatchTicks(t, name, gov, cold)
				})
			}
		}
		t.Run(name+"/performance/trip-release", func(t *testing.T) {
			testTripReleaseMatchesTicks(t, name)
		})
		t.Run(name+"/teem/quiet-epochs", func(t *testing.T) {
			testQuietEpochsMatchTicks(t, name)
		})
	}
}

func testSegmentsMatchTicks(t *testing.T, name string, gov sim.Governor, cold bool) {
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
			Governor:         gov,
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
	// maxGov's epochs leave no span long enough to segment: its runs walk.
	segmented := !cold && gov != sim.Governor(maxGov{})
	if (segmented && rS.Stats.SegmentTicks == 0) || (!segmented && rS.Stats.WalkedTicks == 0) {
		t.Fatalf("want segmented ticks in a warm room and walked ones in a cold room or under %s, got %+v", govName(maxGov{}), rS.Stats)
	}
	if rS.ThrottleEvents != 1 || rT.ThrottleEvents != 1 {
		t.Errorf("throttle events %d/%d", rS.ThrottleEvents, rT.ThrottleEvents)
	}
	agreeSampled(t, gov, eS, rS, eT, rT)
}

// agreeSampled holds a run that jumps no sample away to its fixed-tick
// twin: the decisions agreeGoverned compares, the meter and the
// schedule are equal, the peaks and final temperatures agree within
// 1e-9, and the run records the twin's samples, each agreeing with it.
func agreeSampled(t *testing.T, gov sim.Governor, eS *sim.Engine, rS *sim.Result, eT *sim.Engine, rT *sim.Result) {
	t.Helper()
	agreeGoverned(t, gov, rS, rT)
	if rS.EnergyJ != rT.EnergyJ || rS.ExecTimeS != rT.ExecTimeS {
		t.Errorf("meter or schedule differ: %g J at %g s, ticked %g J at %g s", rS.EnergyJ, rS.ExecTimeS, rT.EnergyJ, rT.ExecTimeS)
	}
	near(t, "PeakTempsC", rS.PeakTempsC, rT.PeakTempsC)
	near(t, "final temperature", eS.FinalTemps(), eT.FinalTemps())
	ss, st := rS.Trace.Samples, rT.Trace.Samples
	if len(ss) != len(st) {
		t.Fatalf("trace lengths differ: superstepped %d, ticked %d", len(ss), len(st))
	}
	for i := range ss {
		if ss[i].TimeS != st[i].TimeS {
			t.Fatalf("sample %d at t=%g s, ticked at %g s", i, ss[i].TimeS, st[i].TimeS)
		}
		agreeSample(t, ss[i], st[i])
	}
}

// walkConfig's starts trip and release the TMU under a util-only policy
// too: under performance, which re-requests the maximum as maxGov does,
// the spans of each throttled stretch cross its epochs once an epoch has
// left the capped frequency alone. Each run agrees with its
// DisableSuperstep twin (see agreeThinned).
func testTripReleaseMatchesTicks(t *testing.T, name string) {
	gov := governor.Performance{}
	run := func(disable bool) (*sim.Engine, *sim.Result) {
		cfg := walkConfig(t, name, disable)
		cfg.Governor = gov
		e, err := sim.New(cfg)
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
	if rS.Stats.TMUTrips == 0 || (name != "harrier-s16" && rS.Stats.TMUReleases == 0) {
		t.Fatalf("want a trip and, but on harrier-s16, a release; got %+v", rS.Stats)
	}
	agreeThinned(t, gov, eS, rS, eT, rT)
}

// walkConfig's runs under the TEEM controller with its threshold 2 °C
// below the big node's start: the controller moves the big cluster's
// frequency as the node crosses the threshold, and the jumps in between
// cross the epochs whose reading stays in its quiet band, so fewer
// epochs are ticked than in the DisableSuperstep twin, which the run
// otherwise agrees with (see agreeThinned).
func testQuietEpochsMatchTicks(t *testing.T, name string) {
	p := core.DefaultParams()
	p.ThresholdC = walkStarts[name].bigC - 2
	gov := core.NewController(p)
	run := func(disable bool) (*sim.Engine, *sim.Result) {
		cfg := walkConfig(t, name, disable)
		cfg.Governor = gov
		e, err := sim.New(cfg)
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
	if rS.FreqTransitions == 0 || rS.Stats.GovernorEpochs >= rT.Stats.GovernorEpochs {
		t.Fatalf("want frequency changes and crossed epochs: %d transitions, %d of the twin's %d epochs ticked",
			rS.FreqTransitions, rS.Stats.GovernorEpochs, rT.Stats.GovernorEpochs)
	}
	agreeThinned(t, gov, eS, rS, eT, rT)
}

// An epoch sees the utilisations the tick before it left. A job shorter
// than one control period that ends mostly busy in the tick before an
// epoch leaves 80% or more there, and conservative steps up on it, while
// the idle span after the job matches the stable idle epoch before its
// arrival: a span may start on an epoch only when the last tick's
// utilisations match the stable epoch's too. GPU-only jobs arriving on
// exynos5422's second tick and ending around t = 0.1 s each agree with
// their DisableSuperstep twins (see agreeThinned).
func TestSuperstepEpochSeesLastTick(t *testing.T) {
	b, err := platform.Get("exynos5422")
	if err != nil {
		t.Fatal(err)
	}
	gov := governor.NewConservative()
	busyEnd := false
	for i := 320; i <= 350; i++ {
		app := *workload.Covariance()
		app.WorkItems, app.GPUSecPerWI = 1, float64(i)*0.0005
		run := func(disable bool) (*sim.Engine, *sim.Result) {
			e, err := sim.New(sim.Config{
				Platform:         b.SoC,
				Net:              b.Net,
				Map:              mapping.Mapping{Big: 1, UseGPU: true},
				Governor:         gov,
				MinTimeS:         5,
				DisableSuperstep: disable,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ScheduleAt(sim.TickS, func(e *sim.Engine) error {
				_, err := e.EnqueueAppPriority(&app, mapping.Partition{Num: 0, Den: 8}, 0)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			r, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			return e, r
		}
		t.Run(fmt.Sprintf("gpu-s-per-item=%g", app.GPUSecPerWI), func(t *testing.T) {
			eS, rS := run(false)
			eT, rT := run(true)
			if len(rT.JobFinishes) != 1 {
				t.Fatalf("want one finished job, got %+v", rT.JobFinishes)
			}
			if at := rT.JobFinishes[0].AtS; at >= 0.098 && at < 0.1 {
				busyEnd = true
			}
			agreeThinned(t, gov, eS, rS, eT, rT)
		})
	}
	if !busyEnd {
		t.Fatal("no job ended at least 80% busy in the tick before the t = 0.1 s epoch")
	}
}

// A mixed-direction stretch is one span: an idle exynos5422 whose big
// node starts at 80 °C cools while its neighbours warm from ambient, and
// the probe on the first tick after the run's first finds the trajectory
// mixed. Its record segments re-probe at each meter instant they cross
// and go on while the probe stays mixed, so the stretch counts one
// mixed-direction rejection and ticks none of its instants: over 10 s it
// lasts the whole run and records every sample its DisableSuperstep
// twin records, equal within 1e-9; over 30 s it turns monotone after
// more than ten instants and stops there, and a jump takes the rest.
func TestSuperstepMixedSpanCrossesInstants(t *testing.T) {
	for _, c := range []struct {
		minS  float64
		whole bool
	}{{10, true}, {30, false}} {
		t.Run(fmt.Sprintf("min=%gs", c.minS), func(t *testing.T) {
			run := func(disable bool) (*sim.Engine, *sim.Result) {
				b, err := platform.Get("exynos5422")
				if err != nil {
					t.Fatal(err)
				}
				temps := make([]float64, len(b.Net.Nodes))
				for i := range temps {
					temps[i] = b.SoC.AmbientC
				}
				temps[b.Net.NodeIndex(b.SoC.Big().Name)] = 80
				e, err := sim.New(sim.Config{
					Platform:         b.SoC,
					Net:              b.Net,
					Map:              mapping.Mapping{Big: 4, Little: 4, UseGPU: true},
					MinTimeS:         c.minS,
					InitialTempsC:    temps,
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
			st := rS.Stats
			if st.RejectMixed != 1 || st.RejectMeter != 0 || st.Ticks-st.WalkedTicks != 1 || st.SegmentTicks < 300 {
				t.Fatalf("want one mixed stretch of at least 3 instants after the first tick, none ticked: "+
					"%d mixed and %d meter rejections, %d ordinary ticks, %d segmented", st.RejectMixed, st.RejectMeter, st.Ticks-st.WalkedTicks, st.SegmentTicks)
			}
			if jumped := st.MaxJump > thermal.SegmentMaxTicks; jumped == c.whole {
				t.Fatalf("longest advance %d ticks; want a jump after the stretch: %v", st.MaxJump, !c.whole)
			}
			if c.whole {
				agreeSampled(t, nil, eS, rS, eT, rT)
			} else {
				agreeThinned(t, nil, eS, rS, eT, rT)
			}
		})
	}
}

// agreeThinned holds a run that may jump to its fixed-tick twin: the
// meter, the schedule, every frequency decision and the TMU transitions
// are equal, with the epochs ticked as agreeGoverned requires, and the
// peaks, the final temperatures and every sample the run records agree
// within 1e-9 with the twin's sample at the same instant. Jumps thin the
// trace, so only shared instants are compared.
func agreeThinned(t *testing.T, gov sim.Governor, eS *sim.Engine, rS *sim.Result, eT *sim.Engine, rT *sim.Result) {
	t.Helper()
	agreeGoverned(t, gov, rS, rT)
	if rS.Completed != rT.Completed || rS.ExecTimeS != rT.ExecTimeS || rS.EnergyJ != rT.EnergyJ ||
		rS.AvgPowerW != rT.AvgPowerW || rS.ThrottleEvents != rT.ThrottleEvents ||
		!reflect.DeepEqual(rS.JobFinishes, rT.JobFinishes) {
		t.Errorf("summaries differ:\nsuperstepped %+v\nticked       %+v", *rS, *rT)
	}
	near(t, "PeakTempsC", rS.PeakTempsC, rT.PeakTempsC)
	near(t, "final temperature", eS.FinalTemps(), eT.FinalTemps())
	at := make(map[float64]int, len(rT.Trace.Samples))
	for i, s := range rT.Trace.Samples {
		at[s.TimeS] = i
	}
	for _, s := range rS.Trace.Samples {
		i, ok := at[s.TimeS]
		if !ok {
			t.Fatalf("sample at t=%g s has no ticked twin", s.TimeS)
		}
		agreeSample(t, s, rT.Trace.Samples[i])
	}
}

// agreeGoverned holds a run to its fixed-tick twin on everything its
// governor and the TMU decided: frequency transitions, trips and
// releases are equal. The epochs it ticks follow the epoch rules: under
// a util-only policy, spans cross the epochs after one that changed
// nothing, so fewer are ticked; under a QuietGovernor jumps cross the
// epochs whose reading stays in its quiet band, so no more are; under any
// other policy, or none, every epoch is.
func agreeGoverned(t *testing.T, gov sim.Governor, rS, rT *sim.Result) {
	t.Helper()
	if rS.FreqTransitions != rT.FreqTransitions || rS.Stats.TMUTrips != rT.Stats.TMUTrips || rS.Stats.TMUReleases != rT.Stats.TMUReleases {
		t.Errorf("transitions %d/%d, trips %d/%d, releases %d/%d", rS.FreqTransitions, rT.FreqTransitions,
			rS.Stats.TMUTrips, rT.Stats.TMUTrips, rS.Stats.TMUReleases, rT.Stats.TMUReleases)
	}
	eS, eT := rS.Stats.GovernorEpochs, rT.Stats.GovernorEpochs
	if u, ok := gov.(sim.UtilOnlyGovernor); ok && u.UtilOnly() {
		if eS >= eT {
			t.Errorf("util-only %s ticked %d of the twin's %d epochs; spans crossed none", govName(gov), eS, eT)
		}
	} else if _, ok := gov.(sim.QuietGovernor); ok {
		if eS > eT {
			t.Errorf("%s ticked %d epochs, more than its twin's %d", govName(gov), eS, eT)
		}
	} else if eS != eT {
		t.Errorf("%s ticked %d epochs, its twin %d", govName(gov), eS, eT)
	}
}

// agreeSample compares a sample with its fixed-tick twin at the same
// instant: frequencies and utilisations with ==, temperatures and power
// within 1e-9.
func agreeSample(t *testing.T, s, f trace.Sample) {
	t.Helper()
	if !reflect.DeepEqual(s.FreqsMHz, f.FreqsMHz) || !reflect.DeepEqual(s.Utils, f.Utils) {
		t.Errorf("t=%gs: frequencies %v, utilisations %v; ticked %v, %v", s.TimeS, s.FreqsMHz, s.Utils, f.FreqsMHz, f.Utils)
	}
	near(t, fmt.Sprintf("t=%gs temperature", s.TimeS), s.TempsC, f.TempsC)
	near(t, fmt.Sprintf("t=%gs power", s.TimeS), []float64{s.PowerW}, []float64{f.PowerW})
}

// near reports every element of a that differs from b's by more than
// 1e-9.
func near(t *testing.T, what string, a, b []float64) {
	t.Helper()
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > 1e-9 {
			t.Errorf("%s[%d]: superstepped %.12g, ticked %.12g", what, i, a[i], b[i])
		}
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
// an advanced tick (ordinary, walked, segmented or jumped), the share of
// ticks advanced in segments and the governor epochs ticked per run. The
// governed case runs under performance, a util-only policy: once an
// epoch has left the capped frequency alone, the throttled spans cross
// the epochs after it. Engine construction is not timed.
func BenchmarkSteadySegments(b *testing.B) {
	for _, name := range []string{"exynos5422", "harrier-s16"} {
		for _, gov := range []sim.Governor{nil, governor.Performance{}} {
			sub := name
			if gov != nil {
				sub += "/" + gov.Name()
			}
			b.Run(sub, func(b *testing.B) {
				cfg := throttledConfig(b, name)
				cfg.Governor = gov
				var segmented, advanced, epochs int64
				timeEngines(b, cfg, func(e *sim.Engine) {
					res, err := e.Run()
					if err != nil {
						b.Fatal(err)
					}
					segmented += res.Stats.SegmentTicks
					advanced += res.Stats.Ticks + res.Stats.SuperstepTicks
					epochs += res.Stats.GovernorEpochs
				})
				if segmented == 0 {
					b.Fatal("no tick was advanced in a segment")
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(advanced), "ns/advanced-tick")
				b.ReportMetric(float64(segmented)/float64(advanced), "segmented/tick")
				b.ReportMetric(float64(epochs)/float64(b.N), "epochs/run")
			})
		}
	}
}
