package sim

import (
	"testing"

	"teem/internal/mapping"
	"teem/internal/workload"
)

// --- regression: phantom utilisation on unmapped clusters --------------------

// probeGov records the utilisation a governor sees at Start — the primed
// value the engine hands a utilisation-driven policy's first decision.
type probeGov struct {
	bigU, litU, gpuU float64
}

func (p *probeGov) Name() string     { return "probe" }
func (p *probeGov) PeriodS() float64 { return 0.1 }
func (p *probeGov) Start(m Machine) error {
	p.bigU = m.ClusterUtil("A15")
	p.litU = m.ClusterUtil("A7")
	p.gpuU = m.ClusterUtil("MaliT628")
	return nil
}
func (p *probeGov) Act(Machine) error { return nil }

// A big-only mapping must never show utilisation on the LITTLE cluster —
// neither in the primed value the governor's first decision sees nor in
// any tick's ClusterUtil — or ondemand/conservative pin idle silicon at
// max frequency and inflate every baseline's energy.
func TestNoPhantomUtilOnUnmappedLittle(t *testing.T) {
	cfg := baseConfig()
	cfg.Map = mapping.Mapping{Big: 4, Little: 0, UseGPU: true}
	g := &probeGov{}
	cfg.Governor = g
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if g.litU != 0 {
		t.Errorf("governor Start saw LITTLE util %g on a big-only mapping, want 0", g.litU)
	}
	if g.bigU != 1 {
		t.Errorf("governor Start saw big util %g, want primed 1", g.bigU)
	}
	li := res.Trace.ClusterIndex("A7")
	bi := res.Trace.ClusterIndex("A15")
	sawBigBusy := false
	for _, s := range res.Trace.Samples {
		if s.Utils[li] != 0 {
			t.Fatalf("t=%gs: LITTLE util %g on a big-only mapping, want 0", s.TimeS, s.Utils[li])
		}
		if s.Utils[bi] > 0 {
			sawBigBusy = true
		}
	}
	if !sawBigBusy {
		t.Error("big cluster never showed utilisation — test lost its contrast")
	}
}

// The symmetric case: a LITTLE-only mapping must not leak busy fractions
// onto the big cluster.
func TestNoPhantomUtilOnUnmappedBig(t *testing.T) {
	cfg := baseConfig()
	cfg.Map = mapping.Mapping{Big: 0, Little: 4, UseGPU: true}
	g := &probeGov{}
	cfg.Governor = g
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if g.bigU != 0 {
		t.Errorf("governor Start saw big util %g on a LITTLE-only mapping, want 0", g.bigU)
	}
	bi := res.Trace.ClusterIndex("A15")
	for _, s := range res.Trace.Samples {
		if s.Utils[bi] != 0 {
			t.Fatalf("t=%gs: big util %g on a LITTLE-only mapping, want 0", s.TimeS, s.Utils[bi])
		}
	}
}

// The configured app starts in New, but the governor's first decision
// sees it on the mapping and partition the run starts with: a switch
// between New and Run leaves no busy cluster the job no longer uses.
func TestPrimedUtilFollowsSwitchBeforeRun(t *testing.T) {
	for _, c := range []struct {
		name             string
		mut              func(*Engine) error
		bigU, litU, gpuU float64
	}{
		{"unchanged", func(*Engine) error { return nil }, 1, 1, 1},
		{"mapping drops big", func(e *Engine) error {
			return e.SetMapping(mapping.Mapping{Big: 0, Little: 2, UseGPU: true})
		}, 0, 1, 1},
		{"partition all GPU", func(e *Engine) error {
			return e.SetPartition(mapping.Partition{Num: 0, Den: 8})
		}, 0, 0, 1},
	} {
		cfg := baseConfig()
		g := &probeGov{}
		cfg.Governor = g
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.mut(e); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if g.bigU != c.bigU || g.litU != c.litU || g.gpuU != c.gpuU {
			t.Errorf("%s: governor Start saw utils big %g, LITTLE %g, GPU %g, want %g, %g, %g",
				c.name, g.bigU, g.litU, g.gpuU, c.bigU, c.litU, c.gpuU)
		}
	}
}

// --- regression: RunWarm must not run an engine twice ------------------------

// startCounter counts Governor.Start invocations: one per engine run.
type startCounter struct {
	starts int
}

func (s *startCounter) Name() string          { return "start-counter" }
func (s *startCounter) PeriodS() float64      { return 0.1 }
func (s *startCounter) Start(m Machine) error { s.starts++; return nil }
func (s *startCounter) Act(m Machine) error   { return nil }

// RunWarm's protocol is one discarded warm-up run plus one measured run —
// exactly two engine runs, so exactly two Governor.Start calls. The old
// code ran the warm-up engine twice (the second run completing instantly
// on exhausted work), re-invoking Start and appending a duplicate final
// sample.
func TestRunWarmRunsWarmupOnce(t *testing.T) {
	cfg := baseConfig()
	g := &startCounter{}
	cfg.Governor = g
	if _, err := RunWarm(cfg); err != nil {
		t.Fatal(err)
	}
	if g.starts != 2 {
		t.Errorf("Governor.Start called %d times during RunWarm, want 2 (warm-up + measured)", g.starts)
	}
}

// An engine refuses a second Run outright: replaying a policy on
// exhausted work and appending duplicate trace samples is never meaningful.
func TestRunTwiceRejected(t *testing.T) {
	e, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Error("second Run on one engine should error")
	}
}

// --- regression: TMU release must not override newer governor requests -------

// While throttled, a governor request below the cap replaces the stale
// pre-trip maximum as the release target: when the hardware releases, the
// cluster must stay at the governor's latest decision instead of jumping
// back to the old pre-trip frequency.
func TestThrottleReleaseKeepsGovernorRequest(t *testing.T) {
	cfg := baseConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.govEvery = 0
	e.recEvery = 1 << 30

	// Force a trip: the big node starts above TripC.
	hot := make([]float64, len(cfg.Net.Nodes))
	for i := range hot {
		hot[i] = cfg.Platform.TripC + 1
	}
	if err := e.therm.SetTemps(hot); err != nil {
		t.Fatal(err)
	}
	if _, err := e.tick(0.01); err != nil {
		t.Fatal(err)
	}
	if !e.Throttled() {
		t.Fatal("engine did not trip from above TripC")
	}
	if got := e.ClusterFreqMHz("A15"); got != 900 {
		t.Fatalf("throttled big freq = %d, want the 900 MHz cap", got)
	}

	// The governor decides 600 MHz — below the cap — while throttled.
	if err := e.SetClusterFreqMHz("A15", 600); err != nil {
		t.Fatal(err)
	}
	if got := e.ClusterFreqMHz("A15"); got != 600 {
		t.Fatalf("sub-cap request while throttled pinned %d, want 600", got)
	}

	// Cool below the release point and tick: release must keep 600 MHz.
	cool := make([]float64, len(cfg.Net.Nodes))
	for i := range cool {
		cool[i] = cfg.Platform.TripReleaseC - 20
	}
	if err := e.therm.SetTemps(cool); err != nil {
		t.Fatal(err)
	}
	e.timeTicks++
	if _, err := e.tick(0.01); err != nil {
		t.Fatal(err)
	}
	if e.Throttled() {
		t.Fatal("engine did not release below TripReleaseC")
	}
	if got := e.ClusterFreqMHz("A15"); got != 600 {
		t.Errorf("release restored %d MHz, overriding the governor's 600 MHz decision", got)
	}
}

// The classic release path still works: when the governor never asked for
// less, release restores the pre-trip frequency.
func TestThrottleReleaseRestoresPreTripFreq(t *testing.T) {
	cfg := baseConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.govEvery = 0
	e.recEvery = 1 << 30
	hot := make([]float64, len(cfg.Net.Nodes))
	for i := range hot {
		hot[i] = cfg.Platform.TripC + 1
	}
	if err := e.therm.SetTemps(hot); err != nil {
		t.Fatal(err)
	}
	if _, err := e.tick(0.01); err != nil {
		t.Fatal(err)
	}
	cool := make([]float64, len(cfg.Net.Nodes))
	for i := range cool {
		cool[i] = cfg.Platform.TripReleaseC - 20
	}
	if err := e.therm.SetTemps(cool); err != nil {
		t.Fatal(err)
	}
	e.timeTicks++
	if _, err := e.tick(0.01); err != nil {
		t.Fatal(err)
	}
	if got := e.ClusterFreqMHz("A15"); got != 2000 {
		t.Errorf("release restored %d MHz, want the 2000 MHz pre-trip frequency", got)
	}
}

// --- regression: self-consistent closing trace sample ------------------------

// A completed run's final sample closes the metrics window with the chip
// idle: zero utilisation AND the matching idle power. The old code
// evaluated idle power but left the last tick's busy fractions in Utils.
func TestFinalSampleIdleConsistent(t *testing.T) {
	e, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	last := res.Trace.Samples[res.Trace.Len()-1]
	for i, u := range last.Utils {
		if u != 0 {
			t.Errorf("final sample: cluster %s util %g with idle power, want 0",
				res.Trace.ClusterNames[i], u)
		}
	}
	// Idle power must sit well below the mid-run busy samples.
	mid := res.Trace.Samples[res.Trace.Len()/2]
	if last.PowerW >= mid.PowerW {
		t.Errorf("final idle sample power %g ≥ mid-run power %g", last.PowerW, mid.PowerW)
	}
}

// An aborted run (MaxTimeS elapsed with work pending) closes with the
// still-busy state instead: utilisation and power stay the consistent
// busy pair of the last tick.
func TestFinalSampleAbortedStillBusy(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxTimeS = 1.0
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("1-second budget should not complete COVARIANCE")
	}
	last := res.Trace.Samples[res.Trace.Len()-1]
	bi := res.Trace.ClusterIndex("A15")
	if last.Utils[bi] == 0 {
		t.Error("aborted run's final sample shows idle big cluster while work was pending")
	}
}

// --- scenario hooks -----------------------------------------------------------

// Enqueued apps run FIFO after the initial job, each completion recorded.
func TestEnqueueAppRunsFIFO(t *testing.T) {
	cfg := baseConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnqueueAppPriority(workload.Syrk(), mapping.Partition{Num: 4, Den: 8}, 0); err != nil {
		t.Fatal(err)
	}
	if e.QueuedJobs() != 1 {
		t.Fatalf("QueuedJobs = %d, want 1", e.QueuedJobs())
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("queued run did not complete")
	}
	if len(res.JobFinishes) != 2 {
		t.Fatalf("JobFinishes = %d entries, want 2", len(res.JobFinishes))
	}
	if res.JobFinishes[0].App != "COVARIANCE" || res.JobFinishes[1].App != "SYRK" {
		t.Errorf("finish order %s, %s — want COVARIANCE then SYRK",
			res.JobFinishes[0].App, res.JobFinishes[1].App)
	}
	if res.JobFinishes[0].AtS >= res.JobFinishes[1].AtS {
		t.Errorf("finish times not increasing: %g then %g",
			res.JobFinishes[0].AtS, res.JobFinishes[1].AtS)
	}
	if res.ExecTimeS != res.JobFinishes[1].AtS {
		t.Errorf("ExecTimeS %g should be the last finish %g", res.ExecTimeS, res.JobFinishes[1].AtS)
	}
}

// An idle-start engine (nil App, MinTimeS horizon) runs work that arrives
// by scheduled event and keeps simulating to the horizon.
func TestIdleStartArrivalAndHorizon(t *testing.T) {
	cfg := baseConfig()
	cfg.App = nil
	cfg.MinTimeS = 40
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleAt(2, func(e *Engine) error {
		_, err := e.EnqueueAppPriority(workload.Covariance(), mapping.Partition{Num: 4, Den: 8}, 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("scenario run did not complete")
	}
	if len(res.JobFinishes) != 1 {
		t.Fatalf("JobFinishes = %d, want 1", len(res.JobFinishes))
	}
	if res.JobFinishes[0].AtS < 2 {
		t.Errorf("job finished at %g, before its arrival at t=2", res.JobFinishes[0].AtS)
	}
	lastT := res.Trace.Samples[res.Trace.Len()-1].TimeS
	if lastT < cfg.MinTimeS-0.2 {
		t.Errorf("trace ends at %gs, before the %gs horizon", lastT, cfg.MinTimeS)
	}
	if res.ExecTimeS >= cfg.MinTimeS {
		t.Errorf("ExecTimeS %g should be the work completion, not the horizon", res.ExecTimeS)
	}
}

// An event scheduled on the very last tick of a horizon-clamped run must
// still fire: maxTicks and event ticks round the same way, so a scenario
// horizon beyond the 900 s default cannot strand its final event.
func TestLastTickEventFires(t *testing.T) {
	cfg := baseConfig()
	cfg.App = nil
	cfg.MinTimeS = 2.0
	cfg.MaxTimeS = 2.0 // clamped exactly to the horizon
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	if err := e.ScheduleAt(1.99, func(*Engine) error { fired = true; return nil }); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event on the final tick never fired")
	}
	if !res.Completed {
		t.Error("run with all events delivered reported Completed=false")
	}
}

// A t=0 arrival on an idle-start engine primes utilisation exactly like a
// classic Config.App run: the governor acting on the arrival tick must see
// the pending load, not a one-period dip to zero.
func TestArrivalPrimesUtil(t *testing.T) {
	cfg := baseConfig()
	cfg.App = nil
	cfg.MinTimeS = 1
	g := &probeGov{}
	cfg.Governor = g
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var actUtil float64 = -1
	if err := e.ScheduleAt(0, func(e *Engine) error {
		_, err := e.EnqueueAppPriority(workload.Covariance(), mapping.Partition{Num: 4, Den: 8}, 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Probe what a governor Act on tick 0 observes: events dispatch
	// before the governor step, so the arrival must already be visible.
	if err := e.ScheduleAt(0, func(e *Engine) error {
		actUtil = e.ClusterUtil("A15")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if actUtil != 1 {
		t.Errorf("tick-0 arrival shows util %g to the governor step, want primed 1", actUtil)
	}
}

// Events on the same tick fire in registration order; past times are
// rejected mid-run.
func TestEventOrderingAndPastRejection(t *testing.T) {
	cfg := baseConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		if err := e.ScheduleAt(1, func(*Engine) error { order = append(order, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	var lateErr error
	if err := e.ScheduleAt(2, func(e *Engine) error {
		lateErr = e.ScheduleAt(1, func(*Engine) error { return nil })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("same-tick events fired in order %v, want [0 1 2]", order)
	}
	if lateErr == nil {
		t.Error("scheduling an event in the past mid-run should error")
	}
}

// SetPartition re-splits the remaining work; the run still completes and
// conserves the total work (execution time shifts accordingly).
func TestSetPartitionMidRun(t *testing.T) {
	cfg := baseConfig()
	cfg.DisableHWProtect = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleAt(5, func(e *Engine) error {
		return e.SetPartition(mapping.Partition{Num: 0, Den: 8}) // all remaining work to the GPU
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("repartitioned run did not complete")
	}
	// After t=5 the CPU has no work: its utilisation must fall to zero
	// within a tick while the GPU keeps going.
	bi := res.Trace.ClusterIndex("A15")
	for _, s := range res.Trace.Samples {
		if s.TimeS > 5.2 && s.Utils[bi] != 0 {
			t.Errorf("t=%gs: CPU util %g after repartitioning all work to the GPU", s.TimeS, s.Utils[bi])
			break
		}
	}
}

// SetMapping mid-run changes the compute resources; dropping to fewer big
// cores slows the CPU share down.
func TestSetMappingMidRun(t *testing.T) {
	run := func(shrink bool) float64 {
		cfg := baseConfig()
		cfg.DisableHWProtect = true
		cfg.Map = mapping.Mapping{Big: 4, Little: 0, UseGPU: true}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if shrink {
			if err := e.ScheduleAt(3, func(e *Engine) error {
				return e.SetMapping(mapping.Mapping{Big: 1, Little: 0, UseGPU: true})
			}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("run did not complete")
		}
		return res.ExecTimeS
	}
	full, shrunk := run(false), run(true)
	if shrunk <= full {
		t.Errorf("losing 3 big cores mid-run should slow the run: %g ≤ %g", shrunk, full)
	}
}

// SetGovernor mid-run swaps the policy: after the switch to powersave the
// big cluster must sit at its minimum frequency.
func TestSetGovernorMidRun(t *testing.T) {
	cfg := baseConfig()
	cfg.DisableHWProtect = true
	cfg.MaxTimeS = 30
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleAt(5, func(e *Engine) error {
		return e.SetGovernor(pinGov{mhz: 200})
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	bi := res.Trace.ClusterIndex("A15")
	for _, s := range res.Trace.Samples {
		if s.TimeS > 5.2 && s.TimeS < res.ExecTimeS && s.FreqsMHz[bi] != 200 {
			t.Errorf("t=%gs: big freq %d after switching to the 200 MHz pin", s.TimeS, s.FreqsMHz[bi])
			break
		}
	}
	if res.ExecTimeS <= 0 {
		t.Error("run reported no execution time")
	}
}

// pinGov pins every cluster at a fixed frequency — a minimal mid-run
// switch target.
type pinGov struct{ mhz int }

func (g pinGov) Name() string     { return "pin" }
func (g pinGov) PeriodS() float64 { return 0.1 }
func (g pinGov) Start(m Machine) error {
	p := m.Platform()
	for i := range p.Clusters {
		if err := m.SetClusterFreqMHz(p.Clusters[i].Name, g.mhz); err != nil {
			return err
		}
	}
	return nil
}
func (g pinGov) Act(m Machine) error { return g.Start(m) }

// Ambient changes scheduled as events reach the thermal model under both
// integrators: a mid-run ambient step must raise the steady temperature.
func TestAmbientStepEvent(t *testing.T) {
	for _, integ := range []Integrator{IntegratorExact, IntegratorEuler} {
		cfg := baseConfig()
		cfg.App = nil
		cfg.MinTimeS = 30
		cfg.Integrator = integ
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ScheduleAt(10, func(e *Engine) error {
			e.SetAmbientC(45)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		bi := res.Trace.NodeIndex("A15")
		var before, after float64
		for _, s := range res.Trace.Samples {
			if s.TimeS <= 9.5 {
				before = s.TempsC[bi]
			}
			after = s.TempsC[bi]
		}
		// The idle chip floats a few degrees above ambient on leakage
		// and baseline power; the 17 °C ambient step must carry it up
		// by about the same delta.
		if before < 28 || before > 38 {
			t.Errorf("integrator %d: idle chip at %g °C before the step, want a few °C above 28", integ, before)
		}
		if after < before+10 {
			t.Errorf("integrator %d: chip at %g °C 20 s after the 45 °C ambient step (was %g)", integ, after, before)
		}
	}
}
