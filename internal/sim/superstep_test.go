package sim

import (
	"math"
	"testing"

	"teem/internal/mapping"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

// utilGov is an ondemand-shaped util-only policy: max frequency under
// load, one OPP down per idle epoch — a pure function of utilisation and
// current frequency, so it is marked UtilOnly and exercises the
// epoch-crossing certificate.
type utilGov struct{}

func (utilGov) Name() string          { return "test-util" }
func (utilGov) PeriodS() float64      { return 0.1 }
func (utilGov) UtilOnly() bool        { return true }
func (utilGov) Start(m Machine) error { return nil }
func (utilGov) Act(m Machine) error {
	for _, c := range m.Platform().Clusters {
		cur := m.ClusterFreqMHz(c.Name)
		if m.ClusterUtil(c.Name) > 0.8 {
			if err := m.SetClusterFreqMHz(c.Name, c.MaxFreqMHz()); err != nil {
				return err
			}
		} else if cur > c.OPPs[0].FreqMHz {
			if err := m.SetClusterFreqMHz(c.Name, cur-1); err != nil {
				return err
			}
		}
	}
	return nil
}

func superstepConfig(disable bool) Config {
	return Config{
		Platform:         soc.Exynos5422(),
		Net:              thermal.Exynos5422Network(),
		App:              workload.Covariance(),
		Map:              mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part:             mapping.Partition{Num: 4, Den: 8},
		MinTimeS:         120, // a long idle tail after the job drains
		DisableSuperstep: disable,
	}
}

// Integrator-agreement contract (docs/integrators.md): a superstepped
// run reproduces the fixed-tick run's scheduling decisions and meter
// readings exactly, and its temperatures to floating-point rounding.
func TestSuperstepAgreesWithFixedTicks(t *testing.T) {
	eJ, err := New(superstepConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	rJ, err := eJ.Run()
	if err != nil {
		t.Fatal(err)
	}
	eF, err := New(superstepConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	rF, err := eF.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rJ.Completed != rF.Completed {
		t.Errorf("Completed: superstep %v vs fixed %v", rJ.Completed, rF.Completed)
	}
	if rJ.ExecTimeS != rF.ExecTimeS {
		t.Errorf("ExecTimeS: superstep %g vs fixed %g", rJ.ExecTimeS, rF.ExecTimeS)
	}
	if rJ.EnergyJ != rF.EnergyJ {
		t.Errorf("EnergyJ: superstep %.15g vs fixed %.15g", rJ.EnergyJ, rF.EnergyJ)
	}
	if rJ.AvgPowerW != rF.AvgPowerW {
		t.Errorf("AvgPowerW: superstep %.15g vs fixed %.15g", rJ.AvgPowerW, rF.AvgPowerW)
	}
	if rJ.FreqTransitions != rF.FreqTransitions {
		t.Errorf("FreqTransitions: superstep %d vs fixed %d", rJ.FreqTransitions, rF.FreqTransitions)
	}
	if rJ.ThrottleEvents != rF.ThrottleEvents {
		t.Errorf("ThrottleEvents: superstep %d vs fixed %d", rJ.ThrottleEvents, rF.ThrottleEvents)
	}
	if len(rJ.JobFinishes) != len(rF.JobFinishes) {
		t.Fatalf("JobFinishes: superstep %d vs fixed %d", len(rJ.JobFinishes), len(rF.JobFinishes))
	}
	for i := range rJ.JobFinishes {
		if rJ.JobFinishes[i] != rF.JobFinishes[i] {
			t.Errorf("JobFinishes[%d]: superstep %+v vs fixed %+v", i, rJ.JobFinishes[i], rF.JobFinishes[i])
		}
	}
	if d := math.Abs(rJ.PeakTempC - rF.PeakTempC); d > 1e-9 {
		t.Errorf("PeakTempC: superstep %.12g vs fixed %.12g (|Δ|=%.3g)", rJ.PeakTempC, rF.PeakTempC, d)
	}
	// Final model state must agree to rounding.
	tJ := eJ.therm.Temps()
	tF := eF.therm.Temps()
	for i := range tJ {
		if d := math.Abs(tJ[i] - tF[i]); d > 1e-9 {
			t.Errorf("final temp node %d: superstep %.12g vs fixed %.12g (|Δ|=%.3g)", i, tJ[i], tF[i], d)
		}
	}
	// Trace-derived thermal aggregates may coarsen inside jumped
	// intervals; the contract bounds them to 0.01 °C.
	if d := math.Abs(rJ.AvgTempC - rF.AvgTempC); d > 0.01 {
		t.Errorf("AvgTempC: superstep %.6g vs fixed %.6g (|Δ|=%.3g > 0.01)", rJ.AvgTempC, rF.AvgTempC, d)
	}
}

// Superstepped runs must refuse nothing an ordinary run accepts: a
// governor-driven run (ondemand, a marked util-only policy) still agrees
// on scheduling and energy while crossing control epochs.
func TestSuperstepAgreesUnderGovernor(t *testing.T) {
	mk := func(disable bool) (*Engine, *Result) {
		cfg := superstepConfig(disable)
		cfg.Governor = utilGov{}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return e, r
	}
	eJ, rJ := mk(false)
	eF, rF := mk(true)
	if rJ.ExecTimeS != rF.ExecTimeS || rJ.EnergyJ != rF.EnergyJ ||
		rJ.FreqTransitions != rF.FreqTransitions || rJ.ThrottleEvents != rF.ThrottleEvents {
		t.Errorf("governed run diverged: ET %g/%g energy %.15g/%.15g transitions %d/%d throttles %d/%d",
			rJ.ExecTimeS, rF.ExecTimeS, rJ.EnergyJ, rF.EnergyJ,
			rJ.FreqTransitions, rF.FreqTransitions, rJ.ThrottleEvents, rF.ThrottleEvents)
	}
	tJ, tF := eJ.therm.Temps(), eF.therm.Temps()
	for i := range tJ {
		if d := math.Abs(tJ[i] - tF[i]); d > 1e-9 {
			t.Errorf("final temp node %d: |Δ|=%.3g", i, d)
		}
	}
}

// An Euler run must never enter the superstep path (the jump map is the
// exact propagator's); the knob is simply inert there.
func TestSuperstepInertUnderEuler(t *testing.T) {
	cfg := superstepConfig(false)
	cfg.Integrator = IntegratorEuler
	cfg.MinTimeS = 10
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.ss != nil {
		t.Error("Euler run built a superstep jump map")
	}
}

// The warm superstep path must not touch the heap: jumping an idle
// interval with a cached jump map and cached blocks is pure array
// arithmetic, like the steady-state tick it replaces.
func TestSuperstepZeroAllocs(t *testing.T) {
	e, err := New(Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part:     mapping.Partition{Num: 4, Den: 8},
		MinTimeS: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.01
	e.govEvery = 0
	e.recEvery = 10
	const maxTicks, minTicks = 50_000_000, 40_000_000
	// Warm up: the first tick, the jump map and its blocks.
	for i := 0; i < 300; i++ {
		jumped, err := e.superstep(dt, maxTicks, minTicks)
		if err != nil {
			t.Fatal(err)
		}
		if !jumped {
			if _, err := e.tick(dt); err != nil {
				t.Fatal(err)
			}
			e.timeTicks++
		}
	}
	if avg := testing.AllocsPerRun(2000, func() {
		jumped, err := e.superstep(dt, maxTicks, minTicks)
		if err != nil {
			t.Fatal(err)
		}
		if !jumped {
			if _, err := e.tick(dt); err != nil {
				t.Fatal(err)
			}
			e.timeTicks++
		}
	}); avg != 0 {
		t.Errorf("warm superstep path allocates %.3f objects/op, want 0", avg)
	}
}

// Jumps cross meter sampling instants: the idle tail of superstepConfig's
// run is jumped across many of them, each latched from the closed-form
// power, yet the meter reads exactly what the fixed-tick run's does, and
// every instant is sampled in the trace as the instant's own tick
// samples it.
func TestSuperstepJumpsCrossMeterInstants(t *testing.T) {
	run := func(disable bool) *Result {
		e, err := New(superstepConfig(disable))
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rJ, rF := run(false), run(true)
	if rJ.Stats.MaxJump <= 100 {
		t.Fatalf("longest jump %d ticks; no jump crossed a meter instant", rJ.Stats.MaxJump)
	}
	if rJ.EnergyJ != rF.EnergyJ || rJ.AvgPowerW != rF.AvgPowerW {
		t.Errorf("meter: superstep %.15g J, %.15g W; fixed %.15g J, %.15g W", rJ.EnergyJ, rJ.AvgPowerW, rF.EnergyJ, rF.AvgPowerW)
	}
	jumped := make(map[float64]int, len(rJ.Trace.Samples))
	for i, s := range rJ.Trace.Samples {
		jumped[s.TimeS] = i
	}
	instants := 0
	for _, f := range rF.Trace.Samples {
		if f.TimeS != math.Trunc(f.TimeS) {
			continue
		}
		instants++
		i, ok := jumped[f.TimeS]
		if !ok {
			t.Fatalf("meter instant t=%gs was not sampled", f.TimeS)
		}
		s := rJ.Trace.Samples[i]
		if d := math.Abs(s.PowerW - f.PowerW); d > 1e-9 {
			t.Errorf("t=%gs power: superstep %.12g, fixed %.12g", f.TimeS, s.PowerW, f.PowerW)
		}
		for k := range s.TempsC {
			if d := math.Abs(s.TempsC[k] - f.TempsC[k]); d > 1e-9 {
				t.Errorf("t=%gs node %d: superstep %.12g, fixed %.12g", f.TimeS, k, s.TempsC[k], f.TempsC[k])
			}
		}
	}
	if instants < 100 {
		t.Fatalf("only %d meter instants in the fixed-tick trace", instants)
	}
}

// Where a closed-form meter sample is not robust — here every one, on a
// meter that does not quantise — a jump lands on the instant and its
// tick latches the tick's own power, and a segment is walked: the run
// still jumps, but no jump crosses an instant, and its meter agrees with
// the fixed-tick run's to rounding.
func TestSuperstepGuardBandTicksInstants(t *testing.T) {
	run := func(disable bool) *Result {
		e, err := New(superstepConfig(disable))
		if err != nil {
			t.Fatal(err)
		}
		e.meter.ResolutionW = 0
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rJ, rF := run(false), run(true)
	if st := rJ.Stats; st.Supersteps == 0 || st.RejectMeter == 0 || st.MaxJump > 100 {
		t.Fatalf("want jumps that each stop at a meter instant, got %d supersteps, %d meter rejections, longest %d ticks", st.Supersteps, st.RejectMeter, st.MaxJump)
	}
	if rJ.ExecTimeS != rF.ExecTimeS {
		t.Errorf("ExecTimeS: superstep %g, fixed %g", rJ.ExecTimeS, rF.ExecTimeS)
	}
	if d := math.Abs(rJ.EnergyJ - rF.EnergyJ); d > 1e-9*rF.EnergyJ {
		t.Errorf("EnergyJ: superstep %.15g, fixed %.15g", rJ.EnergyJ, rF.EnergyJ)
	}
}
