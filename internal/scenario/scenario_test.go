package scenario

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"teem/internal/mapping"
	"teem/internal/sim"
)

// quickConfig keeps unit-test runs short and deterministic.
func quickConfig() Config {
	return Config{}
}

func TestBuilderAndValidation(t *testing.T) {
	if _, err := New("ok").ArriveDefault(0, "COVARIANCE").Build(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []struct {
		name  string
		build func() (*Scenario, error)
	}{
		{"no arrivals", func() (*Scenario, error) { return New("x").AmbientStep(1, 40).Build() }},
		{"unknown app", func() (*Scenario, error) { return New("x").ArriveDefault(0, "NOPE").Build() }},
		{"unknown governor", func() (*Scenario, error) {
			b := New("x").ArriveDefault(0, "COVARIANCE")
			b.s.Governor = "nope"
			return b.Build()
		}},
		{"unknown switch target", func() (*Scenario, error) {
			return New("x").ArriveDefault(0, "COVARIANCE").SwitchGovernor(5, "nope").Build()
		}},
		{"negative time", func() (*Scenario, error) { return New("x").ArriveDefault(-1, "COVARIANCE").Build() }},
		{"bad partition", func() (*Scenario, error) {
			return New("x").Arrive(0, "COVARIANCE", mapping.Partition{Num: 9, Den: 8}).Build()
		}},
		{"assert without node", func() (*Scenario, error) {
			return New("x").ArriveDefault(0, "COVARIANCE").AssertTempBelow(1, "", 95).Build()
		}},
		{"negative deadline", func() (*Scenario, error) {
			b := New("x")
			b.s.Events = append(b.s.Events, Event{Kind: KindArrival, App: "COVARIANCE", DeadlineS: -5})
			return b.Build()
		}},
		{"departure without app", func() (*Scenario, error) {
			return New("x").ArriveDefault(0, "COVARIANCE").Depart(5, "").Build()
		}},
	}
	for _, c := range cases {
		if _, err := c.build(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// A grid with no named columns runs each scenario's initial policy once,
// in first-seen order, with ondemand for a scenario that names none.
func TestDefaultGovernors(t *testing.T) {
	var scs []*Scenario
	for _, g := range []string{"", "teem", "ondemand", "conservative", "teem"} {
		scs = append(scs, &Scenario{Governor: g})
	}
	got := DefaultGovernors(scs)
	if want := []string{"ondemand", "teem", "conservative"}; !slices.Equal(got, want) {
		t.Errorf("DefaultGovernors = %v, want %v", got, want)
	}
}

// Validation diagnostics must be deterministic: with several apps each
// having surplus departures, the surplus-departure check used to report
// whichever key a map iteration yielded first, so repeated Validate calls
// on the same scenario could name different apps. The keys are now
// checked in sorted order (teemvet's determinism analyzer flags the bare
// map range).
func TestValidateSurplusDepartureDeterministic(t *testing.T) {
	b := New("surplus").
		ArriveDefault(0, "COVARIANCE").
		ArriveDefault(0, "MVT").
		Depart(1, "COVARIANCE").
		Depart(1, "MVT").
		Depart(2, "COVARIANCE").
		Depart(2, "MVT")
	sc := &b.s // unvalidated: Build would reject the surplus departures
	for i := 0; i < 50; i++ {
		err := sc.Validate(nil)
		if err == nil {
			t.Fatal("surplus departures accepted")
		}
		if !strings.Contains(err.Error(), "COVARIANCE") {
			t.Fatalf("run %d: error reports %q, want the sorted-first app COVARIANCE every time", i, err)
		}
	}
}

// NaN and ±Inf slip past every ordered comparison: an infinite horizon
// would run zero ticks with no error and no violations, a NaN assertion
// bound could never fire, and a NaN event time would fail only inside the
// engine's scheduler. Validate rejects them field by field.
func TestValidateRejectsNonFinite(t *testing.T) {
	base := func() *Scenario {
		sc, err := New("numbers").
			ArriveDefault(0, "MVT").
			AmbientRamp(1, 2, 40).
			AssertTempBelow(2, NodeBig, 95).
			AssertPeakBelow(NodeBig, 96).
			Horizon(5).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		sc.Events[0].DeadlineS = 30
		sc.Final = append(sc.Final, FinalCheck{MaxExecS: 60})
		return sc
	}
	cases := []struct {
		field string
		set   func(sc *Scenario, v float64)
	}{
		{"horizon_s", func(sc *Scenario, v float64) { sc.HorizonS = v }},
		{"at_s", func(sc *Scenario, v float64) { sc.Events[2].AtS = v }},
		{"ramp_s", func(sc *Scenario, v float64) { sc.Events[1].RampS = v }},
		{"to_c", func(sc *Scenario, v float64) { sc.Events[1].ToC = v }},
		{"max_c", func(sc *Scenario, v float64) { sc.Events[2].MaxC = v }},
		{"deadline_s", func(sc *Scenario, v float64) { sc.Events[0].DeadlineS = v }},
		{"peak_max_c", func(sc *Scenario, v float64) { sc.Final[0].PeakMaxC = v }},
		{"max_exec_s", func(sc *Scenario, v float64) { sc.Final[1].MaxExecS = v }},
	}
	for _, c := range cases {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			sc := base()
			c.set(sc, v)
			err := sc.Validate(nil)
			if err == nil || !strings.Contains(err.Error(), "non-finite "+c.field) {
				t.Errorf("%s = %v: Validate returned %v, want a non-finite %s error", c.field, v, err, c.field)
			}
			if _, err := Run(sc, Config{}); err == nil {
				t.Errorf("%s = %v: Run accepted the scenario", c.field, v)
			}
		}
	}
	// Arrival logs compile through the same check.
	tr := &ArrivalTrace{Name: "nan-log", Records: []TraceRecord{{App: "MVT", AtS: math.NaN()}}}
	if _, err := FromTrace(tr); err == nil || !strings.Contains(err.Error(), "non-finite at_s") {
		t.Errorf("FromTrace with a NaN arrival time returned %v", err)
	}
}

// A finite timeline can still be too long to run: a 1e17 s horizon
// overflowed the engine's tick count, and a 1e9 s ramp compiled to 1e10
// ambient events before the first tick. Validate rejects both, so a
// service refuses them at submission.
func TestValidateRejectsUnrunnableLengths(t *testing.T) {
	cases := []struct {
		name, want string
		set        func(sc *Scenario)
	}{
		{"horizon_s 1e17", "limit", func(sc *Scenario) { sc.HorizonS = 1e17 }},
		{"at_s 1e17", "limit", func(sc *Scenario) { sc.Events[0].AtS = 1e17 }},
		{"ramp_s 1e9", "steps", func(sc *Scenario) { sc.Events[1].RampS = 1e9 }},
	}
	for _, c := range cases {
		sc, err := New("lengths").ArriveDefault(0, "MVT").AmbientRamp(1, 2, 40).Horizon(5).Build()
		if err != nil {
			t.Fatal(err)
		}
		c.set(sc)
		if err := sc.Validate(nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate returned %v, want an error naming the %s", c.name, err, c.want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := RushHour()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := got.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	var buf3 bytes.Buffer
	if err := s.Save(&buf3); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != buf3.String() {
		t.Error("JSON round trip is not stable")
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(strings.NewReader(`{"name":"x","events":[],"bogus":1}`))
	if err == nil {
		t.Error("unknown JSON field accepted")
	}
}

func TestLoadJSONExample(t *testing.T) {
	const doc = `{
	  "name": "sunlight-json",
	  "map": {"Big": 4, "Little": 2, "UseGPU": true},
	  "governor": "ondemand",
	  "horizon_s": 30,
	  "events": [
	    {"at_s": 0, "kind": "arrival", "app": "COVARIANCE", "part": {"Num": 4, "Den": 8}},
	    {"at_s": 12, "kind": "ambient", "to_c": 43, "ramp_s": 5},
	    {"at_s": 25, "kind": "assert", "node": "A15", "max_c": 99}
	  ],
	  "final": [{"node": "A15", "peak_max_c": 99}, {"completed": true}]
	}`
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(s, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed() {
		t.Errorf("JSON example violated assertions: %v", r.Violations)
	}
}

// The rush-hour preset combines ≥3 event kinds (arrivals, ambient step,
// governor switch) and must complete with all three jobs finished, in
// arrival order, the second overlapping arrival queued behind the first.
func TestRushHourCompletesInOrder(t *testing.T) {
	r, err := Run(RushHour(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sim.Completed {
		t.Fatal("rush-hour did not complete")
	}
	if !r.Passed() {
		t.Errorf("assertions violated: %v", r.Violations)
	}
	jf := r.Sim.JobFinishes
	if len(jf) != 3 {
		t.Fatalf("JobFinishes = %d, want 3", len(jf))
	}
	want := []string{"COVARIANCE", "GEMM", "SYRK"}
	for i, w := range want {
		if jf[i].App != w {
			t.Errorf("finish %d = %s, want %s", i, jf[i].App, w)
		}
	}
	// GEMM arrived at t=5 while COVARIANCE ran: it must finish after
	// COVARIANCE (queued, not preempting).
	if jf[1].AtS <= jf[0].AtS {
		t.Errorf("overlapping arrival finished at %g before its predecessor at %g", jf[1].AtS, jf[0].AtS)
	}
	// SYRK arrived at t=60, after the queue drained: back-to-back.
	if jf[2].AtS <= 60 {
		t.Errorf("SYRK finished at %g despite arriving at t=60", jf[2].AtS)
	}
}

// The sunlight scenario heats up after the ambient ramp: the big-cluster
// temperature at the end of the ramp must exceed the pre-ramp level.
func TestSunlightRampHeats(t *testing.T) {
	r, err := Run(Sunlight(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := r.Sim.Trace
	bi := tr.NodeIndex("A15")
	var at10, at25 float64
	for _, s := range tr.Samples {
		if s.TimeS <= 10 {
			at10 = s.TempsC[bi]
		}
		if s.TimeS <= 25 {
			at25 = s.TempsC[bi]
		}
	}
	if at25 <= at10 {
		t.Errorf("temperature fell across the ambient ramp: %g → %g", at10, at25)
	}
}

// The core-loss preset survives a mid-run mapping shrink plus
// repartitioning and still completes.
func TestCoreLossCompletes(t *testing.T) {
	r, err := Run(CoreLoss(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sim.Completed || !r.Passed() {
		t.Errorf("core-loss: completed=%v violations=%v", r.Sim.Completed, r.Violations)
	}
}

// Assertions that fail are collected as violations, not run errors.
func TestAssertionViolationCollected(t *testing.T) {
	s, err := New("too-strict").
		ArriveDefault(0, "COVARIANCE").
		AssertTempBelow(10, "A15", 1). // impossible bound
		AssertPeakBelow("A15", 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(s, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Passed() || len(r.Violations) != 2 {
		t.Errorf("want 2 violations, got %v", r.Violations)
	}
}

// An assertion on a node the thermal network doesn't have must be flagged
// as a violation, not silently pass on the 0 °C unknown-sensor reading.
func TestAssertionUnknownNodeFlagged(t *testing.T) {
	s, err := New("typo").
		ArriveDefault(0, "COVARIANCE").
		AssertTempBelow(5, "A15x", 95).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(s, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Passed() {
		t.Error("assertion on an unknown node passed silently")
	}
}

// A final peak check on a node the thermal network doesn't have is
// flagged the same way.
func TestFinalCheckUnknownNodeFlagged(t *testing.T) {
	s, err := New("typo").
		ArriveDefault(0, "COVARIANCE").
		AssertPeakBelow("A15x", 95).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(s, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := `final: unknown node "A15x"`
	if len(r.Violations) != 1 || r.Violations[0] != want {
		t.Errorf("violations = %q, want [%q]", r.Violations, want)
	}
}

// A governor override reruns the same scenario under a different policy.
func TestGovernorOverride(t *testing.T) {
	rc := quickConfig()
	rc.Governor = "performance"
	r, err := Run(Sunlight(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Governor != "performance" {
		t.Errorf("cell governor = %s", r.Governor)
	}
}

// Custom governors join the registry by name.
func TestCustomGovernorRegistry(t *testing.T) {
	rc := quickConfig()
	rc.Governors = map[string]GovernorFactory{
		"pin-1000": func() sim.Governor {
			return &pin1000{}
		},
	}
	rc.Governor = "pin-1000"
	r, err := Run(Sunlight(), rc)
	if err != nil {
		t.Fatal(err)
	}
	ci := r.Sim.Trace.ClusterIndex("A15")
	mid := r.Sim.Trace.Samples[r.Sim.Trace.Len()/2]
	if mid.FreqsMHz[ci] != 1000 {
		t.Errorf("custom governor not in effect: big at %d MHz", mid.FreqsMHz[ci])
	}
}

type pin1000 struct{}

func (pin1000) Name() string     { return "pin-1000" }
func (pin1000) PeriodS() float64 { return 0.1 }
func (pin1000) Start(m sim.Machine) error {
	p := m.Platform()
	for i := range p.Clusters {
		if err := m.SetClusterFreqMHz(p.Clusters[i].Name, 1000); err != nil {
			return err
		}
	}
	return nil
}
func (pin1000) Act(m sim.Machine) error { return nil }

// The acceptance gate: the combination scenario (≥3 event kinds) runs
// deterministically under both integrators, and grid output is
// byte-identical serial vs parallel.
func TestGridDeterminismBothIntegrators(t *testing.T) {
	scs := []*Scenario{Sunlight(), RushHour()}
	govs := []string{"ondemand", "teem"}
	for _, integ := range []sim.Integrator{sim.IntegratorExact, sim.IntegratorEuler} {
		rc := quickConfig()
		rc.Integrator = integ
		serial, err := RunGrid(scs, govs, rc, 1)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := RunGrid(scs, govs, rc, 8)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Render() != parallel.Render() {
			t.Errorf("integrator %d: parallel grid output differs from serial", integ)
		}
		for si := range serial.Cells[0] {
			for gi := range serial.Cells[0][si] {
				a, b := serial.Cells[0][si][gi], parallel.Cells[0][si][gi]
				if a.Sim.EnergyJ != b.Sim.EnergyJ || a.Sim.ExecTimeS != b.Sim.ExecTimeS ||
					a.Sim.PeakTempC != b.Sim.PeakTempC {
					t.Errorf("integrator %d: cell %s/%s metrics differ between serial and parallel",
						integ, a.Scenario, a.Governor)
				}
			}
		}
	}
}

// Regression: one broken cell must not abort the whole grid. A scenario
// that validates declaratively but fails at run time (its arrival sends
// CPU work to a GPU-only mapping) is captured as a per-cell violation;
// every other cell still runs and reports, and the grid's exit-code
// signal (Violations) reflects the failure.
func TestGridSurvivesBrokenCell(t *testing.T) {
	broken := &Scenario{
		Name: "broken",
		Map:  mapping.Mapping{UseGPU: true},
		Events: []Event{
			{AtS: 0, Kind: KindArrival, App: "COVARIANCE", Part: &mapping.Partition{Num: 4, Den: 8}},
		},
	}
	if err := broken.Validate(nil); err != nil {
		t.Fatalf("the broken scenario must pass declarative validation to exercise the run-time path: %v", err)
	}
	g, err := RunGrid([]*Scenario{broken, Sunlight()}, []string{"performance"}, quickConfig(), 1)
	if err != nil {
		t.Fatalf("RunGrid aborted the whole grid on one broken cell: %v", err)
	}
	bad := g.Cell("", "broken", "performance")
	if bad == nil {
		t.Fatal("broken cell missing from the grid")
	}
	if bad.Passed() || len(bad.Violations) == 0 {
		t.Error("broken cell did not record its failure as a violation")
	}
	if bad.Sim != nil {
		t.Error("broken cell should carry no sim result")
	}
	ok := g.Cell("", "sunlight", "performance")
	if ok == nil || ok.Sim == nil || !ok.Passed() {
		t.Errorf("healthy cell did not run/report alongside the broken one: %+v", ok)
	}
	if g.Violations() == 0 {
		t.Error("grid Violations() = 0 with a broken cell — the CI gate would green-light it")
	}
	out := g.Render()
	if !strings.Contains(out, "broken") || !strings.Contains(out, "sunlight") {
		t.Errorf("Render dropped a row:\n%s", out)
	}
	// The parallel path must capture per-cell errors identically.
	gp, err := RunGrid([]*Scenario{broken, Sunlight()}, []string{"performance"}, quickConfig(), 8)
	if err != nil {
		t.Fatalf("parallel RunGrid aborted on one broken cell: %v", err)
	}
	if gp.Render() != out {
		t.Error("parallel grid render differs from serial with a broken cell")
	}
}

// Grid cells are independent: hammering the same grid concurrently from
// several goroutines must be race-free (run under -race in CI), though
// every grid's cells share its compiled scenarios and each of them the
// scenarios themselves, which no run may change.
func TestGridRaceHammer(t *testing.T) {
	scs := []*Scenario{Sunlight(), orderingScenario()}
	var before []*Scenario
	for _, sc := range scs {
		before = append(before, cloneScenario(sc))
	}
	govs := []string{"ondemand", "performance", "teem", "pinned"}
	rc := quickConfig()
	rc.Governors = pinnedGovernors
	type outcome struct {
		render string
		err    error
	}
	done := make(chan outcome, 4)
	for i := 0; i < 4; i++ {
		go func() {
			g, err := RunGrid(scs, govs, rc, 0)
			if err != nil {
				done <- outcome{err: err}
				return
			}
			done <- outcome{render: g.Render()}
		}()
	}
	var first string
	for i := 0; i < 4; i++ {
		o := <-done
		if o.err != nil {
			t.Fatal(o.err)
		}
		if i == 0 {
			first = o.render
		} else if o.render != first {
			t.Errorf("concurrent grids rendered differently:\n%s\n%s", first, o.render)
		}
	}
	for i, sc := range scs {
		if !reflect.DeepEqual(sc, before[i]) {
			t.Errorf("%s changed under the grid", sc.Name)
		}
	}
}

// The preset corpus must hold its assertions under every stock governor.
func TestPresetsPassStockGovernors(t *testing.T) {
	g, err := RunGrid(Presets(), GovernorNames(), quickConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := g.Violations(); n != 0 {
		t.Errorf("preset grid reported %d assertion violations:\n%s", n, g.Render())
	}
}

func TestPresetsResolve(t *testing.T) {
	for _, s := range Presets() {
		if err := s.Validate(nil); err != nil {
			t.Errorf("preset %s invalid: %v", s.Name, err)
		}
		if PresetByName(s.Name) == nil {
			t.Errorf("preset %s not resolvable by name", s.Name)
		}
	}
	if PresetByName("nope") != nil {
		t.Error("unknown preset resolved")
	}
}
