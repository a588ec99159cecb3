package sim

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

// NaN and ±Inf pass every ordered check, and int(x/dt + 0.5) of them is
// implementation-defined, so New must reject a non-finite timing field
// up front and name it.
func TestNewRejectsNonFiniteTiming(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"MinTimeS", func(c *Config, v float64) { c.MinTimeS = v }},
		{"MaxTimeS", func(c *Config, v float64) { c.MaxTimeS = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := baseConfig()
			f.set(&cfg, v)
			_, err := New(cfg)
			if err == nil {
				t.Errorf("%s = %g accepted", f.name, v)
				continue
			}
			if !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %g: error %q does not name the field", f.name, v, err)
			}
		}
	}
}

// A negative MaxTimeS used to run no tick and return an empty aborted run
// without an error, or, with MinTimeS set, be replaced by the horizon
// unnoticed. New must reject it and name the field.
func TestNewRejectsNegativeMaxTime(t *testing.T) {
	for _, minT := range []float64{0, 5} {
		cfg := baseConfig()
		cfg.MinTimeS = minT
		cfg.MaxTimeS = -5
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "MaxTimeS") {
			t.Errorf("MinTimeS %g, MaxTimeS -5: got %v, want an error naming MaxTimeS", minT, err)
		}
	}
}

// A run length past MaxRunS overflowed the tick count: at MaxTimeS 1e17
// Run executed no tick and returned Completed=false, 0 s and 0 J with no
// error. New must reject it and name the field.
func TestNewRejectsRunPastMaxRunS(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"MinTimeS", func(c *Config, v float64) { c.MinTimeS = v }},
		{"MaxTimeS", func(c *Config, v float64) { c.MaxTimeS = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{MaxRunS, 1e17} {
			cfg := baseConfig()
			f.set(&cfg, v)
			if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %g: got %v, want an error naming the field", f.name, v, err)
			}
		}
	}
}

// Nothing a run reserves grows with its length: the engine used to
// reserve one power-meter sample per second of MinTimeS (8 MB at 1e6 s)
// before its first tick, and a long enough scenario horizon ended the
// process with an out-of-memory fatal error.
func TestRunReservesNothingPerSecond(t *testing.T) {
	done := make(chan struct{})
	close(done)
	cfg := baseConfig()
	cfg.MinTimeS, cfg.Done = 1e6, done
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = e.Run()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("Run = %v, want ErrAborted", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Errorf("Run allocated %d B, want under 64 KiB", n)
	}
}

// A non-finite start temperature makes every summary and sensor read NaN
// (no governor or TMU ever acts): New must reject it, naming the field
// and the index.
func TestNewRejectsBadThermalInputs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name, want string
		set        func(*Config)
	}{
		{"InitialTempsC[0] NaN", "InitialTempsC[0]", func(c *Config) { c.InitialTempsC = []float64{nan, 40, 40, 40} }},
		{"InitialTempsC[2] +Inf", "InitialTempsC[2]", func(c *Config) { c.InitialTempsC = []float64{40, 40, inf, 40} }},
		{"InitialTempsC[3] -Inf", "InitialTempsC[3]", func(c *Config) { c.InitialTempsC = []float64{40, 40, 40, -inf} }},
	}
	for _, c := range cases {
		cfg := baseConfig()
		c.set(&cfg)
		_, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %s", c.name, err, c.want)
		}
	}
	cfg := baseConfig()
	cfg.InitialTempsC = []float64{40, 40, 40, 40}
	if _, err := New(cfg); err != nil {
		t.Errorf("finite start temperatures rejected: %v", err)
	}
}

// periodGov is a do-nothing policy with a configurable control period.
type periodGov struct{ p float64 }

func (g periodGov) Name() string          { return "test-period" }
func (g periodGov) PeriodS() float64      { return g.p }
func (g periodGov) Start(m Machine) error { return nil }
func (g periodGov) Act(m Machine) error   { return nil }

// A governor period must be a finite positive duration, at run start and
// on a mid-run switch alike: on amd64 a NaN or infinite period used to
// convert to a one-tick period, so the policy acted on every tick.
func TestGovernorPeriodMustBeFinite(t *testing.T) {
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		cfg := baseConfig()
		cfg.Governor = periodGov{p}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "period") {
			t.Errorf("Run with period %g: got %v, want a period error", p, err)
		}
		e, err = New(baseConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetGovernor(periodGov{p}); err == nil || !strings.Contains(err.Error(), "period") {
			t.Errorf("SetGovernor with period %g: got %v, want a period error", p, err)
		}
	}
	// A huge finite period is legal: the policy acts only at t = 0.
	cfg := baseConfig()
	cfg.Governor = periodGov{math.MaxFloat64}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.GovernorEpochs; got != 1 {
		t.Errorf("a %g s period ran %d epochs, want 1", math.MaxFloat64, got)
	}
}
