package sim

import (
	"math"
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
		{"TickS", func(c *Config, v float64) { c.TickS = v }},
		{"RecordPeriodS", func(c *Config, v float64) { c.RecordPeriodS = v }},
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
	cfg := baseConfig()
	cfg.PkgBaselineFrac = math.NaN()
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "PkgBaselineFrac") {
		t.Errorf("PkgBaselineFrac = NaN: got %v, want an error naming the field", err)
	}
}

// A non-finite start temperature makes every summary NaN, and a NaN,
// infinite or negative sensor quantum either reads NaN on every sensor
// (no governor or TMU ever acts) or silently means "exact": New must
// reject them, naming the field and, for InitialTempsC, the index.
func TestNewRejectsBadThermalInputs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name, want string
		set        func(*Config)
	}{
		{"InitialTempsC[0] NaN", "InitialTempsC[0]", func(c *Config) { c.InitialTempsC = []float64{nan, 40, 40, 40} }},
		{"InitialTempsC[2] +Inf", "InitialTempsC[2]", func(c *Config) { c.InitialTempsC = []float64{40, 40, inf, 40} }},
		{"InitialTempsC[3] -Inf", "InitialTempsC[3]", func(c *Config) { c.InitialTempsC = []float64{40, 40, 40, -inf} }},
		{"SensorQuantizeC NaN", "SensorQuantizeC", func(c *Config) { c.SensorQuantizeC = nan }},
		{"SensorQuantizeC +Inf", "SensorQuantizeC", func(c *Config) { c.SensorQuantizeC = inf }},
		{"SensorQuantizeC -Inf", "SensorQuantizeC", func(c *Config) { c.SensorQuantizeC = -inf }},
		{"SensorQuantizeC -1", "SensorQuantizeC", func(c *Config) { c.SensorQuantizeC = -1 }},
	}
	for _, c := range cases {
		cfg := baseConfig()
		c.set(&cfg)
		_, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %s", c.name, err, c.want)
		}
	}
	for _, q := range []float64{0, 0.5} {
		cfg := baseConfig()
		cfg.SensorQuantizeC = q
		cfg.InitialTempsC = []float64{40, 40, 40, 40}
		if _, err := New(cfg); err != nil {
			t.Errorf("SensorQuantizeC %g with finite start temperatures rejected: %v", q, err)
		}
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
