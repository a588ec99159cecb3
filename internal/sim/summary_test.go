package sim_test

import (
	"reflect"
	"testing"

	"teem/internal/core"
	"teem/internal/governor"
	"teem/internal/mapping"
	"teem/internal/obs"
	"teem/internal/sim"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/trace"
	"teem/internal/workload"
)

// classicRun is one single-app configuration of the summary tests. cfg
// builds a fresh config (and governor) per use, so repeated protocols
// never share policy state.
type classicRun struct {
	name string
	cfg  func() sim.Config
	// warm starts the run from WarmStartTemps, as the paper's hot
	// back-to-back protocol does.
	warm bool
	// trips requires at least one TMU trip, aborted an incomplete run.
	trips, aborted bool
}

func classicRuns() []classicRun {
	fig1 := func(g sim.Governor) sim.Config {
		return sim.Config{
			Platform: soc.Exynos5422(),
			Net:      thermal.Exynos5422Network(),
			App:      workload.Covariance(),
			Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
			Part:     mapping.Partition{Num: 4, Den: 8},
			Governor: g,
		}
	}
	return []classicRun{
		{name: "ondemand", cfg: func() sim.Config { return fig1(governor.NewOndemand()) }},
		{name: "teem", cfg: func() sim.Config { return fig1(core.NewController(core.DefaultParams())) }},
		{name: "ondemand-trips", warm: true, trips: true, cfg: func() sim.Config {
			c := fig1(governor.NewOndemand())
			c.App = workload.Syrk()
			c.Map = mapping.Mapping{Big: 4, Little: 4, UseGPU: true}
			return c
		}},
		{name: "aborted", aborted: true, cfg: func() sim.Config {
			c := fig1(governor.NewOndemand())
			c.MaxTimeS = 1.0
			return c
		}},
	}
}

// stepModes are the engine's three stepping schemes.
var stepModes = []struct {
	name string
	set  func(*sim.Config)
}{
	{"superstep", func(*sim.Config) {}},
	{"fixed", func(c *sim.Config) { c.DisableSuperstep = true }},
	{"euler", func(c *sim.Config) { c.Integrator = sim.IntegratorEuler }},
}

// Classic single-app runs — ondemand with TMU trips, the TEEM
// controller, a MaxTimeS-aborted run — report trace-derived summaries
// equal (==) to the trace.Trace reference methods over their own trace,
// under every stepping mode.
func TestSummariesMatchTraceClassic(t *testing.T) {
	for _, r := range classicRuns() {
		for _, m := range stepModes {
			cfg := r.cfg()
			m.set(&cfg)
			if r.warm {
				warm, err := sim.WarmStartTemps(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.InitialTempsC = warm
			}
			e, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", r.name, m.name, err)
			}
			if r.trips && res.ThrottleEvents == 0 {
				t.Errorf("%s/%s: no TMU trip; the case no longer covers throttling", r.name, m.name)
			}
			if r.aborted == res.Completed {
				t.Errorf("%s/%s: Completed = %v", r.name, m.name, res.Completed)
			}
			tr := res.Trace
			n, c := tr.NodeIndex("A15"), tr.ClusterIndex("A15")
			for _, f := range []struct {
				name      string
				got, want float64
			}{
				{"AvgTempC", res.AvgTempC, tr.AvgTemp(n)},
				{"TempVarC2", res.TempVarC2, tr.TempVariance(n)},
				{"TempGradCps", res.TempGradCps, tr.TempGradient(n)},
				{"AvgBigFreqMHz", res.AvgBigFreqMHz, tr.AvgFreqMHz(c)},
			} {
				if f.got != f.want {
					t.Errorf("%s/%s: %s = %.17g, trace gives %.17g", r.name, m.name, f.name, f.got, f.want)
				}
			}
		}
	}
}

// explicitWarmStart is WarmStartTemps spelled out on an engine of its
// own: the steady state of cfg's job, fully busy, from ambient at the
// warm-start frequencies.
func explicitWarmStart(t *testing.T, cfg sim.Config) []float64 {
	t.Helper()
	cfg.Governor, cfg.InitialTempsC = nil, nil
	cfg.Freq = mapping.FreqSetting{BigMHz: 1400, LittleMHz: 1400, GPUMHz: 600}
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.SteadyTemps(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return warm
}

// explicitRunWarm is RunWarm's measurement protocol spelled out step by
// step on three engines: the warm start, the warm-up run from it, and the
// measured run from the warm-up regime, taken from the warm-up's trace.
func explicitRunWarm(t *testing.T, cfg sim.Config) *sim.Result {
	t.Helper()
	cfg.InitialTempsC = explicitWarmStart(t, cfg)
	e1, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e1.Run()
	if err != nil {
		t.Fatal(err)
	}
	regime := make([]float64, len(r1.Trace.NodeNames))
	for i := range regime {
		regime[i] = r1.Trace.AvgTemp(i)
	}
	cfg.InitialTempsC = regime
	e2, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r2
}

// RunWarm must equal the explicit protocol on every Result field and on
// every sample of the returned trace, under every stepping mode; with
// OnSample set, the hook must see the warm-up's samples followed by the
// measured run's, exactly as the explicit protocol delivers them.
func TestRunWarmMatchesExplicitProtocol(t *testing.T) {
	for _, r := range classicRuns() {
		for _, m := range stepModes {
			label := r.name + "/" + m.name
			cfg := r.cfg()
			m.set(&cfg)
			got, err := sim.RunWarm(cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			cfg = r.cfg()
			m.set(&cfg)
			want := explicitRunWarm(t, cfg)
			sameResult(t, label, got, want)

			var hooked, explicit []trace.Sample
			cfg = r.cfg()
			m.set(&cfg)
			cfg.OnSample = func(s trace.Sample) { hooked = append(hooked, s) }
			if _, err := sim.RunWarm(cfg); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			cfg = r.cfg()
			m.set(&cfg)
			cfg.OnSample = func(s trace.Sample) { explicit = append(explicit, s) }
			explicitRunWarm(t, cfg)
			sameSamples(t, label+" OnSample", hooked, explicit)
		}
	}
}

// sameResult compares every exported Result field, and the trace sample
// by sample. The propagator and modal-form caches are process-wide, so
// their hit/miss split depends on what ran before; only their lookup
// totals are compared.
func sameResult(t *testing.T, label string, got, want *sim.Result) {
	t.Helper()
	g, w := *got, *want
	for _, s := range []*obs.RunStats{&g.Stats, &w.Stats} {
		s.PropCacheHits, s.PropCacheMisses = s.PropCacheHits+s.PropCacheMisses, 0
		s.JumpBlockHits, s.JumpBlockMisses = s.JumpBlockHits+s.JumpBlockMisses, 0
	}
	gv, wv := reflect.ValueOf(g), reflect.ValueOf(w)
	for i := 0; i < gv.NumField(); i++ {
		f := gv.Type().Field(i)
		if f.Name == "Trace" {
			continue
		}
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s: %s = %+v, explicit protocol gives %+v", label, f.Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
	if got.Trace == nil || want.Trace == nil {
		t.Fatalf("%s: nil trace (RunWarm %v, explicit %v)", label, got.Trace == nil, want.Trace == nil)
	}
	if !reflect.DeepEqual(got.Trace.NodeNames, want.Trace.NodeNames) ||
		!reflect.DeepEqual(got.Trace.ClusterNames, want.Trace.ClusterNames) {
		t.Errorf("%s: trace labels differ", label)
	}
	sameSamples(t, label, got.Trace.Samples, want.Trace.Samples)
}

// sameSamples compares two sample sequences value by value.
func sameSamples(t *testing.T, label string, got, want []trace.Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, explicit protocol has %d", label, len(got), len(want))
	}
	for k := range got {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Fatalf("%s: sample %d = %+v, explicit protocol has %+v", label, k, got[k], want[k])
		}
	}
}

// RunWarm solves its warm start on the warm-up engine, at the warm-start
// frequencies, and restores the configured ones before the warm-up runs.
// It must equal the three-engine protocol field for field, and
// WarmStartTemps the separate warm-start engine, on EEMP's configuration
// (a Freq under a userspace governor, unused cores unplugged), and on a
// Freq and on no Freq without a governor, whose Start would otherwise set
// the frequencies again before the first tick: there a restore that
// ignored Freq, or its 0 → maximum rule, runs the warm-up at other
// frequencies.
func TestRunWarmSolvesWarmStartOnWarmUpEngine(t *testing.T) {
	base := sim.Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		App:      workload.Covariance(),
		Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part:     mapping.Partition{Num: 4, Den: 8},
	}
	eemp := base
	eemp.Freq = mapping.FreqSetting{BigMHz: 1800, LittleMHz: 1000, GPUMHz: 420}
	eemp.Governor = &governor.Userspace{BigMHz: 1800, LittleMHz: 1000, GPUMHz: 420}
	eemp.HotplugUnused = true
	pinned := base
	pinned.Freq = eemp.Freq
	for _, c := range []struct {
		name string
		cfg  sim.Config
	}{{"eemp", eemp}, {"freq", pinned}, {"no-freq", base}} {
		warm, err := sim.WarmStartTemps(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := explicitWarmStart(t, c.cfg); !reflect.DeepEqual(warm, want) {
			t.Errorf("%s: WarmStartTemps = %v, a separate engine gives %v", c.name, warm, want)
		}
		got, err := sim.RunWarm(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, c.name, got, explicitRunWarm(t, c.cfg))
	}
}
