package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"teem/internal/core"
	"teem/internal/governor"
	"teem/internal/mapping"
	"teem/internal/platform"
	"teem/internal/sim"
	"teem/internal/trace"
	"teem/internal/workload"
)

// recycleStep is one run of the recycling sequence: it builds its
// configuration (and governor) afresh on every call, runs it through
// RunWarm, RunWith or WarmStartTemps, and reports everything a caller
// can observe of it.
type recycleStep struct {
	name string
	run  func(t *testing.T) recycleOutcome
}

// recycleOutcome is what a caller observes of one run: the Result, the
// samples an OnSample subscriber received, warm-start temperatures and
// the error text.
type recycleOutcome struct {
	res     *sim.Result
	samples []trace.Sample
	temps   []float64
	err     string
}

func bundleConfig(t *testing.T, name string) sim.Config {
	t.Helper()
	b, err := platform.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Platform: b.SoC,
		Net:      b.Net,
		App:      workload.Covariance(),
		Map:      mapping.Mapping{Big: 2, Little: 2, UseGPU: true},
		Part:     mapping.Partition{Num: 4, Den: 8},
	}
}

func outcome(res *sim.Result, err error) recycleOutcome {
	o := recycleOutcome{res: res}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// scenarioSetup schedules an ambient step, a higher-priority arrival and
// the cancellation of the configured job, as a scenario timeline does.
func scenarioSetup(e *sim.Engine) error {
	if err := e.ScheduleAt(4, func(e *sim.Engine) error { e.SetAmbientC(40); return nil }); err != nil {
		return err
	}
	if err := e.ScheduleAt(6, func(e *sim.Engine) error {
		_, err := e.EnqueueAppPriority(workload.Syrk(), mapping.Partition{Num: 2, Den: 8}, 1)
		return err
	}); err != nil {
		return err
	}
	return e.ScheduleAt(9, func(e *sim.Engine) error { return e.CancelJob(1) })
}

// recycleSequence alternates exynos5422 and harrier-s16; the exact and
// Euler integrators; supersteps on and off; kept and discarded traces;
// an OnSample subscriber; preset start temperatures; the TEEM
// controller, ondemand and userspace; a run that fails; and a run
// aborted through Done, each retired before the next run.
func recycleSequence() []recycleStep {
	return []recycleStep{
		{"exynos5422/ondemand/discard", func(t *testing.T) recycleOutcome {
			cfg := bundleConfig(t, "exynos5422")
			cfg.Governor, cfg.DiscardTrace = governor.NewOndemand(), true
			return outcome(sim.RunWarm(cfg))
		}},
		{"harrier-s16/teem/scenario", func(t *testing.T) recycleOutcome {
			cfg := bundleConfig(t, "harrier-s16")
			cfg.Governor, cfg.MinTimeS = core.NewController(core.DefaultParams()), 30
			return outcome(sim.RunWith(cfg, scenarioSetup))
		}},
		{"exynos5422/euler/userspace", func(t *testing.T) recycleOutcome {
			cfg := bundleConfig(t, "exynos5422")
			cfg.Integrator = sim.IntegratorEuler
			cfg.Governor = &governor.Userspace{BigMHz: 1400}
			return outcome(sim.RunWarm(cfg))
		}},
		{"harrier-s16/fixed/onsample", func(t *testing.T) recycleOutcome {
			cfg := bundleConfig(t, "harrier-s16")
			cfg.Governor, cfg.DisableSuperstep, cfg.DiscardTrace = governor.NewOndemand(), true, true
			var samples []trace.Sample
			cfg.OnSample = func(s trace.Sample) { samples = append(samples, s) }
			o := outcome(sim.RunWith(cfg, nil))
			o.samples = samples
			return o
		}},
		{"exynos5422/aborted-throttled", func(t *testing.T) recycleOutcome {
			// It starts past the trip point, so its engine retires
			// throttled, and the next exynos5422 run rebuilds it.
			done := make(chan struct{})
			cfg := bundleConfig(t, "exynos5422")
			cfg.Governor, cfg.Done = core.NewController(core.DefaultParams()), done
			cfg.InitialTempsC = []float64{99, 80, 85, 75}
			return outcome(sim.RunWith(cfg, func(e *sim.Engine) error {
				return e.ScheduleAt(0.5, func(*sim.Engine) error { close(done); return nil })
			}))
		}},
		{"harrier-s16/warm-start", func(t *testing.T) recycleOutcome {
			temps, err := sim.WarmStartTemps(bundleConfig(t, "harrier-s16"))
			o := outcome(nil, err)
			o.temps = temps
			return o
		}},
		{"exynos5422/teem/initial-temps", func(t *testing.T) recycleOutcome {
			cfg := bundleConfig(t, "exynos5422")
			cfg.Governor = core.NewController(core.DefaultParams())
			cfg.InitialTempsC = []float64{88, 70, 75, 65}
			cfg.MinTimeS = 25
			return outcome(sim.RunWith(cfg, scenarioSetup))
		}},
		{"harrier-s16/fails", func(t *testing.T) recycleOutcome {
			cfg := bundleConfig(t, "harrier-s16")
			cfg.Governor = governor.NewOndemand()
			return outcome(sim.RunWith(cfg, func(e *sim.Engine) error {
				return e.ScheduleAt(3, func(*sim.Engine) error { return errors.New("event failed") })
			}))
		}},
		{"exynos5422/euler/scenario", func(t *testing.T) recycleOutcome {
			cfg := bundleConfig(t, "exynos5422")
			cfg.Integrator, cfg.MinTimeS = sim.IntegratorEuler, 20
			cfg.Governor = governor.NewOndemand()
			return outcome(sim.RunWith(cfg, scenarioSetup))
		}},
		{"harrier-s16/ondemand/trace", func(t *testing.T) recycleOutcome {
			cfg := bundleConfig(t, "harrier-s16")
			cfg.Governor = governor.NewOndemand()
			return outcome(sim.RunWarm(cfg))
		}},
		{"exynos5422/teem/discard", func(t *testing.T) recycleOutcome {
			cfg := bundleConfig(t, "exynos5422")
			cfg.Governor, cfg.DiscardTrace = core.NewController(core.DefaultParams()), true
			return outcome(sim.RunWarm(cfg))
		}},
		{"harrier-s16/teem/discard", func(t *testing.T) recycleOutcome {
			cfg := bundleConfig(t, "harrier-s16")
			cfg.Governor, cfg.DiscardTrace = core.NewController(core.DefaultParams()), true
			return outcome(sim.RunWarm(cfg))
		}},
	}
}

// An engine rebuilt from a retired one runs exactly as one built from
// nothing: each run of the sequence, on engines that ran its other
// configurations before (including a failed and an aborted run), returns
// a Result deep-equal to the same configuration's on never-recycled
// engines, flight recorder and trace included. A first pass warms the
// process-wide system, propagator and modal-form caches, so both compared
// passes see the same cache hits.
func TestRecycledEngineMatchesFresh(t *testing.T) {
	steps := recycleSequence()
	for _, s := range steps {
		s.run(t)
	}
	want := make([]recycleOutcome, len(steps))
	sim.WithoutRecycling(func() {
		for i, s := range steps {
			want[i] = s.run(t)
		}
	})
	for pass := range 2 {
		for i, s := range steps {
			got := s.run(t)
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("pass %d, %s: a recycled engine's run differs from a fresh one's:\n got %s\nwant %s",
					pass, s.name, describe(got), describe(want[i]))
			}
		}
	}
	for i, s := range steps {
		if failing := strings.Contains(s.name, "fails") || strings.Contains(s.name, "aborted"); failing != (want[i].err != "") {
			t.Errorf("%s: error %q", s.name, want[i].err)
		}
	}
}

func describe(o recycleOutcome) string {
	if o.res == nil {
		return fmt.Sprintf("err %q, temps %v, %d samples", o.err, o.temps, len(o.samples))
	}
	r := *o.res
	r.Trace = nil
	n := 0
	if o.res.Trace != nil {
		n = len(o.res.Trace.Samples)
	}
	return fmt.Sprintf("%+v (trace samples %d, streamed %d)", r, n, len(o.samples))
}

// RunWarm from several goroutines on one system recycles engines
// through one free list: every result equals the serial run's.
func TestRunWarmConcurrentRecycling(t *testing.T) {
	base := bundleConfig(t, "exynos5422")
	cfgs := []func() sim.Config{
		func() sim.Config {
			cfg := base
			cfg.Governor, cfg.DiscardTrace = governor.NewOndemand(), true
			return cfg
		},
		func() sim.Config {
			cfg := base
			cfg.Governor = core.NewController(core.DefaultParams())
			return cfg
		},
		func() sim.Config {
			cfg := base
			cfg.Map, cfg.Part = mapping.Mapping{Big: 4, UseGPU: true}, mapping.Partition{Num: 2, Den: 8}
			return cfg
		},
	}
	want := make([]*sim.Result, len(cfgs))
	for pass := range 2 {
		// The first pass warms the shared caches, so the second reads
		// the hits the concurrent runs see.
		for i, cfg := range cfgs {
			res, err := sim.RunWarm(cfg())
			if err != nil {
				t.Fatal(err)
			}
			if pass == 1 {
				want[i] = res
			}
		}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 3 {
				for k := range cfgs {
					i := (g + r + k) % len(cfgs)
					got, err := sim.RunWarm(cfgs[i]())
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("goroutine %d, config %d: RunWarm differs from the serial run", g, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
