package sim_test

import (
	"reflect"
	"testing"

	"teem/internal/sim"
	"teem/internal/trace"
)

// DiscardTrace must change only Result.Trace (nil under the option):
// every other Result field, Stats included, and every OnSample sample
// equal the default run's, for Engine.Run and RunWarm on the classic
// runs (ondemand, TEEM, TMU trips from a warm start, a MaxTimeS abort)
// under every stepping mode. A first run warms the process-wide
// propagator and jump-block caches, so the compared runs see the same
// cache state and the same hit/miss split.
func TestDiscardTraceMatchesDefault(t *testing.T) {
	protocols := []struct {
		name string
		run  func(sim.Config) (*sim.Result, error)
	}{
		{"run", func(cfg sim.Config) (*sim.Result, error) {
			e, err := sim.New(cfg)
			if err != nil {
				return nil, err
			}
			return e.Run()
		}},
		{"runwarm", sim.RunWarm},
	}
	for _, r := range classicRuns() {
		for _, m := range stepModes {
			for _, p := range protocols {
				label := r.name + "/" + m.name + "/" + p.name
				run := func(discard bool, onSample func(trace.Sample)) *sim.Result {
					t.Helper()
					cfg := r.cfg()
					m.set(&cfg)
					if r.warm {
						warm, err := sim.WarmStartTemps(cfg)
						if err != nil {
							t.Fatal(err)
						}
						cfg.InitialTempsC = warm
					}
					cfg.DiscardTrace, cfg.OnSample = discard, onSample
					res, err := p.run(cfg)
					if err != nil {
						t.Fatalf("%s (discard %v): %v", label, discard, err)
					}
					return res
				}
				var want, got []trace.Sample
				run(false, func(s trace.Sample) { want = append(want, s) })
				def := run(false, nil)
				if def.Trace == nil {
					t.Fatalf("%s: the default run has no trace", label)
				}
				if r.trips && def.ThrottleEvents == 0 {
					t.Errorf("%s: no TMU trip; the case no longer covers throttling", label)
				}
				if r.aborted == def.Completed {
					t.Errorf("%s: Completed = %v", label, def.Completed)
				}
				for _, res := range []*sim.Result{
					run(true, nil),
					run(true, func(s trace.Sample) { got = append(got, s) }),
				} {
					if res.Trace != nil {
						t.Errorf("%s: DiscardTrace returned a trace", label)
					}
					d := *def
					d.Trace = nil
					if !reflect.DeepEqual(*res, d) {
						t.Errorf("%s: DiscardTrace result %+v, default %+v", label, *res, d)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: DiscardTrace streamed %d samples unlike the default's %d", label, len(got), len(want))
				}
			}
		}
	}
}
