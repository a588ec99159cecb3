package scenario

import (
	"context"
	"reflect"
	"testing"

	"teem/internal/platform"
	"teem/internal/sim"
	"teem/internal/trace"
)

// A grid cell's run (sim.Config.DiscardTrace) must equal the same
// scenario's default run on every Result field but Trace, Stats
// included, and stream the same OnSample samples, on every preset,
// every catalog platform and every stepping mode. A first run warms the
// process-wide propagator and jump-block caches, so the compared runs
// see the same cache state and the same hit/miss split.
func TestDiscardTraceMatchesDefault(t *testing.T) {
	modes := []struct {
		name string
		rc   Config
	}{
		{"superstep", Config{}},
		{"fixed", Config{DisableSuperstep: true}},
		{"euler", Config{Integrator: sim.IntegratorEuler}},
	}
	for _, name := range platform.Names() {
		b, err := platform.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		hw := bundleHardware(b)
		for _, sc := range Presets() {
			for _, m := range modes {
				label := name + "/" + sc.Name + "/" + m.name
				run := func(discard bool, onSample func(trace.Sample)) *sim.Result {
					t.Helper()
					rc := m.rc
					rc.OnSample = onSample
					r, err := runOn(context.Background(), sc, rc, hw, discard)
					if err != nil {
						t.Fatalf("%s (discard %v): %v", label, discard, err)
					}
					return r.Sim
				}
				var want, got []trace.Sample
				run(false, func(s trace.Sample) { want = append(want, s) })
				def := run(false, nil)
				if def.Trace == nil {
					t.Fatalf("%s: the default run has no trace", label)
				}
				for _, r := range []*sim.Result{
					run(true, nil),
					run(true, func(s trace.Sample) { got = append(got, s) }),
				} {
					if r.Trace != nil {
						t.Errorf("%s: DiscardTrace returned a trace", label)
					}
					d := *def
					d.Trace = nil
					if !reflect.DeepEqual(*r, d) {
						t.Errorf("%s: DiscardTrace result %+v, default %+v", label, *r, d)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: DiscardTrace streamed %d samples unlike the default's %d", label, len(got), len(want))
				}
			}
		}
	}
}
