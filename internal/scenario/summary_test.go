package scenario

import (
	"testing"

	"teem/internal/platform"
	"teem/internal/sim"
)

// The engine's trace-derived summaries must equal the trace.Trace
// reference methods over the run's own trace bit for bit, on every
// preset, every catalog platform and every stepping mode (supersteps,
// the fixed-tick loop and the Euler integrator): the summaries are the
// same arithmetic over the same recorded samples, not an approximation.
func TestSummariesMatchTraceCorpus(t *testing.T) {
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
		big := b.SoC.Big().Name
		for _, sc := range Presets() {
			for _, m := range modes {
				rc := m.rc
				rc.PlatformName = name
				r, err := Run(sc, rc)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, sc.Name, m.name, err)
				}
				checkSummaries(t, name+"/"+sc.Name+"/"+m.name, r.Sim, big)
			}
		}
	}
}

// checkSummaries asserts with == that a Result's trace-derived summaries
// equal the trace methods evaluated on its own trace.
func checkSummaries(t *testing.T, label string, res *sim.Result, big string) {
	t.Helper()
	tr := res.Trace
	n, c := tr.NodeIndex(big), tr.ClusterIndex(big)
	if n < 0 || c < 0 {
		t.Fatalf("%s: trace has no %s series", label, big)
	}
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
			t.Errorf("%s: %s = %.17g, trace gives %.17g", label, f.name, f.got, f.want)
		}
	}
}
