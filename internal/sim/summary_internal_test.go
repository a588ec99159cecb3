package sim

import (
	"testing"

	"teem/internal/trace"
)

// The summary folds reproduce the trace methods on the edge cases the
// engine's runs only reach rarely: one sample, samples spanning zero
// time, and repeated timestamps inside a longer series.
func TestSummaryMatchesTraceEdgeCases(t *testing.T) {
	type rec struct {
		t     float64
		temps []float64
		freq  int
	}
	cases := map[string][]rec{
		"one sample":    {{0, []float64{70, 50}, 1800}},
		"zero duration": {{3, []float64{70, 50}, 1800}, {3, []float64{72, 49}, 900}},
		"repeated time": {{0, []float64{70, 50}, 1800}, {0, []float64{71, 50}, 1800}, {0.1, []float64{73.5, 51}, 900}, {0.3, []float64{72, 52}, 1400}},
	}
	for name, recs := range cases {
		// bare keeps no series, as RunWarm's warm-up: every other
		// summary must not change.
		var s, bare summary
		s.init(2, 0, true)
		bare.init(2, 0, false)
		tr := trace.NewWithCap([]string{"big", "pkg"}, []string{"big"}, 0)
		for _, r := range recs {
			s.add(r.t, r.temps, r.freq)
			bare.add(r.t, r.temps, r.freq)
			if err := tr.Append(trace.Sample{TimeS: r.t, TempsC: r.temps, FreqsMHz: []int{r.freq}}); err != nil {
				t.Fatal(err)
			}
		}
		for i := range 2 {
			if got, want := s.avgTemp(i), tr.AvgTemp(i); got != want {
				t.Errorf("%s: avgTemp(%d) = %v, trace gives %v", name, i, got, want)
			}
			if got, want := bare.avgTemp(i), s.avgTemp(i); got != want {
				t.Errorf("%s: avgTemp(%d) without series = %v, want %v", name, i, got, want)
			}
		}
		if bare.big != nil || bare.tempGradient() != s.tempGradient() || bare.avgFreqMHz() != s.avgFreqMHz() {
			t.Errorf("%s: summary without series kept %d samples or moved a mean", name, len(bare.big))
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"tempVariance", s.tempVariance(), tr.TempVariance(0)},
			{"tempGradient", s.tempGradient(), tr.TempGradient(0)},
			{"avgFreqMHz", s.avgFreqMHz(), tr.AvgFreqMHz(0)},
		} {
			if f.got != f.want {
				t.Errorf("%s: %s = %v, trace gives %v", name, f.name, f.got, f.want)
			}
		}
	}
}
