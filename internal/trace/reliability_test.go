package trace

import (
	"math"
	"testing"
)

// sawtooth builds a trace oscillating between lo and hi with the given
// number of full cycles.
func sawtooth(t *testing.T, lo, hi float64, cycles int) *Trace {
	t.Helper()
	tr := NewWithCap([]string{"big", "gpu"}, []string{"c"}, 0)
	tm := 0.0
	add := func(v float64) {
		if err := tr.Append(Sample{TimeS: tm, TempsC: []float64{v, v - 10}, FreqsMHz: []int{1}}); err != nil {
			t.Fatal(err)
		}
		tm += 1
	}
	add(lo)
	for c := 0; c < cycles; c++ {
		add((lo + hi) / 2)
		add(hi)
		add((lo + hi) / 2)
		add(lo)
	}
	return tr
}

func TestThermalCyclesSawtooth(t *testing.T) {
	tr := sawtooth(t, 90, 95, 4)
	// Four up-down cycles → 8 half-cycle excursions of 5 °C.
	cs := tr.ThermalCycles(0, 2)
	if len(cs) != 8 {
		t.Fatalf("detected %d excursions, want 8", len(cs))
	}
	for _, c := range cs {
		if math.Abs(c.AmplitudeC-5) > 1e-9 {
			t.Errorf("amplitude %g, want 5", c.AmplitudeC)
		}
		if c.EndS <= c.StartS {
			t.Error("cycle times inverted")
		}
	}
	if got := tr.CycleCount(0, 2); got != 8 {
		t.Errorf("CycleCount = %d", got)
	}
}

func TestThermalCyclesHysteresis(t *testing.T) {
	tr := sawtooth(t, 90, 95, 4)
	// A 6 °C hysteresis filters the 5 °C swings entirely.
	if got := tr.CycleCount(0, 6); got != 0 {
		t.Errorf("CycleCount with large hysteresis = %d, want 0", got)
	}
}

func TestThermalCyclesFlat(t *testing.T) {
	tr := NewWithCap([]string{"n"}, []string{"c"}, 0)
	for i := 0; i < 10; i++ {
		if err := tr.Append(Sample{TimeS: float64(i), TempsC: []float64{85}, FreqsMHz: []int{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.CycleCount(0, 1); got != 0 {
		t.Errorf("flat trace cycles = %d", got)
	}
}

func TestThermalCyclesEdgeCases(t *testing.T) {
	tr := NewWithCap([]string{"n"}, []string{"c"}, 0)
	if cs := tr.ThermalCycles(0, 1); cs != nil {
		t.Error("empty trace should have no cycles")
	}
	tr = sawtooth(t, 90, 95, 1)
	if cs := tr.ThermalCycles(0, 0); cs != nil {
		t.Error("non-positive hysteresis should return nil")
	}
}

// Regression: every metric taking a node or cluster index must tolerate
// the -1 that NodeIndex/ClusterIndex return for an unknown name — and any
// other out-of-range index — returning zero values instead of panicking
// with index-out-of-range on the first sample.
func TestMetricsUnknownNodeIndex(t *testing.T) {
	tr := sawtooth(t, 90, 95, 2)
	bad := tr.NodeIndex("no-such-node")
	if bad != -1 {
		t.Fatalf("NodeIndex on an unknown node = %d, want -1", bad)
	}
	for _, idx := range []int{bad, len(tr.NodeNames)} {
		if got := tr.ThermalCycles(idx, 2); got != nil {
			t.Errorf("ThermalCycles(%d) = %v, want nil", idx, got)
		}
		if got := tr.CycleCount(idx, 2); got != 0 {
			t.Errorf("CycleCount(%d) = %d, want 0", idx, got)
		}
		if got := tr.Temps(idx); got != nil {
			t.Errorf("Temps(%d) = %v, want nil", idx, got)
		}
		if got := tr.AvgTemp(idx); got != 0 {
			t.Errorf("AvgTemp(%d) = %g, want 0", idx, got)
		}
		if got := tr.TempVariance(idx); got != 0 {
			t.Errorf("TempVariance(%d) = %g, want 0", idx, got)
		}
		if got := tr.TempGradient(idx); got != 0 {
			t.Errorf("TempGradient(%d) = %g, want 0", idx, got)
		}
	}
	if badC := tr.ClusterIndex("no-such-cluster"); badC != -1 {
		t.Fatalf("ClusterIndex on an unknown cluster = %d, want -1", badC)
	} else {
		if got := tr.Freqs(badC); got != nil {
			t.Errorf("Freqs(-1) = %v, want nil", got)
		}
		if got := tr.AvgFreqMHz(badC); got != 0 {
			t.Errorf("AvgFreqMHz(-1) = %g, want 0", got)
		}
	}
}

// The sim-level consequence: TEEM produces far fewer deep thermal cycles
// than the ondemand sawtooth; verified at the trace level with synthetic
// shapes here (the experiments package covers the real runs).
func TestCycleComparisonShape(t *testing.T) {
	ondemand := sawtooth(t, 88, 95, 6)
	teem := sawtooth(t, 84.5, 86, 6)
	// With a 3 °C reliability hysteresis TEEM's wiggle doesn't count.
	if oc, tc := ondemand.CycleCount(0, 3), teem.CycleCount(0, 3); tc >= oc {
		t.Errorf("TEEM cycles %d should be below ondemand %d", tc, oc)
	}
}
