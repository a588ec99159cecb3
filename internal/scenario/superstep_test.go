package scenario

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"teem/internal/platform"
	"teem/internal/trace"
)

// Corpus-wide integrator-agreement gate (docs/integrators.md): every
// preset, under both a util-only baseline and the sensor-driven TEEM
// policy, must produce the same scheduling decisions, the same meter
// energy to machine precision, and temperatures within floating-point
// rounding whether steady intervals are superstepped or ticked. The
// trace legitimately coarsens inside jumps, so trace-derived thermal
// aggregates are held to the documented 0.01 °C bound instead.
func TestSuperstepPresetCorpusAgreement(t *testing.T) {
	for _, sc := range Presets() {
		for _, gov := range []string{"ondemand", "teem"} {
			t.Run(sc.Name+"/"+gov, func(t *testing.T) {
				rJ, err := Run(sc, Config{Governor: gov})
				if err != nil {
					t.Fatal(err)
				}
				rF, err := Run(sc, Config{Governor: gov, DisableSuperstep: true})
				if err != nil {
					t.Fatal(err)
				}
				assertSuperstepContract(t, rJ, rF)
				sJ, sF := rJ.Sim, rF.Sim
				if d := math.Abs(sJ.AvgTempC - sF.AvgTempC); d > 0.01 {
					t.Errorf("AvgTempC: superstep %.6g vs fixed %.6g (|Δ|=%.3g > 0.01)", sJ.AvgTempC, sF.AvgTempC, d)
				}
				if !rJ.Passed() || !rF.Passed() {
					t.Errorf("assertion outcomes differ or fail: superstep %v fixed %v", rJ.Violations, rF.Violations)
				}
			})
		}
	}
}

// assertSuperstepContract checks every docs/integrators.md clause between
// a superstepped run rJ and its fixed-tick twin rF of the same scenario:
// scheduling decisions, sampled energy and assertion outcomes with ==;
// committed temperatures (peaks, every recorded sample, the final state)
// and every sample's power to 1e-9; and the trace-derived aggregates as the same statistics of
// the fixed-tick run's samples at the superstepped run's record instants.
// The 0.01 °C corpus bound against the fixed-tick aggregates is
// TestSuperstepPresetCorpusAgreement's, not a general clause.
func assertSuperstepContract(t *testing.T, rJ, rF *Result) {
	t.Helper()
	sJ, sF := rJ.Sim, rF.Sim
	if sJ.Completed != sF.Completed {
		t.Errorf("Completed: superstep %v vs fixed %v", sJ.Completed, sF.Completed)
	}
	if sJ.ExecTimeS != sF.ExecTimeS {
		t.Errorf("ExecTimeS: superstep %g vs fixed %g", sJ.ExecTimeS, sF.ExecTimeS)
	}
	// The energy-accounting regression gate: a span latches each meter
	// instant it crosses with the tick's own power or a closed-form one
	// clear of the quantisation boundaries, so the sampled waveform —
	// and with it the integrated energy — is identical.
	if sJ.EnergyJ != sF.EnergyJ {
		t.Errorf("EnergyJ: superstep %.15g vs fixed %.15g", sJ.EnergyJ, sF.EnergyJ)
	}
	if sJ.AvgPowerW != sF.AvgPowerW {
		t.Errorf("AvgPowerW: superstep %.15g vs fixed %.15g", sJ.AvgPowerW, sF.AvgPowerW)
	}
	if sJ.FreqTransitions != sF.FreqTransitions {
		t.Errorf("FreqTransitions: superstep %d vs fixed %d", sJ.FreqTransitions, sF.FreqTransitions)
	}
	if sJ.ThrottleEvents != sF.ThrottleEvents {
		t.Errorf("ThrottleEvents: superstep %d vs fixed %d", sJ.ThrottleEvents, sF.ThrottleEvents)
	}
	if len(sJ.JobFinishes) != len(sF.JobFinishes) {
		t.Fatalf("JobFinishes: superstep %d vs fixed %d", len(sJ.JobFinishes), len(sF.JobFinishes))
	}
	for i := range sJ.JobFinishes {
		if sJ.JobFinishes[i] != sF.JobFinishes[i] {
			t.Errorf("JobFinishes[%d]: superstep %+v vs fixed %+v", i, sJ.JobFinishes[i], sF.JobFinishes[i])
		}
	}
	if !reflect.DeepEqual(sJ.JobCancels, sF.JobCancels) {
		t.Errorf("JobCancels: superstep %+v vs fixed %+v", sJ.JobCancels, sF.JobCancels)
	}
	if !reflect.DeepEqual(rJ.Violations, rF.Violations) {
		t.Errorf("Violations: superstep %q vs fixed %q", rJ.Violations, rF.Violations)
	}
	if d := math.Abs(sJ.PeakTempC - sF.PeakTempC); d > 1e-9 {
		t.Errorf("PeakTempC: |Δ|=%.3g beyond rounding", d)
	}
	for i := range sJ.PeakTempsC {
		if d := math.Abs(sJ.PeakTempsC[i] - sF.PeakTempsC[i]); d > 1e-9 {
			t.Errorf("PeakTempsC[%d]: |Δ|=%.3g beyond rounding", i, d)
		}
	}
	// Jumps record no interior samples, so the superstepped trace is the
	// fixed-tick trace thinned to a subset of its record instants (the
	// closing sample, the final model state, included), with the same
	// committed states there.
	sub := trace.NewWithCap(sF.Trace.NodeNames, sF.Trace.ClusterNames, 0)
	fixed := sF.Trace.Samples
	for _, s := range sJ.Trace.Samples {
		for len(fixed) > 0 && fixed[0].TimeS < s.TimeS {
			fixed = fixed[1:]
		}
		if len(fixed) == 0 || fixed[0].TimeS != s.TimeS {
			t.Fatalf("superstepped sample at t=%gs is not a fixed-tick record instant", s.TimeS)
		}
		f := fixed[0]
		for i := range s.TempsC {
			if d := math.Abs(s.TempsC[i] - f.TempsC[i]); d > 1e-9 {
				t.Errorf("t=%gs node %d: |Δ|=%.3g beyond rounding", s.TimeS, i, d)
			}
		}
		if d := math.Abs(s.PowerW - f.PowerW); d > 1e-9 {
			t.Errorf("t=%gs power: |Δ|=%.3g W beyond rounding", s.TimeS, d)
		}
		if !slices.Equal(s.FreqsMHz, f.FreqsMHz) || !slices.Equal(s.Utils, f.Utils) {
			t.Errorf("t=%gs: frequencies %v utilisations %v, fixed %v %v", s.TimeS, s.FreqsMHz, s.Utils, f.FreqsMHz, f.Utils)
		}
		if err := sub.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	if last := sF.Trace.Samples[len(sF.Trace.Samples)-1]; sub.Samples[len(sub.Samples)-1].TimeS != last.TimeS {
		t.Errorf("superstepped trace ends before the fixed-tick run's closing sample at t=%gs", last.TimeS)
	}
	big := sF.Trace.NodeIndex(bigNodeName(t, rF.Platform))
	if d := math.Abs(sJ.AvgTempC - sub.AvgTemp(big)); d > 1e-9 {
		t.Errorf("AvgTempC: superstep %.12g vs fixed-tick samples at its instants %.12g (|Δ|=%.3g)", sJ.AvgTempC, sub.AvgTemp(big), d)
	}
	if d := math.Abs(sJ.TempVarC2 - sub.TempVariance(big)); d > 1e-9*max(1, sJ.TempVarC2) {
		t.Errorf("TempVarC2: superstep %.12g vs fixed-tick samples at its instants %.12g", sJ.TempVarC2, sub.TempVariance(big))
	}
}

// bigNodeName is the thermal node of the named catalog platform's big
// cluster.
func bigNodeName(t *testing.T, name string) string {
	t.Helper()
	b, err := platform.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return b.SoC.Big().Name
}
