package core

import (
	"fmt"
	"testing"
)

// The quiet band is exactly where Act does nothing: over the paper-repro
// sweep's thresholds, steps and floors, at every big OPP, for readings at
// the threshold and 1 °C and 1e-9 °C either side, a reading the band
// reports quiet makes Act call SetClusterFreqMHz not at all, and on an
// unthrottled chip every reading outside the band makes it call. A
// throttled chip has no band: Act's calls there rewrite the release
// target even when they change no frequency.
func TestControllerQuietBandMatchesAct(t *testing.T) {
	plat := exynosOnce()
	quietSeen := map[bool]bool{}
	for _, thr := range []float64{80, 85, 90} {
		for _, delta := range []int{100, 200, 400} {
			for _, floor := range []int{1000, 1400, 1800} {
				c := NewController(Params{ThresholdC: thr, DeltaMHz: delta, FloorMHz: floor, PeriodS: 2})
				m := &stubMachine{}
				if err := c.Start(m); err != nil {
					t.Fatal(err)
				}
				for _, opp := range plat.Big().OPPs {
					for _, throttled := range []bool{false, true} {
						for _, d := range []float64{-1, -1e-9, 0, 1e-9, 1} {
							m.freq, m.temp, m.throttled, m.calls = opp.FreqMHz, thr+d, throttled, 0
							sensor, bandC, below, ok := c.QuietBand(m)
							if err := c.Act(m); err != nil {
								t.Fatal(err)
							}
							at := fmt.Sprintf("threshold %g, δ %d, floor %d, %d MHz, throttled %v, reading %+g", thr, delta, floor, opp.FreqMHz, throttled, d)
							if ok && throttled {
								t.Fatalf("%s: band reported while throttled", at)
							}
							quiet := ok && (m.temp < bandC) == below
							if ok && (sensor != plat.Big().Name || bandC != thr) {
								t.Fatalf("%s: band on %q at %g, want %q at %g", at, sensor, bandC, plat.Big().Name, thr)
							}
							if quiet && m.calls != 0 {
								t.Errorf("%s: quiet reading, but Act made %d calls", at, m.calls)
							}
							if !throttled && !quiet && m.calls == 0 {
								t.Errorf("%s: Act made no call on a reading outside the band", at)
							}
							if quiet {
								quietSeen[below] = true
							}
						}
					}
				}
			}
		}
	}
	if !quietSeen[true] || !quietSeen[false] {
		t.Fatalf("quiet readings seen below/at-or-above the threshold: %v", quietSeen)
	}
}
