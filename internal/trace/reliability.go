package trace

import "math"

// Reliability-oriented thermal metrics. The paper argues thermal cycling
// and gradients "impair the reliability of the device" ([1], [6]–[8]);
// these metrics quantify cycling: thermal cycle counting (peak/valley
// excursions beyond a hysteresis, the input to Coffin-Manson style
// lifetime models).

// ThermalCycle is one detected temperature excursion.
type ThermalCycle struct {
	// StartS and EndS bound the cycle in time.
	StartS, EndS float64
	// AmplitudeC is the peak-to-valley swing.
	AmplitudeC float64
}

// ThermalCycles detects temperature cycles on node i using three-point
// peak/valley extraction with the given hysteresis: only swings of at
// least minAmplitudeC count (smaller wiggle is sensor noise, not stress).
func (t *Trace) ThermalCycles(i int, minAmplitudeC float64) []ThermalCycle {
	if !t.validNode(i) || t.Len() < 3 || minAmplitudeC <= 0 {
		return nil
	}
	temps := t.Temps(i)
	times := make([]float64, t.Len())
	for k, s := range t.Samples {
		times[k] = s.TimeS
	}

	// Extract alternating extrema with hysteresis.
	type extremum struct {
		t, v  float64
		isMax bool
	}
	// The first sample seeds the extrema list: if the trace starts at a
	// valley or peak the first excursion is counted from there (a
	// rainflow-style half cycle).
	ext := []extremum{{t: times[0], v: temps[0]}}
	cur := extremum{t: times[0], v: temps[0]}
	dir := 0 // unknown
	for k := 1; k < len(temps); k++ {
		switch {
		case dir >= 0 && temps[k] > cur.v:
			cur = extremum{t: times[k], v: temps[k], isMax: true}
			dir = 1
		case dir <= 0 && temps[k] < cur.v:
			cur = extremum{t: times[k], v: temps[k], isMax: false}
			dir = -1
		case dir == 1 && cur.v-temps[k] >= minAmplitudeC:
			ext = append(ext, cur)
			cur = extremum{t: times[k], v: temps[k], isMax: false}
			dir = -1
		case dir == -1 && temps[k]-cur.v >= minAmplitudeC:
			ext = append(ext, cur)
			cur = extremum{t: times[k], v: temps[k], isMax: true}
			dir = 1
		}
	}
	ext = append(ext, cur)

	// Pair adjacent extrema into cycles.
	var cycles []ThermalCycle
	for k := 1; k < len(ext); k++ {
		amp := math.Abs(ext[k].v - ext[k-1].v)
		if amp >= minAmplitudeC {
			cycles = append(cycles, ThermalCycle{
				StartS:     ext[k-1].t,
				EndS:       ext[k].t,
				AmplitudeC: amp,
			})
		}
	}
	return cycles
}

// CycleCount returns the number of thermal cycles beyond the hysteresis —
// fewer and shallower cycles mean a longer-lived chip.
func (t *Trace) CycleCount(i int, minAmplitudeC float64) int {
	return len(t.ThermalCycles(i, minAmplitudeC))
}
