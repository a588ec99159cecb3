// Package powermeter simulates the Odroid Smart Power 2 used in the TEEM
// paper: a board-level meter that samples voltage/current/power at 1 Hz
// (the device default) with finite display resolution, and accumulates
// energy the way the device's kWh counter does — from the sampled values,
// not the continuous waveform.
package powermeter

import (
	"errors"
	"math"
)

// Meter is a sampling power meter.
type Meter struct {
	// PeriodS is the sampling period in seconds (1.0 for the SP2).
	PeriodS float64
	// ResolutionW quantises each power sample (the SP2 displays two
	// decimals, i.e. 0.01 W). Zero disables quantisation.
	ResolutionW float64

	// energyJ and sumW fold the latched samples in order; n counts them.
	energyJ, sumW float64
	n             int
	nextAt        float64
	lastT         float64
	started       bool
}

// New returns a meter with the Smart Power 2 defaults: 1 Hz, 0.01 W.
func New() *Meter { return &Meter{PeriodS: 1.0, ResolutionW: 0.01} }

// Observe feeds the continuous power waveform: callers report the
// instantaneous board power at monotonically non-decreasing times. The
// meter latches a sample whenever a sampling instant passes.
func (m *Meter) Observe(tS, powerW float64) error {
	if m.PeriodS <= 0 {
		return errors.New("powermeter: sampling period must be positive")
	}
	if m.started && tS < m.lastT {
		return errors.New("powermeter: time went backwards")
	}
	if !m.started {
		m.started = true
		m.nextAt = 0 // sample at t=0 like the device's first report
	}
	for m.nextAt <= tS {
		// Sample-and-hold of the most recent value at the sampling
		// instant.
		q := m.quantize(powerW)
		m.energyJ += q * m.PeriodS
		m.sumW += q
		m.n++
		m.nextAt += m.PeriodS
	}
	m.lastT = tS
	return nil
}

// NextSampleAtS returns the time of the next sampling instant: the
// earliest tS at which Observe would latch a sample (0 before the first
// observation — the device samples at t=0); later instants follow every
// PeriodS. Simulation loops that skip ahead use it to find the instants
// they cross, so a jumped run feeds the meter the waveform values a
// per-tick run would.
func (m *Meter) NextSampleAtS() float64 {
	if !m.started {
		return 0
	}
	return m.nextAt
}

// Robust reports whether any power within tolQ quanta of powerW latches
// the same sample as powerW: it lies more than tolQ·ResolutionW from a
// rounding boundary. A caller that knows a power only to within that
// band may latch it in place of the exact value. Without quantisation no
// value is robust.
func (m *Meter) Robust(powerW, tolQ float64) bool {
	if m.ResolutionW <= 0 {
		return false
	}
	q := powerW / m.ResolutionW
	return math.Abs(q-math.Floor(q)-0.5) > tolQ
}

func (m *Meter) quantize(p float64) float64 {
	if m.ResolutionW <= 0 {
		return p
	}
	return math.Round(p/m.ResolutionW) * m.ResolutionW
}

// EnergyJ returns the accumulated energy in joules, computed as the sum of
// samples times the period — exactly how a sampling meter integrates.
func (m *Meter) EnergyJ() float64 { return m.energyJ }

// AvgPowerW returns the mean of the samples.
func (m *Meter) AvgPowerW() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sumW / float64(m.n)
}
