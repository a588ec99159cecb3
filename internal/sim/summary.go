package sim

import (
	"math"

	"teem/internal/stats"
)

// summary folds every recorded sample into the aggregates a Result
// reports, so they need no trace. Each fold repeats the arithmetic of
// the trace.Trace method it replaces operand for operand and in sample
// order, which keeps the values bit-identical to that method over the
// same samples (the trace methods stay the reference the tests compare
// against):
//
//   - AvgTemp: each node's trapezoid area over the covered duration;
//   - TempVariance: the big node's series, for the two-pass
//     stats.Variance (a one-pass Welford update would round differently);
//   - TempGradient: the sum of |dT/dt| over samples with dt > 0;
//   - AvgFreqMHz: the zero-order-hold area of the big-cluster frequency.
//
// For a single sample, or samples spanning zero time, the means report
// the first sample's values, as the trace does.
type summary struct {
	n         int     // samples folded
	t0, tPrev float64 // first and previous sample time
	bigNode   int

	first, prev, area []float64 // per node, in acc
	acc               []float64
	big               []float64 // the big node's series, if series
	series            bool

	gradSum float64
	gradN   int

	freq0, freqPrev int // big-cluster frequency of the first and previous sample
	freqArea        float64
}

// recycled returns an empty summary that keeps s's buffers for init:
// the accumulators and the big node's series.
func (s *summary) recycled() summary {
	return summary{acc: s.acc, big: s.big[:0]}
}

// init readies the accumulators for nodes thermal nodes. Without series
// the big node's series is not kept, and tempVariance reads 0.
func (s *summary) init(nodes, bigNode int, series bool) {
	s.acc = zeroed(s.acc, 3*nodes)
	s.first, s.prev, s.area = s.acc[:nodes], s.acc[nodes:2*nodes], s.acc[2*nodes:]
	s.bigNode, s.series = bigNode, series
}

// add folds one sample: its time, node temperatures and big-cluster
// frequency.
//
//teem:hotpath
func (s *summary) add(t float64, temps []float64, freq int) {
	if s.n == 0 {
		copy(s.first, temps)
		s.t0, s.freq0 = t, freq
	} else {
		dt := t - s.tPrev
		for i, v := range temps {
			s.area[i] += 0.5 * (v + s.prev[i]) * dt
		}
		if dt > 0 {
			s.gradSum += math.Abs(temps[s.bigNode]-s.prev[s.bigNode]) / dt
			s.gradN++
		}
		s.freqArea += float64(s.freqPrev) * dt
	}
	copy(s.prev, temps)
	s.tPrev, s.freqPrev = t, freq
	if s.series {
		//teem:alloc-ok amortized series growth; an engine rebuilt from a retired one keeps the capacity
		s.big = append(s.big, temps[s.bigNode])
	}
	s.n++
}

// duration is the time the folded samples span.
func (s *summary) duration() float64 { return s.tPrev - s.t0 }

// avgTemp is trace.Trace.AvgTemp for node i.
func (s *summary) avgTemp(i int) float64 {
	if s.n == 0 {
		return 0
	}
	if s.n == 1 || s.duration() == 0 {
		return s.first[i]
	}
	return s.area[i] / s.duration()
}

// tempVariance is trace.Trace.TempVariance for the big node.
func (s *summary) tempVariance() float64 { return stats.Variance(s.big) }

// tempGradient is trace.Trace.TempGradient for the big node.
func (s *summary) tempGradient() float64 {
	if s.gradN == 0 {
		return 0
	}
	return s.gradSum / float64(s.gradN)
}

// avgFreqMHz is trace.Trace.AvgFreqMHz for the big cluster.
func (s *summary) avgFreqMHz() float64 {
	if s.n == 0 {
		return 0
	}
	if s.n == 1 || s.duration() == 0 {
		return float64(s.freq0)
	}
	return s.freqArea / s.duration()
}
