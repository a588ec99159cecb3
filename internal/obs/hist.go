package obs

// Histogram is a fixed-bucket histogram with cumulative-on-render
// semantics: Observe stores per-bucket counts, Snapshot hands the raw
// counts to the exposition writer, which renders the cumulative
// `_bucket` series Prometheus expects. It is NOT internally
// synchronised — callers guard it with the mutex that already protects
// their metric state (teemd's metrics mutex), keeping one locking
// discipline for the whole surface.
type Histogram struct {
	bounds []float64 // upper bounds, strictly increasing
	counts []int64   // one per bound; values above the last fall through to Count only
	sum    float64
	count  int64
}

// NewHistogram builds a histogram over the given strictly-increasing
// upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds))}
}

// LatencyBuckets is the default bucket ladder for job latencies and run
// durations: exponential from 1 ms to ~65 s, matching the spread
// between a cached preset cell and a long fault-retried grid.
func LatencyBuckets() []float64 {
	b := make([]float64, 0, 17)
	for v := 0.001; v < 66; v *= 2 {
		b = append(b, v)
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.count++
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) the way Prometheus'
// histogram_quantile does: it finds the first bucket whose cumulative
// count reaches rank q·Count and interpolates linearly inside it, the
// first bucket starting at 0. A rank past the last bound returns that
// bound. q = 0 returns the lower edge of the first non-empty bucket
// (where histogram_quantile divides 0 by 0), and an empty histogram
// returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum int64
	lower := 0.0
	for i, ub := range h.bounds {
		if n := h.counts[i]; n > 0 && float64(cum+n) >= rank {
			return lower + (ub-lower)*(rank-float64(cum))/float64(n)
		}
		cum += h.counts[i]
		lower = ub
	}
	return lower
}

// HistSnapshot is a point-in-time copy of a histogram, safe to render
// after the guarding lock is released.
type HistSnapshot struct {
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	return HistSnapshot{
		Bounds: h.bounds,
		Counts: append([]int64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}
