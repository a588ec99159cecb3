package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail is reported at. The tail
// of a sample set is the highest ladder percentile with at least
// tailBeyond samples above it; decade steps keep the chosen percentile
// fixed across runs whose sample counts differ by less than 10×.
var tailLadder = []float64{99.9, 99, 90, 75, 50}

// tailBeyond is how many samples must lie beyond a tail percentile.
const tailBeyond = 10

// dist is a sorted sample set (milliseconds, seconds, … — unit-free).
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// rankOf is the 1-based nearest rank of percentile p (0..100) among n
// samples. The epsilon keeps float rounding (99.9% of 10000 computes as
// 9990.000000000002) from pushing an exact rank up by one.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// rank returns the nearest-rank percentile (p in 0..100): the smallest
// sample with at least p% of the set at or below it.
func (d dist) rank(p float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	k := rankOf(p, len(d))
	if k < 1 {
		k = 1
	}
	if k > len(d) {
		k = len(d)
	}
	return d[k-1]
}

// median is the middle sample (mean of the two middle ones for an even
// count).
func (d dist) median() float64 {
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range d {
		s += x
	}
	return s / float64(len(d))
}

// tailPercentile picks the highest ladder percentile with at least
// tailBeyond of n samples beyond its nearest rank. ok is false when even
// the median lacks that many (fewer than 2×tailBeyond samples).
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		if beyond := n - rankOf(p, n); beyond >= tailBeyond {
			return p, beyond, true
		}
	}
	return 50, n - rankOf(50, n), false
}

// tail returns the tail by the ladder rule and a note naming the
// percentile and sample count, e.g. "p90 of 112 (11 beyond)".
func (d dist) tail() (float64, string) {
	p, _, _ := tailPercentile(len(d))
	return d.tailAt(p)
}

// tailAt returns the p-th percentile as a tail, noting how many samples
// lie beyond it. A workload whose sample count depends on the host's
// speed pins its tail percentile (the ladder's choice at its nominal
// count), so runs with slightly different counts report the same
// percentile.
func (d dist) tailAt(p float64) (float64, string) {
	beyond := len(d) - rankOf(p, len(d))
	note := fmt.Sprintf("p%s of %d (%d beyond)", fmtPct(p), len(d), beyond)
	if beyond < tailBeyond {
		note += ", fewer than 10 beyond"
	}
	return d.rank(p), note
}

func fmtPct(p float64) string {
	if p == math.Trunc(p) {
		return fmt.Sprintf("%.0f", p)
	}
	return fmt.Sprintf("%g", p)
}

// ratio divides, answering 0 for an empty base instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
