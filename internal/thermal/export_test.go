package thermal

// The random-system generators, for the external thermal_test package:
// its segment tests also run on the platform catalog, which imports this
// package.
var (
	RandomNetwork = randomNetwork
	RandomPowers  = randomPowers
)

// SegmentPrev returns T(L−1) of the certified Segment awaiting
// CommitSegment, the state its last tick starts from.
func SegmentPrev(ss *Superstep) []float64 {
	n, q := ss.st.m.n, ss.f.q
	temps, zp := ss.st.m.temps[:n], ss.vec(vZPrev)
	prev := make([]float64, n)
	for i := range prev {
		acc := temps[i]
		for k := 0; k < n; k++ {
			acc += q[i*n+k] * zp[k]
		}
		prev[i] = acc
	}
	return prev
}
