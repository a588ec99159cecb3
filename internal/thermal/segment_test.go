package thermal_test

import (
	"math"
	"math/rand"
	"testing"

	"teem/internal/platform"
	"teem/internal/power"
	"teem/internal/sim"
	"teem/internal/thermal"
)

// segmentCase is one affine system a segment chain runs on: a network at
// an ambient temperature, the power law P(T) = pConst + slope·T and the
// start temperatures.
type segmentCase struct {
	net                  *thermal.Network
	ambC                 float64
	pConst, slope, start []float64
}

// randomSegmentCase draws a network, a power law and a start state. Half
// the cases start each node up to 80 °C above ambient, so some nodes
// heat, some cool and some turn around inside a chain; the others start
// within 0.05 °C of the power law's equilibrium, where directions mix
// and the certificate must refuse what it cannot bound.
func randomSegmentCase(t *testing.T, rng *rand.Rand) segmentCase {
	t.Helper()
	net := thermal.RandomNetwork(rng)
	n := len(net.Nodes)
	c := segmentCase{net: net, ambC: 20 + 20*rng.Float64(), pConst: thermal.RandomPowers(rng, n),
		slope: make([]float64, n), start: make([]float64, n)}
	if rng.Intn(2) == 0 {
		for i := range c.slope {
			c.slope[i] = 0.02 * rng.Float64()
			c.start[i] = c.ambC + 80*rng.Float64()
		}
		return c
	}
	m, err := thermal.NewModel(net, c.ambC)
	if err != nil {
		t.Fatal(err)
	}
	// The equilibrium of P(T) = pConst + slope·T by fixed-point iteration;
	// slopes this small make it a contraction.
	p := make([]float64, n)
	for i := range c.slope {
		c.slope[i] = 0.002 * rng.Float64()
		c.start[i] = c.ambC
	}
	for it := 0; it < 50; it++ {
		for i := range p {
			p[i] = c.pConst[i] + c.slope[i]*c.start[i]
		}
		if c.start, err = m.SteadyState(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := range c.start {
		c.start[i] += 0.1 * (rng.Float64() - 0.5)
	}
	return c
}

// stepper builds a model of c at its start state and its 10 ms stepper.
func (c segmentCase) stepper(t *testing.T) (*thermal.Model, *thermal.Stepper) {
	t.Helper()
	m, err := thermal.NewModel(c.net, c.ambC)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetTemps(c.start); err != nil {
		t.Fatal(err)
	}
	st, err := m.NewStepper(0.01)
	if err != nil {
		t.Fatal(err)
	}
	return m, st
}

// stepAffine steps st once under P(T) = pConst + slope·T at m's state.
func (c segmentCase) stepAffine(t *testing.T, m *thermal.Model, st *thermal.Stepper, inj []float64) {
	t.Helper()
	for i := range inj {
		inj[i] = c.pConst[i] + c.slope[i]*m.Temp(i)
	}
	if err := st.Step(inj); err != nil {
		t.Fatal(err)
	}
}

// runSegments advances two models of c through segments of the given
// lengths. The reference steps tick by tick; the other evaluates each
// segment in closed form. A certified segment must be monotone on every
// node of the reference trajectory (to 1e-11 °C of rounding per tick),
// its T(L−1) and T(L) must agree with the reference within 1e-9 °C and
// the power law's slope term at T(L−1) within 1e-9 W, and committing it
// must leave the model at T(L). A refused segment is
// stepped tick by tick, as the engine walks it, and the chain restarts
// from there. It returns the lengths of the certified segments.
func runSegments(t *testing.T, c segmentCase, lengths []int) (certified []int) {
	t.Helper()
	ref, refSt := c.stepper(t)
	seg, segSt := c.stepper(t)
	ss, err := thermal.NewSuperstep(segSt, c.slope)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.BeginSegments(c.pConst); err != nil {
		t.Fatal(err)
	}
	inj := make([]float64, len(c.pConst))
	var traj [thermal.SegmentMaxTicks + 1][]float64
	for s, l := range lengths {
		traj[0] = ref.Temps()
		for j := 1; j <= l; j++ {
			c.stepAffine(t, ref, refSt, inj)
			traj[j] = ref.Temps()
		}
		end, ok := ss.Segment(l)
		if !ok {
			for j := 0; j < l; j++ {
				c.stepAffine(t, seg, segSt, inj)
			}
			if err := ss.BeginSegments(c.pConst); err != nil {
				t.Fatal(err)
			}
			continue
		}
		certified = append(certified, l)
		prev, slopeW, refSlopeW := thermal.SegmentPrev(ss), ss.SegmentSlopeW(), 0.0
		for i, v := range traj[l-1] {
			refSlopeW += c.slope[i] * v
		}
		if d := math.Abs(slopeW - refSlopeW); d > 1e-9 {
			t.Fatalf("segment %d (%d ticks): slope term at T(L−1) %.15g W, ticks %.15g W", s, l, slopeW, refSlopeW)
		}
		for i := range end {
			if d := math.Abs(prev[i] - traj[l-1][i]); d > 1e-9 {
				t.Fatalf("segment %d (%d ticks) node %d: T(L−1) %.15g, ticks %.15g", s, l, i, prev[i], traj[l-1][i])
			}
			if d := math.Abs(end[i] - traj[l][i]); d > 1e-9 {
				t.Fatalf("segment %d (%d ticks) node %d: T(L) %.15g, ticks %.15g", s, l, i, end[i], traj[l][i])
			}
			dir := math.Copysign(1, traj[l][i]-traj[0][i])
			for j := 0; j < l; j++ {
				if inc := dir * (traj[j+1][i] - traj[j][i]); inc < -1e-11 {
					t.Fatalf("segment %d (%d ticks) certified, but node %d turns on tick %d (%.3g against its direction)", s, l, i, j, -inc)
				}
			}
		}
		if err := ss.CommitSegment(); err != nil {
			t.Fatal(err)
		}
		for i, v := range end {
			if seg.Temp(i) != v {
				t.Fatalf("segment %d: committed node %d at %v, planned %v", s, i, seg.Temp(i), v)
			}
		}
	}
	return certified
}

// The segment certificate is sound: over randomized networks, slopes and
// start states, every segment of L = 1…SegmentMaxTicks ticks it certifies
// is monotone on every node of the tick-by-tick trajectory, with T(L−1)
// and T(L) within 1e-9 °C of it. It is not vacuous: on every catalog
// network at its full-load operating point, heating from ambient, it
// certifies segments of every length.
func TestSuperstepSegmentCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := make([]int, 3*thermal.SegmentMaxTicks)
	for i := range lengths {
		lengths[i] = 1 + i%thermal.SegmentMaxTicks
	}
	certified, refused := 0, 0
	for trial := 0; trial < 60; trial++ {
		n := len(runSegments(t, randomSegmentCase(t, rng), lengths))
		certified += n
		refused += len(lengths) - n
	}
	if certified == 0 {
		t.Fatal("no random segment was certified")
	}
	t.Logf("random systems: %d segments certified, %d refused", certified, refused)

	for _, name := range platform.Names() {
		c := fullLoadCase(t, name)
		byLen := make([]int, thermal.SegmentMaxTicks+1)
		for _, l := range runSegments(t, c, lengths) {
			byLen[l]++
		}
		for l := 1; l <= thermal.SegmentMaxTicks; l++ {
			if byLen[l] == 0 {
				t.Errorf("%s at full load: no %d-tick segment certified", name, l)
			}
		}
	}
}

// fullLoadCase is the named catalog network at its full-load operating
// point — every cluster fully loaded at its top OPP, leakage slopes
// folded in — starting at ambient.
func fullLoadCase(t *testing.T, name string) segmentCase {
	t.Helper()
	b, err := platform.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := power.NewModel(b.SoC)
	if err != nil {
		t.Fatal(err)
	}
	nodeOf, _, err := sim.ResolveNodes(b.SoC, b.Net)
	if err != nil {
		t.Fatal(err)
	}
	n := len(b.Net.Nodes)
	c := segmentCase{net: b.Net, ambC: b.SoC.AmbientC, pConst: make([]float64, n), slope: make([]float64, n), start: make([]float64, n)}
	at25 := make([]float64, n)
	for i := range at25 {
		at25[i], c.start[i] = 25, c.ambC
	}
	if err := platform.FullLoadInjection(b, pm, b.SoC.Big().MaxFreqMHz(), at25, c.pConst); err != nil {
		t.Fatal(err)
	}
	for i := range b.SoC.Clusters {
		cl := &b.SoC.Clusters[i]
		load := power.ClusterLoad{FreqMHz: cl.MaxFreqMHz(), ActiveCores: cl.NumCores, OnCores: cl.NumCores, Utilization: 1, Activity: 1}
		_, _, s, err := pm.ClusterPowerAffine(i, load)
		if err != nil {
			t.Fatal(err)
		}
		c.slope[nodeOf[i]] += s
	}
	for i := range c.pConst {
		c.pConst[i] -= 25 * c.slope[i]
	}
	return c
}

// FuzzSuperstepSegment is TestSuperstepSegmentCertificate's random half
// as a fuzz target: the seed draws the system and start state, and each
// byte of lengths one segment of 1 + b%SegmentMaxTicks ticks (at most 32
// segments).
func FuzzSuperstepSegment(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, byte(seed)})
	}
	f.Fuzz(func(t *testing.T, seed int64, lengths []byte) {
		ls := make([]int, 0, 32)
		for _, b := range lengths[:min(len(lengths), 32)] {
			ls = append(ls, 1+int(b)%thermal.SegmentMaxTicks)
		}
		runSegments(t, randomSegmentCase(t, rand.New(rand.NewSource(seed))), ls)
	})
}
