package thermal

import (
	"math"
	"math/rand"
	"testing"
)

// affineReference advances the model tick by tick through the stepper,
// evaluating the affine power law P(T) = pConst + slope·T before each
// step — the arithmetic a fixed-tick simulation performs.
func affineReference(t *testing.T, st *Stepper, pConst, slope []float64, ticks int) []float64 {
	t.Helper()
	m := st.m
	n := len(pConst)
	inj := make([]float64, n)
	for k := 0; k < ticks; k++ {
		for i := 0; i < n; i++ {
			inj[i] = pConst[i] + slope[i]*m.Temp(i)
		}
		if err := st.Step(inj); err != nil {
			t.Fatal(err)
		}
	}
	return m.Temps()
}

// Property: Jump+Commit reproduces the tick-by-tick affine trajectory to
// floating-point rounding across randomized networks, slopes, horizons
// and start states.
func TestSuperstepMatchesSequentialTicks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	horizons := []int{1, 2, 3, 5, 8, 16, 17, 63, 64, 99, 100, 513}
	for trial := 0; trial < 25; trial++ {
		net := randomNetwork(rng)
		n := len(net.Nodes)
		mRef, err := NewModel(net, 28)
		if err != nil {
			t.Fatal(err)
		}
		mJmp, err := NewModel(net, 28)
		if err != nil {
			t.Fatal(err)
		}
		stRef, err := mRef.NewStepper(0.01)
		if err != nil {
			t.Fatal(err)
		}
		stJmp, err := mJmp.NewStepper(0.01)
		if err != nil {
			t.Fatal(err)
		}
		pConst := randomPowers(rng, n)
		slope := make([]float64, n)
		for i := range slope {
			// Realistic leakage feedback: a few mW/°C.
			slope[i] = 0.01 * rng.Float64()
		}
		ss, err := NewSuperstep(stJmp, slope)
		if err != nil {
			t.Fatal(err)
		}
		// Jump's constInjW is the temperature-independent part of the
		// power law — the reference's pConst; the slope rides in the map.
		for _, h := range horizons {
			ref := affineReference(t, stRef, pConst, slope, h)
			end, dir, err := ss.Jump(h, pConst)
			if err != nil {
				t.Fatal(err)
			}
			if dir == 0 {
				// Mixed trajectory: a legal fallback outcome. Re-sync the
				// jump model tick by tick and try the next horizon.
				affineReference(t, stJmp, pConst, slope, h)
				continue
			}
			if err := ss.Commit(); err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if d := math.Abs(end[i] - ref[i]); d > 1e-9 {
					t.Fatalf("trial %d horizon %d node %d: jump %.15g vs sequential %.15g (|Δ|=%.3g)",
						trial, h, i, end[i], ref[i], d)
				}
			}
		}
	}
}

// The direction probe: heating from ambient reports rising, cooling from
// a hot start with no injected power reports falling, and the committed
// endpoints respect the direction. Direction re-runs the probe: after a
// monotone Jump, and after BeginSegments, on the state they took.
func TestSuperstepDirection(t *testing.T) {
	net := Exynos5422Network()
	m, err := NewModel(net, 28)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.NewStepper(0.01)
	if err != nil {
		t.Fatal(err)
	}
	slope := make([]float64, len(net.Nodes))
	ss, err := NewSuperstep(st, slope)
	if err != nil {
		t.Fatal(err)
	}
	// Direction has no injection to probe under until a monotone Jump or
	// BeginSegments runs; both probe the same state.
	if d := ss.Direction(); d != 0 {
		t.Fatalf("Direction = %d with no modal state, want 0", d)
	}
	direction := func(inj []float64, dir int) int {
		t.Helper()
		if d := ss.Direction(); d != dir {
			t.Fatalf("Direction after Jump = %d, Jump's probe %d", d, dir)
		}
		if err := ss.BeginSegments(inj); err != nil {
			t.Fatal(err)
		}
		return ss.Direction()
	}
	hot := []float64{4, 3, 4, 3} // watts: drives every node up from ambient
	end, dir, err := ss.Jump(50, hot)
	if err != nil {
		t.Fatal(err)
	}
	if dir != 1 {
		t.Fatalf("heating from ambient: dir = %d, want 1", dir)
	}
	if d := direction(hot, dir); d != dir {
		t.Fatalf("heating from ambient: Direction = %d, Jump's probe %d", d, dir)
	}
	if _, _, err := ss.Jump(50, hot); err != nil {
		t.Fatal(err)
	}
	for i := range end {
		if end[i] <= 28 {
			t.Fatalf("node %d did not heat: %g", i, end[i])
		}
	}
	if err := ss.Commit(); err != nil {
		t.Fatal(err)
	}
	// Long soak toward the hot steady state, then cut power: cooling.
	if _, _, err := ss.Jump(100000, hot); err != nil {
		t.Fatal(err)
	}
	if err := ss.Commit(); err != nil {
		t.Fatal(err)
	}
	zero := make([]float64, len(net.Nodes))
	end, dir, err = ss.Jump(50, zero)
	if err != nil {
		t.Fatal(err)
	}
	if dir != -1 {
		t.Fatalf("cooling after power cut: dir = %d, want -1", dir)
	}
	if d := direction(zero, dir); d != dir {
		t.Fatalf("cooling after power cut: Direction = %d, Jump's probe %d", d, dir)
	}
	if end, _, err = ss.Jump(50, zero); err != nil {
		t.Fatal(err)
	}
	for i := range end {
		if end[i] < 28 {
			t.Fatalf("node %d cooled below ambient: %g", i, end[i])
		}
	}
}

// Commit without a planned Jump or Segment must fail, and a failed Jump
// or a refused Segment must invalidate any previous plan.
func TestSuperstepCommitContract(t *testing.T) {
	net := Exynos5422Network()
	m, err := NewModel(net, 28)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.NewStepper(0.01)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewSuperstep(st, make([]float64, len(net.Nodes)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Commit(); err == nil {
		t.Fatal("Commit without Jump did not fail")
	}
	p := []float64{2, 1, 2, 1}
	if _, _, err := ss.Jump(10, p); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ss.Jump(0, p); err == nil {
		t.Fatal("Jump(0) did not fail")
	}
	if err := ss.Commit(); err == nil {
		t.Fatal("Commit after failed Jump did not fail")
	}
	if _, _, err := ss.Jump(10, p); err != nil {
		t.Fatal(err)
	}
	if _, ok := ss.Segment(SegmentMaxTicks + 1); ok {
		t.Fatal("a segment longer than SegmentMaxTicks was certified")
	}
	if err := ss.Commit(); err == nil {
		t.Fatal("Commit after a refused Segment did not fail")
	}
}

// NewSuperstep validation: slope length and sign.
func TestNewSuperstepValidation(t *testing.T) {
	net := Exynos5422Network()
	m, err := NewModel(net, 28)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.NewStepper(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSuperstep(st, make([]float64, 2)); err == nil {
		t.Fatal("wrong slope length accepted")
	}
	bad := make([]float64, len(net.Nodes))
	bad[0] = -0.01
	if _, err := NewSuperstep(st, bad); err == nil {
		t.Fatal("negative slope accepted")
	}
}

// Two steppers over one shared System and dt share one propagator, so
// their Supersteps for one slope share one modal form — pointer-equal,
// built by one eigensolve — and land on identical bits; another slope
// gets a form of its own.
func TestSuperstepFormSharing(t *testing.T) {
	sys, err := Compile(Exynos5422Network())
	if err != nil {
		t.Fatal(err)
	}
	sys.Share()
	steppers := make([]*Stepper, 2)
	for i := range steppers {
		if steppers[i], err = sys.NewModel(28).NewStepper(0.0137); err != nil {
			t.Fatal(err)
		}
	}
	if steppers[0].prop != steppers[1].prop {
		t.Fatal("steppers over one system hold separate propagators")
	}
	if steppers[0].CacheHit() || !steppers[1].CacheHit() {
		t.Errorf("propagator hits %v/%v, want false/true", steppers[0].CacheHit(), steppers[1].CacheHit())
	}
	slope := []float64{0.003, 0.001, 0.004, 0}
	a, err := NewSuperstep(steppers[0], slope)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSuperstep(steppers[1], slope)
	if err != nil {
		t.Fatal(err)
	}
	if a.f != b.f || a.Reused() || !b.Reused() {
		t.Fatalf("form not shared: %p vs %p, reused %v/%v", a.f, b.f, a.Reused(), b.Reused())
	}
	p := []float64{2, 1, 2, 1}
	for _, ss := range []*Superstep{a, b} {
		if _, _, err := ss.Jump(37, p); err != nil {
			t.Fatal(err)
		}
		if err := ss.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range p {
		if x, y := steppers[0].m.Temp(i), steppers[1].m.Temp(i); math.Float64bits(x) != math.Float64bits(y) {
			t.Errorf("node %d: %v vs %v", i, x, y)
		}
	}
	c, err := NewSuperstep(steppers[1], []float64{0.003, 0.001, 0.004, 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	if c.f == a.f || c.Reused() {
		t.Error("a different slope vector reused the form")
	}
	// A propagator that no shared System keeps holds no forms: they would hold
	// the process-wide budget after the system is gone.
	private := *steppers[0]
	private.prop = &propagator{a: private.a, bp: private.bp, ambGain: private.ambGain}
	x, err := NewSuperstep(&private, slope)
	if err != nil {
		t.Fatal(err)
	}
	y, err := NewSuperstep(&private, slope)
	if err != nil {
		t.Fatal(err)
	}
	if x.f == y.f || x.Reused() || y.Reused() {
		t.Error("an uncached propagator shared a form")
	}
}

// Property: a planned Jump's interior — the slope term of the power law
// at an offset j and the states T(j) and T(j+1) — matches the
// tick-by-tick affine trajectory to floating-point rounding, with the
// state carried in modal space across offsets of varying spacing, and
// reading the interior leaves the planned landing state as Jump gave it.
func TestSuperstepInstantsMatchTicks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		net := randomNetwork(rng)
		n := len(net.Nodes)
		mRef, err := NewModel(net, 28)
		if err != nil {
			t.Fatal(err)
		}
		mJmp, err := NewModel(net, 28)
		if err != nil {
			t.Fatal(err)
		}
		stRef, err := mRef.NewStepper(0.01)
		if err != nil {
			t.Fatal(err)
		}
		stJmp, err := mJmp.NewStepper(0.01)
		if err != nil {
			t.Fatal(err)
		}
		pConst := randomPowers(rng, n)
		slope := make([]float64, n)
		for i := range slope {
			slope[i] = 0.01 * rng.Float64()
		}
		ss, err := NewSuperstep(stJmp, slope)
		if err != nil {
			t.Fatal(err)
		}
		horizon := 300 + rng.Intn(3000)
		end, dir, err := ss.Jump(horizon, pConst)
		if err != nil {
			t.Fatal(err)
		}
		if dir == 0 {
			continue
		}
		landing := append([]float64(nil), end...)
		got := make([]float64, n)
		check := func(what string, j int, ref []float64) {
			for i := range got {
				if d := math.Abs(got[i] - ref[i]); d > 1e-9 {
					t.Fatalf("trial %d %s at offset %d node %d: %.15g, ticks %.15g (|Δ|=%.3g)", trial, what, j, i, got[i], ref[i], d)
				}
			}
		}
		// at is the reference model's offset from the jump's start.
		at := 0
		for j := rng.Intn(100); j < horizon; j = at + rng.Intn(150) {
			ref := affineReference(t, stRef, pConst, slope, j-at)
			slopeW, want := ss.InstantSlopeW(j), 0.0
			for i, s := range slope {
				want += s * ref[i]
			}
			if d := math.Abs(slopeW - want); d > 1e-9 {
				t.Fatalf("trial %d offset %d: slope term %.15g, ticks %.15g (|Δ|=%.3g)", trial, j, slopeW, want, d)
			}
			ss.InstantTemps(got, 0)
			check("T(j)", j, ref)
			ref = affineReference(t, stRef, pConst, slope, 1)
			at = j + 1
			ss.InstantTemps(got, 1)
			check("T(j+1)", j, ref)
		}
		if s := ss.InstantSlopeW(at - 2); !math.IsNaN(s) {
			t.Errorf("trial %d: an offset behind the carried one was read (%g)", trial, s)
		}
		if err := ss.Commit(); err != nil {
			t.Fatal(err)
		}
		for i, v := range mJmp.Temps() {
			if v != landing[i] {
				t.Fatalf("trial %d node %d: committed %.15g, planned %.15g", trial, i, v, landing[i])
			}
		}
	}
}

// Each Superstep owns its scratch state: a plan on one map survives
// another map's BeginSegments and Segment on the same stepper, reads the
// same interior, and commits the bits the jump commits on a stepper of
// its own.
func TestSuperstepPlanSurvivesOtherMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := randomNetwork(rng)
	n := len(net.Nodes)
	p := randomPowers(rng, n)
	slopeA, slopeB := make([]float64, n), make([]float64, n)
	for i := range slopeA {
		slopeA[i], slopeB[i] = 0.001, 0.002
	}
	jump := func(other bool) (temps []float64, slopeW float64) {
		m, err := NewModel(net, 28)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.NewStepper(0.01)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewSuperstep(st, slopeA)
		if err != nil {
			t.Fatal(err)
		}
		if _, dir, err := a.Jump(50, p); err != nil || dir == 0 {
			t.Fatalf("Jump: dir %d, err %v", dir, err)
		}
		if other {
			b, err := NewSuperstep(st, slopeB)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.BeginSegments(p); err != nil {
				t.Fatal(err)
			}
			for l := 1; l <= SegmentMaxTicks; l++ {
				b.Segment(l)
			}
		}
		slopeW = a.InstantSlopeW(10)
		if err := a.Commit(); err != nil {
			t.Fatalf("other map %v: %v", other, err)
		}
		return m.Temps(), slopeW
	}
	lone, loneW := jump(false)
	got, gotW := jump(true)
	if math.Float64bits(gotW) != math.Float64bits(loneW) {
		t.Errorf("interior slope term %v, alone %v", gotW, loneW)
	}
	for i := range lone {
		if math.Float64bits(got[i]) != math.Float64bits(lone[i]) {
			t.Errorf("node %d: committed %v, alone %v", i, got[i], lone[i])
		}
	}
}
