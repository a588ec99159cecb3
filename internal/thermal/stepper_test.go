package thermal

import (
	"math"
	"math/rand"
	"testing"
)

// randomNetwork builds a random valid RC topology: n nodes in [1,8], a
// random spanning set of node-node links plus at least one ambient link,
// with heat capacities and resistances spanning two orders of magnitude.
func randomNetwork(rng *rand.Rand) *Network {
	n := 1 + rng.Intn(8)
	net := &Network{Nodes: make([]Node, n)}
	for i := range net.Nodes {
		net.Nodes[i] = Node{
			Name:     string(rune('a' + i)),
			HeatCapJ: 0.1 + 5*rng.Float64(),
		}
	}
	// Chain the nodes so the network is connected, then sprinkle extra
	// links and ambient couplings.
	for i := 1; i < n; i++ {
		net.Links = append(net.Links, Link{A: i - 1, B: i, ResCW: 0.5 + 20*rng.Float64()})
	}
	for i := 0; i < n; i++ {
		if i == 0 || rng.Float64() < 0.4 {
			net.Links = append(net.Links, Link{A: i, B: Ambient, ResCW: 1 + 50*rng.Float64()})
		}
	}
	extra := rng.Intn(n + 1)
	for k := 0; k < extra; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			net.Links = append(net.Links, Link{A: i, B: j, ResCW: 0.5 + 30*rng.Float64()})
		}
	}
	return net
}

func randomPowers(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = 8 * rng.Float64()
	}
	return p
}

// Property: the exact stepper agrees with a finely substepped Euler
// reference within 0.01 °C across randomized networks, topologies and
// piecewise-constant power steps.
func TestStepperMatchesEulerReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const (
		dt    = 0.01
		ticks = 200
		// Euler reference substep divisor: each stepper tick is
		// matched by refDiv explicit-Euler micro-steps.
		refDiv = 400
	)
	for trial := 0; trial < 60; trial++ {
		net := randomNetwork(rng)
		amb := 20 + 20*rng.Float64()
		exact, err := NewModel(net, amb)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref, err := NewModel(net, amb)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		st, err := exact.NewStepper(dt)
		if err != nil {
			t.Fatalf("trial %d: NewStepper: %v", trial, err)
		}
		p := randomPowers(rng, len(net.Nodes))
		for k := 0; k < ticks; k++ {
			// Re-randomise the power a few times so the property
			// covers power steps, not just one transient.
			if k%50 == 49 {
				p = randomPowers(rng, len(net.Nodes))
			}
			if err := st.Step(p); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for s := 0; s < refDiv; s++ {
				if err := ref.Step(p, dt/refDiv); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
		}
		for i := range net.Nodes {
			if d := math.Abs(exact.Temp(i) - ref.Temp(i)); d > 0.01 {
				t.Errorf("trial %d (%d nodes): node %d exact %.4f vs Euler %.4f (Δ=%.4f °C)",
					trial, len(net.Nodes), i, exact.Temp(i), ref.Temp(i), d)
			}
		}
	}
}

// Property: under constant power the stepper converges to the direct
// steady-state solution.
func TestStepperConvergesToSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		net := randomNetwork(rng)
		m, err := NewModel(net, 25)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The propagator is exact for any fixed step, so a coarse
		// 5 s step covers the slowest random topologies (chains with
		// a single ambient link have time constants of ~1000 s).
		st, err := m.NewStepper(5)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		p := randomPowers(rng, len(net.Nodes))
		want, err := m.SteadyState(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		prev := m.Temps()
		for k := 0; k < 40000; k++ {
			if err := st.Step(p); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if k%200 == 199 {
				settled := true
				for i, v := range m.Temps() {
					if math.Abs(v-prev[i]) > 1e-9 {
						settled = false
					}
					prev[i] = v
				}
				if settled {
					break
				}
			}
		}
		for i := range want {
			if d := math.Abs(m.Temp(i) - want[i]); d > 0.01 {
				t.Errorf("trial %d: node %d settled at %.4f, steady state %.4f (Δ=%.4f)",
					trial, i, m.Temp(i), want[i], d)
			}
		}
	}
}

// The stepper must honour mid-run ambient changes exactly like the
// reference integrator (the adaptation scenario of the facade).
func TestStepperTracksAmbientChange(t *testing.T) {
	m, err := NewModel(Exynos5422Network(), 28)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.NewStepper(0.01)
	if err != nil {
		t.Fatal(err)
	}
	m.SetAmbientC(45)
	p := []float64{0, 0, 0, 0}
	for k := 0; k < 200000; k++ {
		if err := st.Step(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if d := math.Abs(m.Temp(i) - 45); d > 0.01 {
			t.Errorf("node %d settled at %.3f after ambient change, want 45", i, m.Temp(i))
		}
	}
}

func TestStepperValidation(t *testing.T) {
	m, err := NewModel(Exynos5422Network(), 28)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewStepper(0); err == nil {
		t.Error("NewStepper should reject a zero step")
	}
	if _, err := m.NewStepper(-1); err == nil {
		t.Error("NewStepper should reject a negative step")
	}
	st, err := m.NewStepper(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Step([]float64{1, 2}); err == nil {
		t.Error("Step should reject a wrong-length power vector")
	}
}

// Allocation-regression guards: the hot-path integrators must not touch
// the heap.
func TestStepperStepZeroAllocs(t *testing.T) {
	m, err := NewModel(Exynos5422Network(), 28)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.NewStepper(0.01)
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{4.5, 0.4, 2.6, 1.85}
	if avg := testing.AllocsPerRun(1000, func() {
		if err := st.Step(p); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Stepper.Step allocates %.2f objects/op, want 0", avg)
	}
}

func TestModelStepZeroAllocs(t *testing.T) {
	m, err := NewModel(Exynos5422Network(), 28)
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{4.5, 0.4, 2.6, 1.85}
	if avg := testing.AllocsPerRun(1000, func() {
		if err := m.Step(p, 0.01); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Model.Step allocates %.2f objects/op, want 0", avg)
	}
}

func TestSteadyStateIntoZeroAllocs(t *testing.T) {
	m, err := NewModel(Exynos5422Network(), 28)
	if err != nil {
		t.Fatal(err)
	}
	p, dst := []float64{4.5, 0.4, 2.6, 1.85}, make([]float64, 4)
	if avg := testing.AllocsPerRun(1000, func() {
		if err := m.SteadyStateInto(dst, p); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Model.SteadyStateInto allocates %.2f objects/op, want 0", avg)
	}
}

// solveTogether solves a·x = b in place by one Gaussian elimination of a
// and b together, with partial pivoting: the solver the recorded
// elimination replaces, kept as the reference it must match.
func solveTogether(a, b []float64, n int) {
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r*n+col]) > math.Abs(a[piv*n+col]) {
				piv = r
			}
		}
		if piv != col {
			for c := 0; c < n; c++ {
				a[col*n+c], a[piv*n+c] = a[piv*n+c], a[col*n+c]
			}
			b[col], b[piv] = b[piv], b[col]
		}
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] / a[col*n+col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r*n+c] -= f * a[col*n+c]
			}
			b[r] -= f * b[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a[i*n+j] * b[j]
		}
		b[i] = s / a[i*n+i]
	}
}

// Property: every steady state, replayed from the system's recorded
// elimination, is bit-identical to eliminating its right-hand side
// together with the matrix, across random networks, powers and ambients
// and repeated solves on one model.
func TestSteadyStateReplaysElimination(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		net := randomNetwork(rng)
		amb := 10 + 40*rng.Float64()
		m, err := NewModel(net, amb)
		if err != nil {
			t.Fatal(err)
		}
		n := len(net.Nodes)
		for rep := 0; rep < 3; rep++ {
			p := randomPowers(rng, n)
			got, err := m.SteadyState(p)
			if err != nil {
				t.Fatal(err)
			}
			a, want := make([]float64, n*n), make([]float64, n)
			m.sys.laplacian(a)
			for i := range want {
				want[i] = p[i] + m.sys.gAmb[i]*amb
			}
			solveTogether(a, want, n)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d solve %d node %d: %v, one elimination gives %v", trial, rep, i, got[i], want[i])
				}
			}
		}
	}
}

// The steady-state solver's singularity test must be scale-relative:
// uniformly scaling a well-conditioned system must not flip it between
// singular and non-singular, and the solution must scale correctly.
func TestSolveLinearScaleInvariance(t *testing.T) {
	base := Exynos5422Network()
	for _, scale := range []float64{1e-9, 1e-6, 1, 1e6, 1e9} {
		net := &Network{Nodes: append([]Node(nil), base.Nodes...)}
		for _, l := range base.Links {
			// Scaling all resistances by 1/scale scales the
			// conductance matrix by scale.
			net.Links = append(net.Links, Link{A: l.A, B: l.B, ResCW: l.ResCW / scale})
		}
		m, err := NewModel(net, 28)
		if err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		// Scale the injected power too, so temperatures match the
		// unscaled reference exactly.
		p := []float64{4.5 * scale, 0.4 * scale, 2.6 * scale, 1.85 * scale}
		got, err := m.SteadyState(p)
		if err != nil {
			t.Fatalf("scale %g: SteadyState: %v", scale, err)
		}
		ref, _ := NewModel(base, 28)
		want, err := ref.SteadyState([]float64{4.5, 0.4, 2.6, 1.85})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6 {
				t.Errorf("scale %g: node %d = %.6f, want %.6f", scale, i, got[i], want[i])
			}
		}
	}
}

// A genuinely singular system (no ambient path reachable in the matrix
// sense) must still be rejected regardless of magnitude. Two disconnected
// nodes where only one is grounded make the Laplacian singular in exact
// arithmetic only if the ungrounded one has no links at all — build that.
func TestSolveLinearRejectsSingular(t *testing.T) {
	a := []float64{
		1, 2,
		2, 4, // rank 1
	}
	if _, err := eliminate(a, 2); err == nil {
		t.Error("eliminate accepted a rank-deficient matrix")
	}
	a2 := []float64{
		1e-30, 2e-30,
		2e-30, 4e-30,
	}
	if _, err := eliminate(a2, 2); err == nil {
		t.Error("eliminate accepted a tiny rank-deficient matrix")
	}
}
