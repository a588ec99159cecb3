package thermal

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// single returns a one-node network: node 0 → ambient with R, capacity C.
func single(r, c float64) *Network {
	return &Network{
		Nodes: []Node{{Name: "n", HeatCapJ: c}},
		Links: []Link{{A: 0, B: Ambient, ResCW: r}},
	}
}

func TestValidate(t *testing.T) {
	good := Exynos5422Network()
	if err := good.Validate(); err != nil {
		t.Fatalf("Exynos network invalid: %v", err)
	}
	bad := []*Network{
		{},
		{Nodes: []Node{{Name: "", HeatCapJ: 1}}, Links: []Link{{0, Ambient, 1}}},
		{Nodes: []Node{{Name: "a", HeatCapJ: 0}}, Links: []Link{{0, Ambient, 1}}},
		{Nodes: []Node{{Name: "a", HeatCapJ: 1}, {Name: "a", HeatCapJ: 1}}, Links: []Link{{0, Ambient, 1}}},
		{Nodes: []Node{{Name: "a", HeatCapJ: 1}}, Links: []Link{{5, Ambient, 1}}},
		{Nodes: []Node{{Name: "a", HeatCapJ: 1}}, Links: []Link{{0, 7, 1}}},
		{Nodes: []Node{{Name: "a", HeatCapJ: 1}}, Links: []Link{{0, 0, 1}}},
		{Nodes: []Node{{Name: "a", HeatCapJ: 1}}, Links: []Link{{0, Ambient, 0}}},
		{Nodes: []Node{{Name: "a", HeatCapJ: 1}, {Name: "b", HeatCapJ: 1}}, Links: []Link{{0, 1, 1}}}, // no ambient
		{Nodes: []Node{{Name: "a", HeatCapJ: 1}}},                                                     // no links
	}
	for i, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad network", i)
		}
	}
}

// Non-finite capacities and resistances are rejected by Validate, naming
// the node or link, instead of passing into the propagator (NaN failed
// later as "propagator did not converge"; +Inf ran).
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		capNet := single(1, v)
		if err := capNet.Validate(); err == nil || !strings.Contains(err.Error(), `node "n"`) {
			t.Errorf("heat capacity %g: Validate = %v, want an error naming the node", v, err)
		}
		resNet := single(v, 1)
		if err := resNet.Validate(); err == nil || !strings.Contains(err.Error(), "link 0") {
			t.Errorf("resistance %g: Validate = %v, want an error naming the link", v, err)
		}
		if _, err := NewModel(capNet, 25); err == nil {
			t.Errorf("heat capacity %g: NewModel accepted the network", v)
		}
	}
}

func TestNodeIndex(t *testing.T) {
	n := Exynos5422Network()
	if i := n.NodeIndex("A15"); i != 0 {
		t.Errorf("NodeIndex(A15) = %d, want 0", i)
	}
	if i := n.NodeIndex("zz"); i != -1 {
		t.Errorf("NodeIndex(zz) = %d, want -1", i)
	}
}

// A single-node network has the closed-form solution
// T(t) = Tamb + P·R·(1 − e^{−t/RC}).
func TestStepMatchesClosedForm(t *testing.T) {
	const (
		r, c   = 5.0, 2.0
		p      = 3.0
		amb    = 25.0
		tEnd   = 7.0
		expect = amb + p*r // steady state
	)
	m, err := NewModel(single(r, c), amb)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 700; i++ {
		if err := m.Step([]float64{p}, tEnd/700); err != nil {
			t.Fatal(err)
		}
	}
	want := amb + p*r*(1-math.Exp(-tEnd/(r*c)))
	if got := m.Temp(0); math.Abs(got-want) > 0.05 {
		t.Errorf("T(%gs) = %.3f, want %.3f (closed form)", tEnd, got, want)
	}
	_ = expect
}

func TestStepConvergesToSteadyState(t *testing.T) {
	m, err := NewModel(Exynos5422Network(), 28)
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{2.3, 0.4, 2.6, 1.85}
	want, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	// Integrate for 30 minutes of simulated time.
	if err := m.Step(p, 1800); err != nil {
		t.Fatal(err)
	}
	for i, got := range m.Temps() {
		if math.Abs(got-want[i]) > 0.1 {
			t.Errorf("node %d: integrated %.2f vs steady %.2f", i, got, want[i])
		}
	}
}

func TestSteadyStateDoesNotMutate(t *testing.T) {
	m, _ := NewModel(Exynos5422Network(), 28)
	before := m.Temps()
	if _, err := m.SteadyState([]float64{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	after := m.Temps()
	for i := range before {
		if before[i] != after[i] {
			t.Error("SteadyState mutated model state")
		}
	}
}

// Calibration: the Exynos network must reproduce the paper-critical
// operating points (see Exynos5422Network doc comment).
func TestExynosCalibration(t *testing.T) {
	m, _ := NewModel(Exynos5422Network(), 28)
	cases := []struct {
		name         string
		p            []float64
		lo, hi       float64 // A15 bounds
		gpuLo, gpuHi float64
	}{
		{"big@2000", []float64{4.5, 0.4, 2.6, 1.85}, 98, 112, 88, 100},
		{"big@1400", []float64{2.3, 0.4, 2.6, 1.85}, 78, 87, 76, 86},
		{"big@900", []float64{1.5, 0.4, 2.6, 1.85}, 68, 80, 70, 82},
		{"idle", []float64{0.25, 0.05, 0.2, 1.3}, 35, 48, 35, 48},
	}
	for _, c := range cases {
		ts, err := m.SteadyState(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if ts[0] < c.lo || ts[0] > c.hi {
			t.Errorf("%s: A15 steady = %.1f, want [%g,%g]", c.name, ts[0], c.lo, c.hi)
		}
		if ts[2] < c.gpuLo || ts[2] > c.gpuHi {
			t.Errorf("%s: Mali steady = %.1f, want [%g,%g]", c.name, ts[2], c.gpuLo, c.gpuHi)
		}
	}
}

// The big cluster must heat on a seconds scale: from ambient under full
// power it should cross 85 °C within 90 s but not within 2 s, and once the
// package is warm the 90→95 °C reheat takes only a couple of seconds (the
// ondemand sawtooth period of the paper's Fig. 1a).
func TestHeatingTimeScale(t *testing.T) {
	m, _ := NewModel(Exynos5422Network(), 28)
	p := []float64{4.5, 0.4, 2.6, 1.85}
	crossed := -1.0
	for tm := 0.0; tm < 120; tm += 0.1 {
		if err := m.Step(p, 0.1); err != nil {
			t.Fatal(err)
		}
		if m.Temp(0) >= 85 {
			crossed = tm
			break
		}
	}
	if crossed < 2 || crossed > 90 {
		t.Errorf("big cluster crossed 85°C at t=%.1fs, want 2–90 s", crossed)
	}
}

func TestWarmReheatIsFast(t *testing.T) {
	m, _ := NewModel(Exynos5422Network(), 28)
	// Warm package, big cluster just released from throttling at 90 °C.
	if err := m.SetTemps([]float64{90, 75, 85, 85}); err != nil {
		t.Fatal(err)
	}
	p := []float64{4.5, 0.4, 2.6, 1.85}
	crossed := -1.0
	for tm := 0.0; tm < 30; tm += 0.05 {
		if err := m.Step(p, 0.05); err != nil {
			t.Fatal(err)
		}
		if m.Temp(0) >= 95 {
			crossed = tm
			break
		}
	}
	if crossed < 0.2 || crossed > 15 {
		t.Errorf("warm reheat 90→95°C took %.2fs, want 0.2–15 s", crossed)
	}
}

func TestSetAmbient(t *testing.T) {
	m, _ := NewModel(single(5, 1), 20)
	m.SetAmbientC(40)
	// With no power the node must drift to the new ambient.
	if err := m.Step([]float64{0}, 300); err != nil {
		t.Fatal(err)
	}
	if got := m.Temp(0); math.Abs(got-40) > 0.1 {
		t.Errorf("node settled at %.2f, want 40", got)
	}
}

func TestSetTempsAndReset(t *testing.T) {
	m, _ := NewModel(Exynos5422Network(), 28)
	if err := m.SetTemps([]float64{90, 60, 70, 50}); err != nil {
		t.Fatal(err)
	}
	if m.Temp(0) != 90 {
		t.Error("SetTemps not applied")
	}
	if err := m.SetTemps([]float64{1}); err == nil {
		t.Error("SetTemps should reject wrong length")
	}
}

func TestStepValidation(t *testing.T) {
	m, _ := NewModel(single(5, 1), 20)
	if err := m.Step([]float64{1, 2}, 1); err == nil {
		t.Error("Step should reject wrong power length")
	}
	if err := m.Step([]float64{1}, -1); err == nil {
		t.Error("Step should reject negative dt")
	}
	if _, err := m.SteadyState([]float64{1, 2}); err == nil {
		t.Error("SteadyState should reject wrong power length")
	}
}

// Property: with zero power all temperatures decay monotonically toward
// ambient and never undershoot it.
func TestCoolingMonotoneProperty(t *testing.T) {
	f := func(seed uint8) bool {
		m, err := NewModel(Exynos5422Network(), 28)
		if err != nil {
			return false
		}
		start := 28 + float64(seed%70)
		if err := m.SetTemps([]float64{start, start, start, start}); err != nil {
			return false
		}
		prev := m.Temps()
		zero := []float64{0, 0, 0, 0}
		for i := 0; i < 50; i++ {
			if err := m.Step(zero, 1); err != nil {
				return false
			}
			cur := m.Temps()
			for j := range cur {
				if cur[j] > prev[j]+1e-9 || cur[j] < 28-1e-9 {
					return false
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: steady-state temperatures increase monotonically with injected
// power on the heated node.
func TestSteadyStateMonotoneProperty(t *testing.T) {
	m, _ := NewModel(Exynos5422Network(), 28)
	f := func(pa, pb float64) bool {
		a := math.Mod(math.Abs(pa), 8)
		b := math.Mod(math.Abs(pb), 8)
		if a > b {
			a, b = b, a
		}
		tA, err1 := m.SteadyState([]float64{a, 0.3, 1, 1})
		tB, err2 := m.SteadyState([]float64{b, 0.3, 1, 1})
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range tA {
			if tA[i] > tB[i]+1e-9 {
				return false
			}
		}
		return tA[0] >= 28-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: energy conservation — at steady state, total heat flow to
// ambient equals injected power.
func TestEnergyBalanceProperty(t *testing.T) {
	net := Exynos5422Network()
	m, _ := NewModel(net, 28)
	f := func(p0, p2 float64) bool {
		pw := []float64{math.Mod(math.Abs(p0), 6), 0.4, math.Mod(math.Abs(p2), 4), 1.5}
		ts, err := m.SteadyState(pw)
		if err != nil {
			return false
		}
		out := 0.0
		for _, l := range net.Links {
			if l.B == Ambient {
				out += (ts[l.A] - 28) / l.ResCW
			}
		}
		in := 0.0
		for _, v := range pw {
			in += v
		}
		return math.Abs(in-out) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
