package power

import (
	"math"
	"testing"
	"testing/quick"

	"teem/internal/soc"
)

func newModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(soc.Exynos5422())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelRejectsInvalidPlatform(t *testing.T) {
	p := soc.Exynos5422()
	p.Name = ""
	if _, err := NewModel(p); err == nil {
		t.Error("NewModel should reject invalid platform")
	}
}

func TestBigClusterFullLoadEnvelope(t *testing.T) {
	m := newModel(t)
	dyn, leak, err := m.ClusterPower(0, ClusterLoad{
		FreqMHz: 2000, ActiveCores: 4, OnCores: 4, Utilization: 1, Activity: 1, TempC: 85,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := dyn + leak
	// Calibration target: 4 A15 cores at 2 GHz full tilt ≈ 5–8.5 W.
	if total < 5.0 || total > 8.5 {
		t.Errorf("big cluster full load = %.2f W, want 5–8.5 W", total)
	}
	if dyn <= leak {
		t.Errorf("dynamic power (%.2f) should dominate leakage (%.2f) at full load", dyn, leak)
	}
}

func TestLittleClusterIsMuchMoreEfficient(t *testing.T) {
	m := newModel(t)
	bigDyn, _, _ := m.ClusterPower(0, ClusterLoad{
		FreqMHz: 1400, ActiveCores: 4, OnCores: 4, Utilization: 1, Activity: 1, TempC: 70,
	})
	litDyn, _, _ := m.ClusterPower(1, ClusterLoad{
		FreqMHz: 1400, ActiveCores: 4, OnCores: 4, Utilization: 1, Activity: 1, TempC: 70,
	})
	if litDyn >= bigDyn/2.5 {
		t.Errorf("LITTLE (%.2f W) should draw well under half of big (%.2f W) at equal f", litDyn, bigDyn)
	}
}

func TestLeakageGrowsWithTemperature(t *testing.T) {
	m := newModel(t)
	load := func(temp float64) ClusterLoad {
		return ClusterLoad{FreqMHz: 2000, ActiveCores: 0, OnCores: 4, Utilization: 0, TempC: temp}
	}
	_, cold, _ := m.ClusterPower(0, load(40))
	_, hot, _ := m.ClusterPower(0, load(95))
	if hot <= cold {
		t.Errorf("leakage at 95°C (%.3f) should exceed leakage at 40°C (%.3f)", hot, cold)
	}
	// Below 25 °C the temperature term clamps.
	_, sub, _ := m.ClusterPower(0, load(10))
	_, ref, _ := m.ClusterPower(0, load(25))
	if sub != ref {
		t.Errorf("leakage below 25°C should clamp: %g vs %g", sub, ref)
	}
}

func TestDynamicScalesWithVoltageSquaredAndFrequency(t *testing.T) {
	m := newModel(t)
	big := m.Platform().Big()
	mk := func(f int) ClusterLoad {
		return ClusterLoad{FreqMHz: f, ActiveCores: 1, OnCores: 1, Utilization: 1, Activity: 1, TempC: 60}
	}
	d1, _, _ := m.ClusterPower(0, mk(1000))
	d2, _, _ := m.ClusterPower(0, mk(2000))
	v1, v2 := big.VoltageAt(1000), big.VoltageAt(2000)
	wantRatio := (v2 * v2 * 2000) / (v1 * v1 * 1000)
	if got := d2 / d1; math.Abs(got-wantRatio) > 1e-9 {
		t.Errorf("dynamic ratio = %g, want %g (V²f scaling)", got, wantRatio)
	}
}

func TestExplicitVoltageOverride(t *testing.T) {
	m := newModel(t)
	a, _, _ := m.ClusterPower(0, ClusterLoad{FreqMHz: 1000, VoltV: 1.2, ActiveCores: 1, OnCores: 1, Utilization: 1, TempC: 50})
	b, _, _ := m.ClusterPower(0, ClusterLoad{FreqMHz: 1000, ActiveCores: 1, OnCores: 1, Utilization: 1, TempC: 50})
	if a == b {
		t.Error("explicit voltage should override the OPP table")
	}
}

func TestClusterPowerValidation(t *testing.T) {
	m := newModel(t)
	bad := []ClusterLoad{
		{FreqMHz: 1000, ActiveCores: -1, OnCores: 4, Utilization: 0.5},
		{FreqMHz: 1000, ActiveCores: 3, OnCores: 2, Utilization: 0.5},
		{FreqMHz: 1000, ActiveCores: 2, OnCores: 9, Utilization: 0.5},
		{FreqMHz: 1000, ActiveCores: 2, OnCores: 4, Utilization: 1.5},
		{FreqMHz: 1000, ActiveCores: 2, OnCores: 4, Utilization: -0.5},
		{FreqMHz: 1000, ActiveCores: 2, OnCores: 4, Utilization: 0.5, Activity: 2},
	}
	for i, l := range bad {
		if _, _, err := m.ClusterPower(0, l); err == nil {
			t.Errorf("case %d: ClusterPower accepted invalid load %+v", i, l)
		}
	}
	if _, _, err := m.ClusterPower(99, ClusterLoad{}); err == nil {
		t.Error("ClusterPower should reject out-of-range index")
	}
}

func TestEvaluateIdleEnvelope(t *testing.T) {
	m := newModel(t)
	b, err := m.Evaluate(IdleLoads(m.Platform(), 40), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Idle board ≈ baseline + leakage: 2.3–3.5 W.
	if tot := b.TotalW(); tot < 2.8 || tot > 4.2 {
		t.Errorf("idle board power = %.2f W, want 2.8–4.2 W", tot)
	}
	for i, d := range b.DynamicW {
		if d != 0 {
			t.Errorf("cluster %d idle dynamic power = %g, want 0", i, d)
		}
	}
}

func TestEvaluateFullTiltEnvelope(t *testing.T) {
	m := newModel(t)
	p := m.Platform()
	loads := []ClusterLoad{
		{FreqMHz: 2000, ActiveCores: 4, OnCores: 4, Utilization: 1, Activity: 0.8, TempC: 90},
		{FreqMHz: 1400, ActiveCores: 4, OnCores: 4, Utilization: 1, Activity: 0.8, TempC: 75},
		{FreqMHz: 600, ActiveCores: 6, OnCores: 6, Utilization: 1, Activity: 0.8, TempC: 80},
	}
	b, err := m.Evaluate(loads, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	// Paper's board-level envelope under COVARIANCE-like load: ~10–12 W.
	if tot := b.TotalW(); tot < 9 || tot > 14 {
		t.Errorf("full-tilt board power = %.2f W, want 9–14 W", tot)
	}
	_ = p
}

func TestEvaluateValidation(t *testing.T) {
	m := newModel(t)
	if _, err := m.Evaluate(nil, 0); err == nil {
		t.Error("Evaluate should reject wrong load count")
	}
	if _, err := m.Evaluate(IdleLoads(m.Platform(), 40), -1); err == nil {
		t.Error("Evaluate should reject negative memory traffic")
	}
}

func TestBreakdownClusterW(t *testing.T) {
	b := &Breakdown{DynamicW: []float64{1, 2}, LeakageW: []float64{0.5, 0.25}, DRAMW: 0.1, BaselineW: 2}
	if got := b.ClusterW(0); got != 1.5 {
		t.Errorf("ClusterW(0) = %g, want 1.5", got)
	}
	if got := b.TotalW(); math.Abs(got-5.85) > 1e-12 {
		t.Errorf("TotalW = %g, want 5.85", got)
	}
}

// Property: power is monotone in frequency (at fixed everything else) and
// always non-negative.
func TestPowerMonotoneInFrequencyProperty(t *testing.T) {
	m := newModel(t)
	big := m.Platform().Big()
	f := func(i, j uint8, util float64) bool {
		u := math.Mod(math.Abs(util), 1)
		fi := big.OPPs[int(i)%len(big.OPPs)].FreqMHz
		fj := big.OPPs[int(j)%len(big.OPPs)].FreqMHz
		if fi > fj {
			fi, fj = fj, fi
		}
		mk := func(f int) ClusterLoad {
			return ClusterLoad{FreqMHz: f, ActiveCores: 4, OnCores: 4, Utilization: u, Activity: 0.8, TempC: 60}
		}
		dLo, lLo, err1 := m.ClusterPower(0, mk(fi))
		dHi, lHi, err2 := m.ClusterPower(0, mk(fj))
		if err1 != nil || err2 != nil {
			return false
		}
		return dLo >= 0 && lLo >= 0 && dLo <= dHi+1e-12 && lLo <= lHi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: adding active cores never reduces power.
func TestPowerMonotoneInCoresProperty(t *testing.T) {
	m := newModel(t)
	f := func(a, b uint8) bool {
		na, nb := int(a)%5, int(b)%5
		if na > nb {
			na, nb = nb, na
		}
		mk := func(n int) ClusterLoad {
			return ClusterLoad{FreqMHz: 1800, ActiveCores: n, OnCores: 4, Utilization: 1, Activity: 0.8, TempC: 70}
		}
		dLo, _, err1 := m.ClusterPower(0, mk(na))
		dHi, _, err2 := m.ClusterPower(0, mk(nb))
		return err1 == nil && err2 == nil && dLo <= dHi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// EvaluateInto must produce exactly what Evaluate produces, reusing the
// caller's slices, with zero allocations once the Breakdown is sized.
func TestEvaluateIntoMatchesEvaluate(t *testing.T) {
	m := newModel(t)
	loads := []ClusterLoad{
		{FreqMHz: 1800, ActiveCores: 3, OnCores: 4, Utilization: 0.9, Activity: 0.7, TempC: 82},
		{FreqMHz: 1400, ActiveCores: 2, OnCores: 4, Utilization: 0.9, Activity: 0.7, TempC: 70},
		{FreqMHz: 600, ActiveCores: 6, OnCores: 6, Utilization: 1, Activity: 0.8, TempC: 78},
	}
	want, err := m.Evaluate(loads, 3.1)
	if err != nil {
		t.Fatal(err)
	}
	var got Breakdown
	if err := m.EvaluateInto(&got, loads, 3.1); err != nil {
		t.Fatal(err)
	}
	if got.TotalW() != want.TotalW() || got.DRAMW != want.DRAMW || got.BaselineW != want.BaselineW {
		t.Errorf("EvaluateInto = %+v, want %+v", got, *want)
	}
	for i := range want.DynamicW {
		if got.DynamicW[i] != want.DynamicW[i] || got.LeakageW[i] != want.LeakageW[i] {
			t.Errorf("cluster %d: got (%g,%g), want (%g,%g)",
				i, got.DynamicW[i], got.LeakageW[i], want.DynamicW[i], want.LeakageW[i])
		}
	}
	// Slices must be reused across calls.
	d0 := &got.DynamicW[0]
	if err := m.EvaluateInto(&got, loads, 3.1); err != nil {
		t.Fatal(err)
	}
	if d0 != &got.DynamicW[0] {
		t.Error("EvaluateInto reallocated an adequately sized slice")
	}
	if avg := testing.AllocsPerRun(500, func() {
		if err := m.EvaluateInto(&got, loads, 3.1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("EvaluateInto allocates %.2f objects/op, want 0", avg)
	}
}

// EvaluateInto must validate like Evaluate.
func TestEvaluateIntoValidation(t *testing.T) {
	m := newModel(t)
	var b Breakdown
	if err := m.EvaluateInto(&b, []ClusterLoad{{FreqMHz: 1000}}, 0); err == nil {
		t.Error("EvaluateInto accepted a wrong-length load vector")
	}
	loads := IdleLoads(m.Platform(), 40)
	if err := m.EvaluateInto(&b, loads, -1); err == nil {
		t.Error("EvaluateInto accepted negative memory traffic")
	}
}

// The memoised voltage table must agree with the OPP scan, including
// off-OPP frequencies that snap up.
func TestVoltageMemoMatchesScan(t *testing.T) {
	plat := soc.Exynos5422()
	m, err := NewModel(plat)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range plat.Clusters {
		c := &plat.Clusters[ci]
		freqs := []int{c.MinFreqMHz(), c.MaxFreqMHz(), c.OPPs[len(c.OPPs)/2].FreqMHz, c.MinFreqMHz() + 1}
		for _, f := range freqs {
			l := ClusterLoad{FreqMHz: f, ActiveCores: 1, OnCores: c.NumCores, Utilization: 1, Activity: 1, TempC: 50}
			d1, lk1, err := m.ClusterPower(ci, l)
			if err != nil {
				t.Fatal(err)
			}
			l.VoltV = c.VoltageAt(f)
			d2, lk2, err := m.ClusterPower(ci, l)
			if err != nil {
				t.Fatal(err)
			}
			if d1 != d2 || lk1 != lk2 {
				t.Errorf("cluster %s @ %d MHz: memo (%g,%g) vs scan (%g,%g)", c.Name, f, d1, lk1, d2, lk2)
			}
		}
	}
}

// The affine decomposition must reconstruct ClusterPower exactly for any
// junction temperature at or above the 25 °C leakage reference:
// leak(T) = leakConst + slope·T, dyn identical.
func TestClusterPowerAffineReconstructs(t *testing.T) {
	m := newModel(t)
	loads := []ClusterLoad{
		{FreqMHz: 2000, ActiveCores: 4, OnCores: 4, Utilization: 1, Activity: 0.7},
		{FreqMHz: 1400, ActiveCores: 2, OnCores: 4, Utilization: 0.6},
		{FreqMHz: 600, ActiveCores: 0, OnCores: 4, Utilization: 0},
	}
	for i := range m.Platform().Clusters {
		for _, l := range loads {
			if l.OnCores > m.Platform().Clusters[i].NumCores {
				continue
			}
			dynA, lkc, lks, err := m.ClusterPowerAffine(i, l)
			if err != nil {
				t.Fatal(err)
			}
			if lks < 0 {
				t.Fatalf("cluster %d: negative leakage slope %g", i, lks)
			}
			for _, temp := range []float64{25, 40, 85.5, 110} {
				lt := l
				lt.TempC = temp
				dyn, leak, err := m.ClusterPower(i, lt)
				if err != nil {
					t.Fatal(err)
				}
				if dyn != dynA {
					t.Fatalf("cluster %d T=%g: dyn %g vs affine %g", i, temp, dyn, dynA)
				}
				if got := lkc + lks*temp; math.Abs(got-leak) > 1e-12*math.Max(1, leak) {
					t.Fatalf("cluster %d T=%g: leak %g vs affine %g", i, temp, leak, got)
				}
			}
		}
	}
}

// The affine form shares ClusterPower's validation.
func TestClusterPowerAffineValidation(t *testing.T) {
	m := newModel(t)
	if _, _, _, err := m.ClusterPowerAffine(99, ClusterLoad{}); err == nil {
		t.Error("out-of-range index accepted")
	}
	bad := ClusterLoad{FreqMHz: 1000, ActiveCores: 3, OnCores: 2, Utilization: 0.5}
	if _, _, _, err := m.ClusterPowerAffine(0, bad); err == nil {
		t.Error("invalid core counts accepted")
	}
}

// The steady walk evaluates leakage as Leakage(base, c, T) with the base
// taken from ClusterPower at the 25 °C reference; that must equal
// ClusterPower's own leakage with == at every temperature, on either side
// of the reference.
func TestLeakageMatchesClusterPower(t *testing.T) {
	m := newModel(t)
	p := m.Platform()
	for i := range p.Clusters {
		c := &p.Clusters[i]
		for _, opp := range c.OPPs {
			l := ClusterLoad{FreqMHz: opp.FreqMHz, VoltV: opp.VoltV, ActiveCores: c.NumCores, OnCores: c.NumCores, Utilization: 1, Activity: 0.7, TempC: 25}
			_, base, err := m.ClusterPower(i, l)
			if err != nil {
				t.Fatal(err)
			}
			for temp := -10.0; temp <= 110; temp += 0.37 {
				l.TempC = temp
				_, leak, err := m.ClusterPower(i, l)
				if err != nil {
					t.Fatal(err)
				}
				if got := Leakage(base, c.LeakTempCoeff, temp); got != leak {
					t.Fatalf("%s at %d MHz, %g °C: Leakage %.17g, ClusterPower %.17g", c.Name, opp.FreqMHz, temp, got, leak)
				}
			}
		}
	}
}
