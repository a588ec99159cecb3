package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %g, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g, want 0", got)
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 divisor = 32/7.
	if got := Variance(xs); !almost(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %g, want %g", got, 32.0/7.0)
	}
	if Variance([]float64{5}) != 0 {
		t.Error("Variance of singleton should be 0")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil || lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%g,%g,%v), want (-1,7,nil)", lo, hi, err)
	}
	if _, _, err := MinMax(nil); !errors.Is(err, ErrEmpty) {
		t.Error("MinMax(nil) should return ErrEmpty")
	}
}

func TestQuantileType7(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	// R: quantile(1:4, .25) = 1.75 (type 7).
	q, err := Quantile(xs, 0.25)
	if err != nil || !almost(q, 1.75, 1e-12) {
		t.Errorf("Quantile(.25) = %g, want 1.75", q)
	}
	q, _ = Quantile(xs, 0.5)
	if !almost(q, 2.5, 1e-12) {
		t.Errorf("Quantile(.5) = %g, want 2.5", q)
	}
	q, _ = Quantile(xs, 1)
	if q != 4 {
		t.Errorf("Quantile(1) = %g, want 4", q)
	}
	q, _ = Quantile(xs, 0)
	if q != 1 {
		t.Errorf("Quantile(0) = %g, want 1", q)
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Error("Quantile(nil) should return ErrEmpty")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("Quantile(p>1) should error")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestFiveNum(t *testing.T) {
	min, q1, med, q3, max, err := FiveNum([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if min != 1 || q1 != 2 || med != 3 || q3 != 4 || max != 5 {
		t.Errorf("FiveNum = %g %g %g %g %g", min, q1, med, q3, max)
	}
	if _, _, _, _, _, err := FiveNum(nil); !errors.Is(err, ErrEmpty) {
		t.Error("FiveNum(nil) should return ErrEmpty")
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := RegIncBeta(1, 1, x); !almost(got, x, 1e-12) {
			t.Errorf("I_%g(1,1) = %g, want %g", x, got, x)
		}
	}
	// I_x(2,2) = 3x² − 2x³.
	for _, x := range []float64{0.2, 0.5, 0.9} {
		want := 3*x*x - 2*x*x*x
		if got := RegIncBeta(2, 2, x); !almost(got, want, 1e-10) {
			t.Errorf("I_%g(2,2) = %g, want %g", x, got, want)
		}
	}
	if !math.IsNaN(RegIncBeta(-1, 1, 0.5)) {
		t.Error("RegIncBeta with a<=0 should be NaN")
	}
}

func TestStudentTCDFKnownValues(t *testing.T) {
	// t=0 → 0.5 for any df.
	for _, df := range []float64{1, 5, 30} {
		if got := StudentTCDF(0, df); !almost(got, 0.5, 1e-12) {
			t.Errorf("T(0, df=%g) = %g, want 0.5", df, got)
		}
	}
	// df=1 is the Cauchy distribution: CDF(1) = 0.75.
	if got := StudentTCDF(1, 1); !almost(got, 0.75, 1e-10) {
		t.Errorf("T(1, df=1) = %g, want 0.75", got)
	}
	// Large df approaches the normal: CDF(1.96, 1e6) ≈ 0.975.
	if got := StudentTCDF(1.96, 1e6); !almost(got, 0.975, 1e-3) {
		t.Errorf("T(1.96, df=1e6) = %g, want ≈0.975", got)
	}
	if got := StudentTCDF(math.Inf(1), 5); got != 1 {
		t.Errorf("T(+inf) = %g, want 1", got)
	}
	if got := StudentTCDF(math.Inf(-1), 5); got != 0 {
		t.Errorf("T(-inf) = %g, want 0", got)
	}
}

// The paper's Table II reports Pr(>|t|) = 3.68e-06 for t = -7.642 on 13 df.
func TestTTestPValueMatchesPaperTableII(t *testing.T) {
	p := TTestPValue(-7.642, 13)
	if !almost(p, 3.68e-06, 5e-08) {
		t.Errorf("p-value for t=-7.642, df=13: got %g, want ≈3.68e-06", p)
	}
	// Table II AT row: t = -2.499, df = 13 → p ≈ 0.02663.
	p = TTestPValue(-2.499, 13)
	if !almost(p, 0.02663, 5e-5) {
		t.Errorf("p-value for t=-2.499, df=13: got %g, want ≈0.02663", p)
	}
	// Table I ET row: t = -2.760, df = 12 → p ≈ 0.01727.
	p = TTestPValue(-2.760, 12)
	if !almost(p, 0.01727, 5e-5) {
		t.Errorf("p-value for t=-2.760, df=12: got %g, want ≈0.01727", p)
	}
}

// The paper's Table II: F = 76.71 on (2, 13) df → p ≈ 6.348e-08.
func TestFTestPValueMatchesPaperTableII(t *testing.T) {
	p := FTestPValue(76.71, 2, 13)
	if !almost(p, 6.348e-08, 2e-09) {
		t.Errorf("F p-value: got %g, want ≈6.348e-08", p)
	}
	// Table I: F = 20.98 on (4, 12) df → p ≈ 2.396e-05.
	p = FTestPValue(20.98, 4, 12)
	if !almost(p, 2.396e-05, 5e-07) {
		t.Errorf("F p-value: got %g, want ≈2.396e-05", p)
	}
}

func TestFCDFEdgeCases(t *testing.T) {
	if got := FCDF(0, 2, 10); got != 0 {
		t.Errorf("FCDF(0) = %g, want 0", got)
	}
	if got := FCDF(-3, 2, 10); got != 0 {
		t.Errorf("FCDF(-3) = %g, want 0", got)
	}
	if !math.IsNaN(FCDF(1, 0, 10)) {
		t.Error("FCDF with df1=0 should be NaN")
	}
}

func TestSignifCode(t *testing.T) {
	cases := []struct {
		p    float64
		want string
	}{
		{0.0001, "***"}, {0.001, "***"}, {0.005, "**"}, {0.03, "*"},
		{0.07, "."}, {0.5, ""},
	}
	for _, c := range cases {
		if got := SignifCode(c.p); got != c.want {
			t.Errorf("SignifCode(%g) = %q, want %q", c.p, got, c.want)
		}
	}
}

// Property: CDFs are monotone non-decreasing and bounded in [0,1].
func TestStudentTCDFMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(math.Abs(a), 10)
		b = math.Mod(math.Abs(b), 10)
		lo, hi := a-5, b-5
		if lo > hi {
			lo, hi = hi, lo
		}
		cLo, cHi := StudentTCDF(lo, 7), StudentTCDF(hi, 7)
		return cLo >= 0 && cHi <= 1 && cLo <= cHi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: symmetry of the t distribution: CDF(-t) = 1 - CDF(t).
func TestStudentTCDFSymmetryProperty(t *testing.T) {
	f := func(raw float64) bool {
		x := math.Mod(math.Abs(raw), 8)
		return almost(StudentTCDF(-x, 9)+StudentTCDF(x, 9), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RegIncBeta satisfies the symmetry I_x(a,b) = 1 − I_{1−x}(b,a).
func TestRegIncBetaSymmetryProperty(t *testing.T) {
	f := func(ra, rb, rx float64) bool {
		a := 0.5 + math.Mod(math.Abs(ra), 10)
		b := 0.5 + math.Mod(math.Abs(rb), 10)
		x := math.Mod(math.Abs(rx), 1)
		return almost(RegIncBeta(a, b, x), 1-RegIncBeta(b, a, 1-x), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
