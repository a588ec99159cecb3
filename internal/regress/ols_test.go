package regress

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Exact-recovery test: data generated from a known linear law without noise
// must be recovered to machine precision.
func TestFitExactRecovery(t *testing.T) {
	// y = 2 + 3 x1 − 0.5 x2
	x1 := []float64{1, 2, 3, 4, 5, 6, 7}
	x2 := []float64{2, 1, 4, 3, 6, 5, 8}
	y := make([]float64, len(x1))
	for i := range y {
		y[i] = 2 + 3*x1[i] - 0.5*x2[i]
	}
	d := &Dataset{
		ResponseName:   "y",
		Response:       y,
		PredictorNames: []string{"x1", "x2"},
		Predictors:     [][]float64{x1, x2},
	}
	m, err := Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -0.5}
	for i, c := range m.Coefficients {
		if !almost(c.Estimate, want[i], 1e-9) {
			t.Errorf("coef %s = %g, want %g", c.Name, c.Estimate, want[i])
		}
	}
	if !almost(m.RSquared, 1, 1e-12) {
		t.Errorf("R² = %g, want 1", m.RSquared)
	}
	for _, r := range m.Residuals {
		if math.Abs(r) > 1e-9 {
			t.Errorf("residual %g should be ~0", r)
		}
	}
}

// Cross-check against the analytic simple-regression formulas (identical to
// R's lm) for x = 1..5, y = {2.1, 3.9, 6.2, 7.8, 10.1}:
// slope = Sxy/Sxx = 19.9/10 = 1.99, intercept = ȳ − b·x̄ = 0.05,
// RSS = 0.107, σ = √(0.107/3) = 0.188856,
// SE(b) = σ/√Sxx = 0.059722, SE(a) = σ·√(1/5 + x̄²/Sxx) = 0.198074,
// R² = 1 − 0.107/39.708 = 0.997305, F = 39.601/0.0356667 = 1110.3.
func TestFitMatchesAnalytic(t *testing.T) {
	d := &Dataset{
		ResponseName:   "y",
		Response:       []float64{2.1, 3.9, 6.2, 7.8, 10.1},
		PredictorNames: []string{"x"},
		Predictors:     [][]float64{{1, 2, 3, 4, 5}},
	}
	m, err := Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	ic := m.Coefficients[0]
	sl := m.Coefficients[1]
	if !almost(ic.Estimate, 0.05, 1e-9) {
		t.Errorf("intercept = %g, want 0.05", ic.Estimate)
	}
	if !almost(sl.Estimate, 1.99, 1e-9) {
		t.Errorf("slope = %g, want 1.99", sl.Estimate)
	}
	if !almost(ic.StdError, 0.198074, 1e-5) {
		t.Errorf("intercept SE = %g, want ≈0.198074", ic.StdError)
	}
	if !almost(sl.StdError, 0.059722, 1e-5) {
		t.Errorf("slope SE = %g, want ≈0.059722", sl.StdError)
	}
	if m.DFResidual != 3 || m.DFModel != 1 {
		t.Errorf("df = (%d,%d), want (1,3)", m.DFModel, m.DFResidual)
	}
	if !almost(m.ResidualStdErr, 0.188856, 1e-5) {
		t.Errorf("residual SE = %g, want ≈0.188856", m.ResidualStdErr)
	}
	if !almost(m.RSquared, 0.997305, 1e-5) {
		t.Errorf("R² = %g, want ≈0.997305", m.RSquared)
	}
	if !almost(m.FStatistic, 1110.3, 0.5) {
		t.Errorf("F = %g, want ≈1110.3", m.FStatistic)
	}
}

func TestFitErrors(t *testing.T) {
	// Too few observations.
	d := &Dataset{
		ResponseName:   "y",
		Response:       []float64{1, 2},
		PredictorNames: []string{"x1", "x2"},
		Predictors:     [][]float64{{1, 2}, {3, 4}},
	}
	if _, err := Fit(d); err == nil {
		t.Error("Fit should reject n <= p")
	}
	// Collinear design (x2 = 2*x1) is singular.
	d = &Dataset{
		ResponseName:   "y",
		Response:       []float64{1, 2, 3, 4, 5},
		PredictorNames: []string{"x1", "x2"},
		Predictors:     [][]float64{{1, 2, 3, 4, 5}, {2, 4, 6, 8, 10}},
	}
	if _, err := Fit(d); err == nil {
		t.Error("Fit should detect exact collinearity")
	}
	// Constant response.
	d = &Dataset{
		ResponseName:   "y",
		Response:       []float64{3, 3, 3, 3},
		PredictorNames: []string{"x"},
		Predictors:     [][]float64{{1, 2, 3, 4}},
	}
	if _, err := Fit(d); err == nil {
		t.Error("Fit should reject zero-variance response")
	}
	// Malformed dataset.
	d = &Dataset{
		ResponseName:   "y",
		Response:       []float64{1, 2, 3},
		PredictorNames: []string{"x"},
		Predictors:     [][]float64{{1, 2}},
	}
	if _, err := Fit(d); err == nil {
		t.Error("Fit should reject ragged dataset")
	}
	if _, err := Fit(&Dataset{ResponseName: "y"}); err == nil {
		t.Error("Fit should reject empty dataset")
	}
}

func TestSelect(t *testing.T) {
	d := &Dataset{
		ResponseName:   "M",
		Response:       []float64{1, 2, 3, 4},
		PredictorNames: []string{"AT", "ET", "PT", "EC"},
		Predictors: [][]float64{
			{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}, {13, 14, 15, 16},
		},
	}
	sub, err := d.Select("AT", "ET")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Predictors) != 2 || sub.PredictorNames[1] != "ET" {
		t.Errorf("Select returned %v", sub.PredictorNames)
	}
	if sub.Predictors[1][0] != 5 {
		t.Error("Select copied wrong column")
	}
	if _, err := d.Select("XX"); err == nil {
		t.Error("Select should error on unknown predictor")
	}
	// Mutating the selection must not affect the original.
	sub.Predictors[0][0] = 99
	if d.Predictors[0][0] == 99 {
		t.Error("Select should deep-copy columns")
	}
}

// The profiling-shaped collinearity story: in a dataset where PT tracks
// AT and EC tracks ET, the reduced model without PT and EC keeps its fit.
func TestCollinearityWorkflow(t *testing.T) {
	n := 16
	ds := &Dataset{
		ResponseName:   "M",
		PredictorNames: []string{"AT", "ET", "PT", "EC"},
		Predictors:     make([][]float64, 4),
	}
	for i := 0; i < n; i++ {
		x := float64(i)
		jit := float64((i*5)%3) / 5
		at := 82 + 0.6*x + jit
		et := 60 - 2.2*x + 0.05*x*x
		ds.Response = append(ds.Response, 2+0.35*x+jit/3)
		ds.Predictors[0] = append(ds.Predictors[0], at)
		ds.Predictors[1] = append(ds.Predictors[1], et)
		ds.Predictors[2] = append(ds.Predictors[2], at+4+jit/2)
		ds.Predictors[3] = append(ds.Predictors[3], 9*et+30+jit)
	}
	reduced, err := ds.Select("AT", "ET")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(reduced)
	if err != nil {
		t.Fatal(err)
	}
	if m.RSquared < 0.9 {
		t.Errorf("reduced model R² = %g, want > 0.9", m.RSquared)
	}
}

func TestLog10Response(t *testing.T) {
	d := &Dataset{
		ResponseName:   "M",
		Response:       []float64{1, 10, 100},
		PredictorNames: []string{"x"},
		Predictors:     [][]float64{{1, 2, 3}},
	}
	ld, err := d.Log10Response()
	if err != nil {
		t.Fatal(err)
	}
	if ld.ResponseName != "log(M)" {
		t.Errorf("transformed name = %q", ld.ResponseName)
	}
	want := []float64{0, 1, 2}
	for i, y := range ld.Response {
		if !almost(y, want[i], 1e-12) {
			t.Errorf("log response[%d] = %g, want %g", i, y, want[i])
		}
	}
	d.Response[0] = -1
	if _, err := d.Log10Response(); err == nil {
		t.Error("Log10Response should reject non-positive values")
	}
}

func TestDropRow(t *testing.T) {
	d := &Dataset{
		ResponseName:   "y",
		Response:       []float64{1, 2, 3},
		PredictorNames: []string{"x"},
		Predictors:     [][]float64{{10, 20, 30}},
	}
	d2, err := d.DropRow(1)
	if err != nil {
		t.Fatal(err)
	}
	if d2.N() != 2 || d2.Response[1] != 3 || d2.Predictors[0][1] != 30 {
		t.Errorf("DropRow produced %v / %v", d2.Response, d2.Predictors[0])
	}
	if d.N() != 3 {
		t.Error("DropRow mutated the original")
	}
	if _, err := d.DropRow(5); err == nil {
		t.Error("DropRow should reject out-of-range index")
	}
}

func TestCoefLookup(t *testing.T) {
	d := &Dataset{
		ResponseName:   "y",
		Response:       []float64{3, 5, 7, 9.1},
		PredictorNames: []string{"x"},
		Predictors:     [][]float64{{1, 2, 3, 4}},
	}
	m, _ := Fit(d)
	if _, ok := m.Coef("(Intercept)"); !ok {
		t.Error("intercept coefficient missing")
	}
	if _, ok := m.Coef("x"); !ok {
		t.Error("x coefficient missing")
	}
	if _, ok := m.Coef("zz"); ok {
		t.Error("unknown coefficient should not be found")
	}
}

func TestMaxAbsResidualIndex(t *testing.T) {
	m := &Model{Residuals: []float64{0.1, -0.9, 0.3}}
	if got := m.MaxAbsResidualIndex(); got != 1 {
		t.Errorf("MaxAbsResidualIndex = %d, want 1", got)
	}
}

func TestSummaryFormat(t *testing.T) {
	d := &Dataset{
		ResponseName:   "y",
		Response:       []float64{2.1, 3.9, 6.2, 7.8, 10.1},
		PredictorNames: []string{"x"},
		Predictors:     [][]float64{{1, 2, 3, 4, 5}},
	}
	m, _ := Fit(d)
	s := m.Summary()
	for _, want := range []string{
		"Residuals:", "Coefficients:", "(Intercept)",
		"Residual standard error:", "Multiple R-squared:",
		"F-statistic:", "Signif. codes",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
}

// Property: fitted + residual == observed for every observation, and the
// residuals of an OLS fit with intercept sum to ~0.
func TestOLSInvariantsProperty(t *testing.T) {
	f := func(seed uint32) bool {
		rng := seed
		next := func() float64 {
			// xorshift; uniform in [0,1).
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			return float64(rng%100000) / 100000.0
		}
		n := 12
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x1[i] = 10 * next()
			x2[i] = 5 * next()
			y[i] = 1 + 2*x1[i] - x2[i] + (next() - 0.5)
		}
		d := &Dataset{
			ResponseName:   "y",
			Response:       y,
			PredictorNames: []string{"x1", "x2"},
			Predictors:     [][]float64{x1, x2},
		}
		m, err := Fit(d)
		if err != nil {
			return true // degenerate random draw; skip
		}
		sum := 0.0
		for i := range y {
			if !almost(m.Fitted[i]+m.Residuals[i], y[i], 1e-8) {
				return false
			}
			sum += m.Residuals[i]
		}
		if math.Abs(sum) > 1e-6 {
			return false
		}
		return m.RSquared >= -1e-9 && m.RSquared <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: R² never decreases when a predictor is added.
func TestRSquaredMonotoneProperty(t *testing.T) {
	f := func(seed uint32) bool {
		rng := seed | 1
		next := func() float64 {
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			return float64(rng%100000) / 100000.0
		}
		n := 10
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x1[i] = next() * 3
			x2[i] = next() * 7
			y[i] = 2*x1[i] + next()
		}
		d2 := &Dataset{
			ResponseName:   "y",
			Response:       y,
			PredictorNames: []string{"x1", "x2"},
			Predictors:     [][]float64{x1, x2},
		}
		d1, _ := d2.Select("x1")
		m1, err1 := Fit(d1)
		m2, err2 := Fit(d2)
		if err1 != nil || err2 != nil {
			return true
		}
		return m2.RSquared >= m1.RSquared-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
