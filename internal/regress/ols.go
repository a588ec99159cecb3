package regress

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"teem/internal/stats"
)

// Dataset is a named regression dataset: one response column and any number
// of predictor columns, all of equal length.
type Dataset struct {
	// ResponseName labels the response variable (e.g. "M").
	ResponseName string
	// Response holds the observed response values.
	Response []float64
	// PredictorNames labels the predictor columns (e.g. AT, ET, PT, EC).
	PredictorNames []string
	// Predictors holds one slice per predictor, each len(Response) long.
	Predictors [][]float64
}

// Validate reports an error if the dataset is malformed.
func (d *Dataset) Validate() error {
	n := len(d.Response)
	if n == 0 {
		return errors.New("regress: dataset has no observations")
	}
	if len(d.PredictorNames) != len(d.Predictors) {
		return errors.New("regress: predictor names/columns length mismatch")
	}
	for i, col := range d.Predictors {
		if len(col) != n {
			return fmt.Errorf("regress: predictor %q has %d values, want %d", d.PredictorNames[i], len(col), n)
		}
	}
	return nil
}

// N returns the number of observations.
func (d *Dataset) N() int { return len(d.Response) }

// Select returns a new dataset keeping only the named predictors, in the
// given order. Unknown names are an error.
func (d *Dataset) Select(names ...string) (*Dataset, error) {
	out := &Dataset{
		ResponseName: d.ResponseName,
		Response:     append([]float64(nil), d.Response...),
	}
	for _, want := range names {
		found := false
		for i, have := range d.PredictorNames {
			if have == want {
				out.PredictorNames = append(out.PredictorNames, have)
				out.Predictors = append(out.Predictors, append([]float64(nil), d.Predictors[i]...))
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("regress: unknown predictor %q", want)
		}
	}
	return out, nil
}

// Log10Response returns a copy of the dataset with the response replaced by
// log10(response), as in the paper's transformed model (Eq. 6). Responses
// must be strictly positive.
func (d *Dataset) Log10Response() (*Dataset, error) {
	out := &Dataset{
		ResponseName:   "log(" + d.ResponseName + ")",
		Response:       make([]float64, len(d.Response)),
		PredictorNames: append([]string(nil), d.PredictorNames...),
	}
	for _, col := range d.Predictors {
		out.Predictors = append(out.Predictors, append([]float64(nil), col...))
	}
	for i, y := range d.Response {
		if y <= 0 {
			return nil, fmt.Errorf("regress: response %d is %g; log transform needs positive values", i, y)
		}
		out.Response[i] = math.Log10(y)
	}
	return out, nil
}

// DropRow returns a copy of the dataset without observation i.
func (d *Dataset) DropRow(i int) (*Dataset, error) {
	if i < 0 || i >= d.N() {
		return nil, fmt.Errorf("regress: DropRow index %d out of range [0,%d)", i, d.N())
	}
	out := &Dataset{
		ResponseName:   d.ResponseName,
		PredictorNames: append([]string(nil), d.PredictorNames...),
	}
	out.Response = append(append([]float64(nil), d.Response[:i]...), d.Response[i+1:]...)
	for _, col := range d.Predictors {
		out.Predictors = append(out.Predictors, append(append([]float64(nil), col[:i]...), col[i+1:]...))
	}
	return out, nil
}

// Coefficient is one row of the R-style coefficient table.
type Coefficient struct {
	// Name is "(Intercept)" or the predictor name.
	Name string
	// Estimate is the fitted coefficient.
	Estimate float64
	// StdError is the coefficient standard error.
	StdError float64
	// TValue is Estimate/StdError.
	TValue float64
	// PValue is the two-sided Pr(>|t|).
	PValue float64
}

// Signif returns the R significance code for the coefficient.
func (c Coefficient) Signif() string { return stats.SignifCode(c.PValue) }

// Model is a fitted ordinary-least-squares model together with the full
// R-style summary statistics.
type Model struct {
	// ResponseName and PredictorNames echo the dataset labels.
	ResponseName   string
	PredictorNames []string

	// Coefficients holds the intercept first, then one entry per
	// predictor in dataset order.
	Coefficients []Coefficient

	// Fitted and Residuals are per-observation.
	Fitted    []float64
	Residuals []float64

	// ResidualQuartiles is {min, 1Q, median, 3Q, max} of the residuals.
	ResidualQuartiles [5]float64

	// ResidualStdErr is the residual standard error on DFResidual
	// degrees of freedom.
	ResidualStdErr float64
	// DFResidual is n − p (p counts the intercept).
	DFResidual int
	// DFModel is the model degrees of freedom (number of predictors).
	DFModel int

	// RSquared and AdjRSquared are the multiple and adjusted R².
	RSquared    float64
	AdjRSquared float64

	// FStatistic is the overall regression F on (DFModel, DFResidual)
	// degrees of freedom, and FPValue its upper-tail p-value.
	FStatistic float64
	FPValue    float64
}

// Fit performs OLS with an intercept on the dataset.
func Fit(d *Dataset) (*Model, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := d.N()
	p := len(d.Predictors) + 1 // +1 intercept
	if n <= p {
		return nil, fmt.Errorf("regress: %d observations cannot identify %d parameters", n, p)
	}

	x := NewMatrix(n, p)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 1)
		for j, col := range d.Predictors {
			x.Set(i, j+1, col[i])
		}
	}
	f, err := factorQR(x)
	if err != nil {
		return nil, err
	}
	beta := f.solve(d.Response)

	fitted := x.MulVec(beta)
	resid := make([]float64, n)
	rss := 0.0
	for i := range resid {
		resid[i] = d.Response[i] - fitted[i]
		rss += resid[i] * resid[i]
	}
	ybar := stats.Mean(d.Response)
	tss := 0.0
	for _, y := range d.Response {
		dy := y - ybar
		tss += dy * dy
	}
	if tss == 0 {
		return nil, errors.New("regress: response has zero variance")
	}

	dfRes := n - p
	dfMod := p - 1
	sigma2 := rss / float64(dfRes)
	xtxDiag := f.xtxInverseDiag()

	m := &Model{
		ResponseName:   d.ResponseName,
		PredictorNames: append([]string(nil), d.PredictorNames...),
		Fitted:         fitted,
		Residuals:      resid,
		ResidualStdErr: math.Sqrt(sigma2),
		DFResidual:     dfRes,
		DFModel:        dfMod,
		RSquared:       1 - rss/tss,
	}
	m.AdjRSquared = 1 - (1-m.RSquared)*float64(n-1)/float64(dfRes)
	if dfMod > 0 {
		m.FStatistic = (tss - rss) / float64(dfMod) / sigma2
		m.FPValue = stats.FTestPValue(m.FStatistic, float64(dfMod), float64(dfRes))
	}

	names := append([]string{"(Intercept)"}, d.PredictorNames...)
	for j, b := range beta {
		se := math.Sqrt(sigma2 * xtxDiag[j])
		t := b / se
		m.Coefficients = append(m.Coefficients, Coefficient{
			Name:     names[j],
			Estimate: b,
			StdError: se,
			TValue:   t,
			PValue:   stats.TTestPValue(t, float64(dfRes)),
		})
	}

	min, q1, med, q3, max, _ := stats.FiveNum(resid)
	m.ResidualQuartiles = [5]float64{min, q1, med, q3, max}
	return m, nil
}

// Coef returns the named coefficient ("(Intercept)" for the intercept) and
// whether it exists.
func (m *Model) Coef(name string) (Coefficient, bool) {
	for _, c := range m.Coefficients {
		if c.Name == name {
			return c, true
		}
	}
	return Coefficient{}, false
}

// MaxAbsResidualIndex returns the index of the observation with the largest
// absolute residual — the outlier-drop heuristic used between the paper's
// Table I and Table II fits.
func (m *Model) MaxAbsResidualIndex() int {
	best, bestV := 0, -1.0
	for i, r := range m.Residuals {
		if ar := math.Abs(r); ar > bestV {
			best, bestV = i, ar
		}
	}
	return best
}

// Summary formats the model exactly in the shape of R's summary.lm, as
// printed in the paper's Tables I and II.
func (m *Model) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Residuals:\n")
	fmt.Fprintf(&b, "     Min       1Q   Median       3Q      Max\n")
	fmt.Fprintf(&b, "%8.4f %8.4f %8.4f %8.4f %8.4f\n\n",
		m.ResidualQuartiles[0], m.ResidualQuartiles[1], m.ResidualQuartiles[2],
		m.ResidualQuartiles[3], m.ResidualQuartiles[4])
	fmt.Fprintf(&b, "Coefficients:\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %9s %12s\n", "", "Estimate", "Std. Error", "t value", "Pr(>|t|)")
	for _, c := range m.Coefficients {
		fmt.Fprintf(&b, "%-12s %12.6f %12.6f %9.3f %12.4g %s\n",
			c.Name, c.Estimate, c.StdError, c.TValue, c.PValue, c.Signif())
	}
	b.WriteString("---\nSignif. codes: 0 '***' 0.001 '**' 0.01 '*' 0.05 '.' 0.1 ' ' 1\n\n")
	fmt.Fprintf(&b, "Residual standard error: %.4g on %d degrees of freedom\n",
		m.ResidualStdErr, m.DFResidual)
	fmt.Fprintf(&b, "Multiple R-squared: %.4f, Adjusted R-squared: %.4f\n",
		m.RSquared, m.AdjRSquared)
	fmt.Fprintf(&b, "F-statistic: %.4g on %d and %d DF, p-value: %.4g\n",
		m.FStatistic, m.DFModel, m.DFResidual, m.FPValue)
	return b.String()
}
