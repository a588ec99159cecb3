package stats

import "math"

// This file implements the special functions and distribution CDFs needed
// to reproduce R's summary.lm p-values: the regularised incomplete beta
// function drives both the Student-t and the Fisher F distributions.

// lgamma returns log Γ(x) for x > 0.
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// RegIncBeta returns the regularised incomplete beta function I_x(a, b)
// for a, b > 0 and 0 ≤ x ≤ 1, computed with the continued-fraction
// expansion from Numerical Recipes (betacf) which converges for all valid
// arguments when combined with the symmetry transformation.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(x):
		return math.NaN()
	case a <= 0 || b <= 0:
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// betacf evaluates the continued fraction for the incomplete beta function
// using the modified Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// StudentTCDF returns P(T ≤ t) for a Student-t variable with df degrees of
// freedom.
func StudentTCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// TTestPValue returns the two-sided p-value Pr(>|t|) for a t statistic with
// df degrees of freedom, matching R's coefficient table.
func TTestPValue(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	p := 2 * (1 - StudentTCDF(math.Abs(t), df))
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// FCDF returns P(X ≤ f) for a Fisher F variable with (df1, df2) degrees of
// freedom.
func FCDF(f, df1, df2 float64) float64 {
	if df1 <= 0 || df2 <= 0 {
		return math.NaN()
	}
	if f <= 0 {
		return 0
	}
	x := df1 * f / (df1*f + df2)
	return RegIncBeta(df1/2, df2/2, x)
}

// FTestPValue returns the upper-tail p-value for an F statistic, matching
// the "F-statistic ... p-value" line of an R summary.
func FTestPValue(f, df1, df2 float64) float64 {
	p := 1 - FCDF(f, df1, df2)
	if p < 0 {
		return 0
	}
	return p
}

// SignifCode returns R's significance stars for a p-value:
// "***" ≤0.001, "**" ≤0.01, "*" ≤0.05, "." ≤0.1, "" otherwise.
func SignifCode(p float64) string {
	switch {
	case p <= 0.001:
		return "***"
	case p <= 0.01:
		return "**"
	case p <= 0.05:
		return "*"
	case p <= 0.1:
		return "."
	default:
		return ""
	}
}
