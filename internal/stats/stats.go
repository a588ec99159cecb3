// Package stats provides the descriptive statistics and probability
// distributions required by the regression engine and the evaluation
// metrics: means, variances, R-compatible quantiles, and the Student-t and
// Fisher F distributions (via the regularised incomplete beta function).
//
// Everything is implemented from scratch on the standard library so the
// module stays dependency-free.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by descriptive statistics on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs. It returns 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (divisor n-1) of xs.
// It returns 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// MinMax returns the smallest and largest values of xs.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of xs using R's default
// type-7 definition (linear interpolation of the order statistics), so
// quartiles match the "Residuals" block of an R summary.
func Quantile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 {
		return 0, errors.New("stats: quantile probability outside [0,1]")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return s[n-1], nil
	}
	return s[lo] + (h-float64(lo))*(s[hi]-s[lo]), nil
}

// FiveNum returns min, 1st quartile, median, 3rd quartile and max, as shown
// in R regression summaries.
func FiveNum(xs []float64) (min, q1, med, q3, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, 0, 0, 0, ErrEmpty
	}
	min, max, _ = MinMax(xs)
	q1, _ = Quantile(xs, 0.25)
	med, _ = Quantile(xs, 0.50)
	q3, _ = Quantile(xs, 0.75)
	return min, q1, med, q3, max, nil
}
