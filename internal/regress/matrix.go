// Package regress implements ordinary least squares linear regression with
// the complete R summary.lm statistics (coefficient table with standard
// errors, t values and Pr(>|t|), residual quartiles, residual standard
// error, multiple and adjusted R², F statistic and its p-value).
//
// It reproduces the modelling workflow of the TEEM paper's offline phase:
// fit the full model M ~ AT + ET + PT + EC, observe collinearity masking,
// drop the masked predictors, log-transform the response, and refit
// (paper Tables I and II, Figs 3 and 4).
package regress

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("regress: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("regress: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// ErrSingular is returned when the design matrix is (numerically) rank
// deficient.
var ErrSingular = errors.New("regress: design matrix is rank deficient")

// qrFactor holds a Householder QR factorisation in the packed JAMA form:
// Householder vectors below the diagonal of w, R strictly above it, and the
// diagonal of R in rdiag.
type qrFactor struct {
	w     *Matrix
	rdiag []float64
}

// factorQR computes the Householder QR factorisation of a copy of a.
// It returns ErrSingular if R has a (numerically) zero diagonal entry.
func factorQR(a *Matrix) (*qrFactor, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("regress: need at least as many rows (%d) as columns (%d)", a.Rows, a.Cols)
	}
	w := a.Clone()
	m, n := w.Rows, w.Cols
	rdiag := make([]float64, n)

	scale := 0.0
	for _, v := range w.Data {
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	if scale == 0 {
		return nil, ErrSingular
	}
	tol := 1e-12 * scale * float64(m)

	for k := 0; k < n; k++ {
		nrm := 0.0
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, w.At(i, k))
		}
		if nrm <= tol {
			return nil, ErrSingular
		}
		if w.At(k, k) < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			w.Set(i, k, w.At(i, k)/nrm)
		}
		w.Set(k, k, w.At(k, k)+1)
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += w.At(i, k) * w.At(i, j)
			}
			s = -s / w.At(k, k)
			for i := k; i < m; i++ {
				w.Set(i, j, w.At(i, j)+s*w.At(i, k))
			}
		}
		rdiag[k] = -nrm
	}
	return &qrFactor{w: w, rdiag: rdiag}, nil
}

// solve returns the least-squares solution x minimising ‖a·x − b‖₂ where a
// is the matrix the factorisation was computed from.
func (q *qrFactor) solve(b []float64) []float64 {
	m, n := q.w.Rows, q.w.Cols
	if len(b) != m {
		panic("regress: solve dimension mismatch")
	}
	y := append([]float64(nil), b...)
	// y ← Qᵀ b.
	for k := 0; k < n; k++ {
		s := 0.0
		for i := k; i < m; i++ {
			s += q.w.At(i, k) * y[i]
		}
		s = -s / q.w.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * q.w.At(i, k)
		}
	}
	// Back substitution R x = y[:n].
	x := make([]float64, n)
	for k := n - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < n; j++ {
			s -= q.w.At(k, j) * x[j]
		}
		x[k] = s / q.rdiag[k]
	}
	return x
}

// rInverse returns R⁻¹ as an n×n upper-triangular matrix.
func (q *qrFactor) rInverse() *Matrix {
	n := q.w.Cols
	inv := NewMatrix(n, n)
	for col := 0; col < n; col++ {
		// Solve R x = e_col by back substitution.
		for k := col; k >= 0; k-- {
			s := 0.0
			if k == col {
				s = 1
			}
			for j := k + 1; j <= col; j++ {
				s -= q.w.At(k, j) * inv.At(j, col)
			}
			inv.Set(k, col, s/q.rdiag[k])
		}
	}
	return inv
}

// xtxInverseDiag returns the diagonal of (XᵀX)⁻¹ = R⁻¹R⁻ᵀ, which scales the
// coefficient standard errors.
func (q *qrFactor) xtxInverseDiag() []float64 {
	n := q.w.Cols
	rinv := q.rInverse()
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for k := i; k < n; k++ {
			v := rinv.At(i, k)
			s += v * v
		}
		diag[i] = s
	}
	return diag
}
