package regress

import (
	"errors"
	"math"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Error("Set/At round trip failed")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone should not alias")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	got := m.MulVec([]float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("MulVec with wrong length should panic")
		}
	}()
	m.MulVec([]float64{1})
}

func TestQRSolveSquare(t *testing.T) {
	// Solve a well-conditioned 3x3 system exactly.
	a := NewMatrix(3, 3)
	vals := [][]float64{{4, 1, 0}, {1, 3, 1}, {0, 1, 2}}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	xTrue := []float64{1, -2, 3}
	b := a.MulVec(xTrue)
	f, err := factorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.solve(b)
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-10 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], xTrue[i])
		}
	}
}

func TestQRRejectsWideMatrix(t *testing.T) {
	a := NewMatrix(2, 3)
	a.Set(0, 0, 1)
	if _, err := factorQR(a); err == nil {
		t.Error("factorQR should reject rows < cols")
	}
}

func TestQRRejectsZeroMatrix(t *testing.T) {
	a := NewMatrix(4, 2)
	if _, err := factorQR(a); err == nil {
		t.Error("factorQR should reject the zero matrix")
	}
}

func TestQRRejectsRankDeficient(t *testing.T) {
	// Second column is 3x the first.
	a := NewMatrix(4, 2)
	for i := 0; i < 4; i++ {
		a.Set(i, 0, float64(i+1))
		a.Set(i, 1, 3*float64(i+1))
	}
	if _, err := factorQR(a); !errors.Is(err, ErrSingular) {
		t.Errorf("factorQR rank-deficient: got %v, want ErrSingular", err)
	}
}

func TestXTXInverseDiag(t *testing.T) {
	// For an orthonormal design, (XᵀX)⁻¹ = I, so the diagonal is all 1.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	f, err := factorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	d := f.xtxInverseDiag()
	for i, v := range d {
		if math.Abs(v-1) > 1e-12 {
			t.Errorf("diag[%d] = %g, want 1", i, v)
		}
	}
}

func TestRInverse(t *testing.T) {
	// Verify R·R⁻¹ = I for a random-ish tall matrix by checking that
	// solving with R⁻¹ matches direct back-substitution results.
	a := NewMatrix(5, 3)
	vals := []float64{
		2, 1, 0,
		1, 3, 1,
		0, 1, 4,
		1, 0, 1,
		2, 2, 2,
	}
	copy(a.Data, vals)
	f, err := factorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	rinv := f.rInverse()
	// Reconstruct R from the packed factorisation.
	n := 3
	r := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		r.Set(i, i, f.rdiag[i])
		for j := i + 1; j < n; j++ {
			r.Set(i, j, f.w.At(i, j))
		}
	}
	// R · R⁻¹ should be the identity.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += r.At(i, k) * rinv.At(k, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-10 {
				t.Errorf("(R·R⁻¹)[%d][%d] = %g, want %g", i, j, s, want)
			}
		}
	}
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrix(-1, 2) should panic")
		}
	}()
	NewMatrix(-1, 2)
}
