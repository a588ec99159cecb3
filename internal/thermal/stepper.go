// Exact discrete-time thermal stepping. Within a control interval the
// lumped RC system is linear time-invariant,
//
//	C·dT/dt = −G·T + P + gAmb·Tamb,
//
// so for a fixed step dt the update has the closed form
//
//	T(t+dt) = A·T(t) + B·(P + gAmb·Tamb),
//	A = exp(M·dt),  B = (∫₀^dt exp(M·s) ds)·C⁻¹,  M = −C⁻¹·G,
//
// (Bhat et al., "Analysis and Control of Power-Temperature Dynamics in
// Heterogeneous Multiprocessors"). A and B are precomputed once by
// scaling-and-squaring, so a step is one dense matrix-vector product:
// unconditionally stable, exact for piecewise-constant power, and free of
// the Euler substep loop.

package thermal

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Stepper advances a Model by a fixed time step using the exact
// discrete-time propagator. It is bound to the Model it was created from
// and updates that model's temperatures in place; Step performs zero heap
// allocations. A Stepper must not be shared across goroutines.
type Stepper struct {
	m *Model
	// a is exp(M·dt), flat row-major n×n.
	a []float64
	// bp maps the power vector to its temperature contribution:
	// bp = (∫₀^dt exp(M·s) ds)·C⁻¹, flat row-major n×n.
	bp []float64
	// ambGain[i] = Σ_j bp[i][j]·gAmb[j]; multiplied by the ambient
	// temperature each step, so SetAmbientC keeps working mid-run.
	ambGain []float64
	scratch []float64
	// prop is the shared record a, bp and ambGain come from.
	prop *propagator
	// cacheHit records whether the system already kept the propagator —
	// surfaced through CacheHit for the engine flight recorder.
	cacheHit bool
}

// propagator holds the read-only precomputed matrices of one (System,
// dt) pair. A System keeps the propagator of the first step it is asked
// for, so the matrix exponential is computed once per system and every
// engine over it steps with the same matrices.
type propagator struct {
	dt             float64
	a, bp, ambGain []float64
	// shared marks the propagator a shared System keeps; only those
	// share forms.
	shared bool
	// The modal basis of its jump maps (superstep.go), computed on its
	// first Superstep: Ê − I, F½, L = C⁻½·F½ and R = F⁻½·C½ (flat
	// row-major n×n) and C⁻¹; forms holds the shared modal forms.
	basisOnce          sync.Once
	basisErr           error
	em, fh, l, r, invC []float64
	formMu             sync.RWMutex
	forms              map[formKey]*modalForm //teem:guards formMu
}

// propagator returns the propagator of the step dt and whether s already
// kept it. s keeps the first one it computes (the engines' tick); a
// stepper for any other step gets one of its own.
func (s *System) propagator(dt float64) (p *propagator, hit bool, err error) {
	if p = s.prop.Load(); p != nil && p.dt == dt {
		return p, true, nil
	}
	if p, err = s.newPropagator(dt); err != nil {
		return nil, false, err
	}
	p.shared = s.shared // before the swap publishes p
	if !s.prop.CompareAndSwap(nil, p) {
		if q := s.prop.Load(); q.dt == dt {
			return q, false, nil // a concurrent build won: share its forms
		}
		p.shared = false
	}
	return p, false, nil
}

// newPropagator computes the exact propagator of s for the step dt.
func (s *System) newPropagator(dt float64) (*propagator, error) {
	n := s.n
	// H = M·dt = −C⁻¹·G·dt.
	h := make([]float64, n*n)
	s.laplacian(h)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h[i*n+j] *= -s.invC[i] * dt
		}
	}
	a, f, err := expmWithIntegral(h, n)
	if err != nil {
		return nil, err
	}
	// f is ∫₀^1 exp(H·u) du in the scaled time variable; the physical
	// integral is dt·f, and folding in C⁻¹ gives the power-to-ΔT map.
	p := &propagator{dt: dt, a: a, bp: f, ambGain: make([]float64, n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p.bp[i*n+j] *= dt * s.invC[j]
		}
		acc := 0.0
		for j := 0; j < n; j++ {
			acc += p.bp[i*n+j] * s.gAmb[j]
		}
		p.ambGain[i] = acc
	}
	return p, nil
}

// NewStepper returns a stepper over the exact propagator of the model's
// RC system for the given fixed step (seconds).
func (m *Model) NewStepper(dt float64) (*Stepper, error) {
	if dt <= 0 {
		return nil, errors.New("thermal: stepper needs a positive time step")
	}
	p, hit, err := m.sys.propagator(dt)
	if err != nil {
		return nil, err
	}
	return &Stepper{m: m, a: p.a, bp: p.bp, ambGain: p.ambGain, scratch: make([]float64, m.n), prop: p, cacheHit: hit}, nil
}

// CacheHit reports whether this stepper reused the propagator its
// system kept instead of computing the matrix exponential.
func (s *Stepper) CacheHit() bool { return s.cacheHit }

// Propagator returns what one step applies, for a caller that steps a
// 4-node model itself through Row4: a = exp(M·dt) and bp (flat row-major
// n×n), each row's ambient gain, and the bound model's ambient
// temperature. The slices are shared by every stepper over the same
// system and must not be written.
func (s *Stepper) Propagator() (a, bp, ambGain []float64, ambientC float64) {
	return s.a, s.bp, s.ambGain, s.m.ambientC
}

// Row4 is one row of a 4-node step: node i's new temperature from its
// ambient term ga = ambGain[i]·Tamb, its rows a and b of the propagator
// and bp, the pre-step temperatures t0…t3 and the node injection p0…p3.
// The terms are summed in this order, left to right. Step and the
// engine's steady walk both call it, so every 4-node step sums in one
// order and the two agree bit for bit; it is small enough to inline.
//
//teem:hotpath
func Row4(ga float64, a, b *[4]float64, t0, t1, t2, t3, p0, p1, p2, p3 float64) float64 {
	return ga + a[0]*t0 + a[1]*t1 + a[2]*t2 + a[3]*t3 + b[0]*p0 + b[1]*p1 + b[2]*p2 + b[3]*p3
}

// Step advances the bound model by the stepper's fixed dt with the given
// per-node power injection in watts. It allocates nothing.
//
//teem:hotpath
func (s *Stepper) Step(powerW []float64) error {
	n := s.m.n
	if len(powerW) != n {
		return fmt.Errorf("thermal: Step got %d powers, want %d", len(powerW), n)
	}
	temps := s.m.temps[:n]
	powerW = powerW[:n]
	amb := s.m.ambientC
	scratch := s.scratch[:n]
	if n == 4 {
		// Unrolled fast path for the ubiquitous 4-node MPSoC network
		// (big, LITTLE, GPU, package).
		t0, t1, t2, t3 := temps[0], temps[1], temps[2], temps[3]
		p0, p1, p2, p3 := powerW[0], powerW[1], powerW[2], powerW[3]
		a, b, g := (*[16]float64)(s.a), (*[16]float64)(s.bp), (*[4]float64)(s.ambGain)
		temps[0] = Row4(g[0]*amb, (*[4]float64)(a[0:4]), (*[4]float64)(b[0:4]), t0, t1, t2, t3, p0, p1, p2, p3)
		temps[1] = Row4(g[1]*amb, (*[4]float64)(a[4:8]), (*[4]float64)(b[4:8]), t0, t1, t2, t3, p0, p1, p2, p3)
		temps[2] = Row4(g[2]*amb, (*[4]float64)(a[8:12]), (*[4]float64)(b[8:12]), t0, t1, t2, t3, p0, p1, p2, p3)
		temps[3] = Row4(g[3]*amb, (*[4]float64)(a[12:16]), (*[4]float64)(b[12:16]), t0, t1, t2, t3, p0, p1, p2, p3)
		return nil
	}
	for i := 0; i < n; i++ {
		acc := s.ambGain[i] * amb
		ar := s.a[i*n : i*n+n : i*n+n]
		br := s.bp[i*n : i*n+n : i*n+n]
		for j := range ar {
			acc += ar[j]*temps[j] + br[j]*powerW[j]
		}
		scratch[i] = acc
	}
	copy(temps, scratch)
	return nil
}

// expmWithIntegral computes E = exp(H) and F = ∫₀^1 exp(H·u) du for a flat
// row-major n×n matrix by scaling-and-squaring over a Taylor expansion.
// The doubling identities are E(2h) = E(h)² and F(2h) = ½(I + E(h))·F(h)
// (in the normalised variable, the integral over [0,2h] splits into
// [0,h] + e^{Mh}[h,2h] and is renormalised by the factor ½).
func expmWithIntegral(h []float64, n int) (e, f []float64, err error) {
	norm := 0.0
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			row += math.Abs(h[i*n+j])
		}
		if row > norm {
			norm = row
		}
	}
	if math.IsNaN(norm) || math.IsInf(norm, 0) {
		return nil, nil, errors.New("thermal: non-finite propagator matrix")
	}
	// Scale H so the Taylor series of exp converges fast: ‖H‖/2^s ≤ 0.5.
	squarings := 0
	for scaled := norm; scaled > 0.5; scaled /= 2 {
		squarings++
	}
	inv := math.Ldexp(1, -squarings) // 2^-squarings
	hs := make([]float64, n*n)
	for i := range h {
		hs[i] = h[i] * inv
	}

	// Taylor: E = Σ Hs^k/k!, F = Σ Hs^k/(k+1)! (both in the scaled
	// variable, F normalised to the unit interval).
	e = identity(n)
	f = identity(n)
	term := identity(n)
	tmp := make([]float64, n*n)
	for k := 1; k <= 40; k++ {
		matMul(tmp, term, hs, n)
		maxAbs := 0.0
		for i := range tmp {
			term[i] = tmp[i] / float64(k)
			if a := math.Abs(term[i]); a > maxAbs {
				maxAbs = a
			}
		}
		for i := range e {
			e[i] += term[i]
			f[i] += term[i] / float64(k+1)
		}
		if maxAbs < 1e-19 {
			break
		}
	}

	// Undo the scaling: square E and fold F up with it.
	for s := 0; s < squarings; s++ {
		// F ← ½(I + E)·F before E is squared.
		copy(tmp, f)
		matMul(f, e, tmp, n)
		for i := range f {
			f[i] = 0.5 * (f[i] + tmp[i])
		}
		matMul(tmp, e, e, n)
		copy(e, tmp)
	}
	for i := range e {
		if math.IsNaN(e[i]) || math.IsInf(e[i], 0) || math.IsNaN(f[i]) || math.IsInf(f[i], 0) {
			return nil, nil, errors.New("thermal: propagator did not converge")
		}
	}
	return e, f, nil
}

func identity(n int) []float64 {
	m := make([]float64, n*n)
	for i := 0; i < n; i++ {
		m[i*n+i] = 1
	}
	return m
}

// matMul computes dst = a·b for flat row-major n×n matrices; dst must not
// alias a or b.
func matMul(dst, a, b []float64, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			for k := 0; k < n; k++ {
				acc += a[i*n+k] * b[k*n+j]
			}
			dst[i*n+j] = acc
		}
	}
}
