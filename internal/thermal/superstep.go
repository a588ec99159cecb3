// Event-horizon superstepping. A fixed-tick run applies the per-tick
// recurrence
//
//	T[k+1] = A·T[k] + Bp·P(T[k]) + ambGain·Tamb,
//
// where the injected power P is affine in temperature whenever the
// operating point (frequencies, voltages, utilisations, mapping, ambient)
// is constant: dynamic, DRAM and baseline power are fixed, and leakage is
// base·(1 + c·(T−25)) — linear in T above 25 °C. Folding the per-node
// leakage slope s (W/°C) into the propagator gives an affine map
//
//	T[k+1] = Ã·T[k] + b̃,   Ã = A + Bp·diag(s),   b̃ = Bp·Pconst + ambGain·Tamb.
//
// With C the heat capacities, Ê = C½·A·C⁻½ and F = C½·Bp·C½ are
// symmetric (F positive definite), so S = Ê + F½·diag(s/C)·F½ is too, and
// its eigensolve S = U·Λ·Uᵀ gives the modal form Ã = Q·Λ·Q⁻¹ with
// Q = C⁻½·F½·U and Q⁻¹ = Uᵀ·F⁻½·C½. The basis is kept on the system's
// shared propagator, and each slope vector's form, one cyclic-Jacobi
// eigensolve, is shared by every engine on the system. Any n ticks are
//
//	T[k+n] = T[k] + Q·z,   z_m = (λ_mⁿ − 1)·(Q⁻¹·T[k])_m + (Σ_{j<n} λ_mʲ)·(Q⁻¹·b̃)_m,
//
// O(N²) with no fixed point, so leakage runaway (λ ≥ 1) needs no special
// case. The jump matches fixed stepping to about 1e-10 °C: eigenvalue
// rounding is a small rate error on the slowest modes.
//
// Because Ã is entrywise non-negative (the propagator of a Metzler RC
// system plus a non-negative leakage feedback), temperature increments
// keep their sign under the map: a trajectory that starts rising rises
// for the whole jump, one that starts falling keeps falling. Jump probes
// the first tick on Ã itself and reports that direction, which lets the
// caller validate interior-state constraints (thermal trip thresholds,
// the T ≥ 25 °C leakage regime) from the two endpoints alone.
//
// A planned jump's interior is read at increasing offsets j by carrying
// u = Q⁻¹·T(j) forward in modal space (InstantSlopeW): the power law's
// slope term Σ s_i·T_i(j) = s·T(0) + (Qᵀ·s)·(u − u(0)) costs O(N) per
// offset, and T(j) or T(j+1) itself one O(N²) product (InstantTemps).
//
// A span too close to equilibrium for one direction to hold overall can
// still be advanced in short segments of L ≤ SegmentMaxTicks ticks, each
// certified on its own. With u = Q⁻¹·T and w = (Λ − I)·u + Q⁻¹·b̃, the
// increment of tick j is Q·(λʲ ⊙ w). When every λ_m > 0, each λ_mʲ·w_m
// over j < L lies between w_m and w′_m = λ_m^(L−1)·w_m, so a node with
// |Q·(w + w′)| > |Q|·|w − w′| keeps the sign of its increment on every
// tick of the segment: it is monotone there, and its endpoints bound it.

package thermal

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// A system's shared forms are keyed by slope vector, zero padded to a
// fixed-size array, so a lookup neither allocates nor boxes (8 nodes cover
// the catalog; a larger network builds its forms unshared). Only shared
// Systems (System.Share) share forms, so formCount, bounded by
// formCacheLimit, counts forms that live as long as the process.
type formKey [8]float64

var formCount atomic.Int64

const formCacheLimit = 1024

// SegmentMaxTicks is the longest segment Segment evaluates: the modal
// forms tabulate their modes' powers up to it. It is the engine's trace
// record period (0.1 s of 10 ms ticks), so a segment can end on every
// record tick.
const SegmentMaxTicks = 10

// modalForm is the jump map of one slope vector, read-only once built:
// Ã = A + Bp·diag(slope) for the one-tick direction probe, Q, |Q| and Q⁻¹
// (flat row-major n×n) and mu[m] = λ_m − 1. For the segments, row L of
// segD and segS (n entries each, L = 0…SegmentMaxTicks) holds each mode's
// λᴸ − 1 and Σ_{j<L} λʲ, sq = Qᵀ·slope weighs modal increments into the
// power law's slope term, and segOK reports that every λ_m > 0.
type modalForm struct {
	slope, at, q, absQ, qi, mu, segD, segS, sq []float64
	segOK                                      bool
}

// Superstep jumps a model across n identical ticks of its Stepper in one
// application of a modal form, or advances it through certified segments
// of at most SegmentMaxTicks ticks. It is bound to one leakage-slope vector;
// build a new Superstep, or Rebind one, when a DVFS or mapping change
// alters the slopes. Not safe for concurrent use.
type Superstep struct {
	st *Stepper
	f  *modalForm
	// buf holds numVecs scratch n-vectors (see vec).
	buf []float64
	// planned marks a Jump awaiting Commit, with at the interior offset
	// vAcc is carried to; begun marks segments BeginSegments started, with
	// segL (> 0) a certified Segment of that many ticks awaiting
	// CommitSegment.
	reused, planned, begun bool
	at, segL               int
	// pn is the horizon vPowD and vPowS hold powers for, sn the interior
	// step vStepD and vStepS hold them for (0: none).
	pn, sn int
}

// The scratch vectors of a Superstep. A planned Jump and a segment run
// never coexist, so the segment certificate's vectors double as a jump's
// interior state.
const (
	vC     = iota // Q⁻¹·b̃
	vU            // Q⁻¹·T at the start of the jump or the next segment
	vZ            // modal increments of the planned jump or segment
	vEnd          // the planned end temperatures
	vB            // b̃ of the last Jump or BeginSegments
	vPowD         // each mode's λⁿ − 1 for n = pn
	vPowS         // each mode's Σ_{j<n} λʲ for n = pn
	vSum          // segment certificate: w + w′
	vDev          // segment certificate: |w − w′|
	vZPrev        // modal increments to T(L−1)
	numVecs

	vAcc   = vSum   // modal increments to the planned jump's interior offset
	vStepD = vDev   // each mode's λⁿ − 1 for the interior step n = sn
	vStepS = vZPrev // each mode's Σ_{j<n} λʲ for n = sn
)

// vec is scratch vector i.
func (ss *Superstep) vec(i int) []float64 {
	n := ss.st.m.n
	return ss.buf[i*n : (i+1)*n : (i+1)*n]
}

// NewSuperstep builds the jump map for the stepper's system and the
// given per-node leakage slope (W/°C, entries ≥ 0), sharing the modal
// form of an earlier Superstep over the same system and slope.
func NewSuperstep(st *Stepper, slopeWPerC []float64) (*Superstep, error) {
	ss := &Superstep{st: st, buf: make([]float64, numVecs*st.m.n)}
	if err := ss.Rebind(slopeWPerC); err != nil {
		return nil, err
	}
	return ss, nil
}

// Rebind binds ss to another slope vector in place, as NewSuperstep
// would build it but keeping its buffers, so a caller that rebinds one
// map allocates nothing beyond a new form's eigensolve. A plan, segments
// or powers of the old form are dropped. On error ss is unchanged.
func (ss *Superstep) Rebind(slopeWPerC []float64) error {
	st := ss.st
	if len(slopeWPerC) != st.m.n {
		return fmt.Errorf("thermal: superstep got %d slopes, want %d", len(slopeWPerC), st.m.n)
	}
	for j, s := range slopeWPerC {
		if s < 0 {
			return fmt.Errorf("thermal: negative leakage slope %g on node %d", s, j)
		}
	}
	f, reused, err := st.prop.form(st.m.sys.invC, slopeWPerC)
	if err != nil {
		return err
	}
	*ss = Superstep{st: st, f: f, buf: ss.buf, reused: reused}
	return nil
}

// Slope returns the leakage-slope vector the map was built for (read-only).
func (ss *Superstep) Slope() []float64 { return ss.f.slope }

// Reused reports whether the modal form was shared, not eigensolved.
func (ss *Superstep) Reused() bool { return ss.reused }

// inject returns b̃ = Bp·constInjW + ambGain·Tamb in scratch vector vB.
//
//teem:hotpath
func (ss *Superstep) inject(constInjW []float64) []float64 {
	n, amb := ss.st.m.n, ss.st.m.ambientC
	bvec := ss.vec(vB)
	for i := 0; i < n; i++ {
		acc := ss.st.ambGain[i] * amb
		br := ss.st.bp[i*n : i*n+n : i*n+n]
		for j := range br {
			acc += br[j] * constInjW[j]
		}
		bvec[i] = acc
	}
	return bvec
}

// powers writes each mode's λⁿ − 1 into d and Σ_{j<n} λʲ into s, by
// binary powering: m and m' ticks compose to (d + d' + d·d',
// s + s' + d·s'), and carrying λᵐ − 1 instead of λᵐ keeps the slow modes'
// precision.
//
//teem:hotpath
func powers(mu, d, s []float64, n int) {
	for k, m := range mu {
		d[k], s[k] = power(m, n)
	}
}

// power returns λⁿ − 1 and Σ_{j<n} λʲ of one mode with λ − 1 = mu (see
// powers).
//
//teem:hotpath
func power(mu float64, n int) (d, s float64) {
	bd, bs := mu, 1.0
	for rem := n; ; bd, bs = bd*(2+bd), bs*(2+bd) {
		if rem&1 == 1 {
			d, s = d+bd+d*bd, s+bs+d*bs
		}
		if rem >>= 1; rem == 0 {
			return d, s
		}
	}
}

// Jump plans an n-tick advance of the bound model under the constant
// power injection constInjW (per node, watts — the temperature-independent
// part; the leakage slopes are already folded into the map). It does not
// modify the model: endTemps is the planned state after n ticks (valid
// until the next Jump or Segment) and dir the componentwise trajectory
// direction — +1 monotonically rising, −1 falling, 0 mixed (endTemps nil;
// the caller must fall back to fixed ticks, endpoint guards would not
// bound the interior). Call Commit to apply a planned jump, and
// InstantSlopeW and InstantTemps to read its interior first.
// Allocation-free.
//
//teem:hotpath
func (ss *Superstep) Jump(nTicks int, constInjW []float64) (endTemps []float64, dir int, err error) {
	ss.planned, ss.begun, ss.segL = false, false, 0
	n := ss.st.m.n
	if nTicks < 1 {
		return nil, 0, fmt.Errorf("thermal: superstep of %d ticks", nTicks)
	}
	if len(constInjW) != n {
		return nil, 0, fmt.Errorf("thermal: Jump got %d powers, want %d", len(constInjW), n)
	}
	f := ss.f
	temps := ss.st.m.temps[:n]
	bvec := ss.inject(constInjW)
	u, c, z, tn := ss.vec(vU), ss.vec(vC), ss.vec(vZ), ss.vec(vEnd)
	pd, ps := ss.vec(vPowD), ss.vec(vPowS)
	if dir = ss.probe(bvec); dir == 0 {
		return nil, 0, nil
	}
	// The powers are kept for a repeated horizon.
	if ss.pn != nTicks {
		powers(f.mu, pd, ps, nTicks)
		ss.pn = nTicks
	}
	for k := 0; k < n; k++ {
		qr := f.qi[k*n : k*n+n : k*n+n]
		x, y := 0.0, 0.0
		for j := range qr {
			x += qr[j] * temps[j]
			y += qr[j] * bvec[j]
		}
		u[k], c[k] = x, y
		z[k] = pd[k]*x + ps[k]*y
	}
	for i := 0; i < n; i++ {
		acc := temps[i]
		qr := f.q[i*n : i*n+n : i*n+n]
		for k := range qr {
			acc += qr[k] * z[k]
		}
		if math.IsNaN(acc) || math.IsInf(acc, 0) {
			return nil, 0, errors.New("thermal: superstep produced a non-finite temperature")
		}
		tn[i] = acc
	}
	clear(ss.vec(vAcc))
	ss.planned, ss.at = true, 0
	return tn, dir, nil
}

// probe is the one-tick direction probe: the sign of Ã·T + b̃ − T on
// every node, from the model's temperatures under the injection bvec.
// With Ã ≥ 0 the increment T[k+1]−T[k] keeps its componentwise sign, so
// the first step's direction is the direction of every later step at the
// same injection: +1 when no node falls, −1 when some node falls and
// none rises, 0 when both happen.
//
//teem:hotpath
func (ss *Superstep) probe(bvec []float64) int {
	f, n := ss.f, ss.st.m.n
	temps := ss.st.m.temps[:n]
	rising, falling := true, true
	for i := 0; i < n; i++ {
		acc := bvec[i]
		ar := f.at[i*n : i*n+n : i*n+n]
		for j := range ar {
			acc += ar[j] * temps[j]
		}
		if acc > temps[i] {
			falling = false
		} else if acc < temps[i] {
			rising = false
		}
	}
	switch {
	case rising:
		return 1
	case falling:
		return -1
	}
	return 0
}

// Direction is Jump's one-tick direction probe from the model's current
// temperatures under the injection the last BeginSegments took: +1
// rising, −1 falling, 0 mixed, as Jump reports it for a jump planned
// here. Between segments of one run it reads the committed state, so a
// caller can tell where a mixed trajectory turns monotone without
// planning a jump. It returns 0 when no segment run is begun.
//
//teem:hotpath
func (ss *Superstep) Direction() int {
	if !ss.begun {
		return 0
	}
	return ss.probe(ss.vec(vB))
}

// Commit applies the temperatures of the last successful Jump to the
// model.
//
//teem:hotpath
func (ss *Superstep) Commit() error {
	if !ss.planned {
		return errors.New("thermal: Commit without a planned Jump")
	}
	copy(ss.st.m.temps[:ss.st.m.n], ss.vec(vEnd))
	ss.planned = false
	return nil
}

// InstantSlopeW carries the planned Jump's interior state to j ticks past
// its start, at or after the offset it was last carried to (0 after
// Jump), and returns Σ_i slope_i·T_i(j) there: the temperature-dependent
// part of the power law under which tick j of the jump starts, in watts,
// or NaN when no Jump is planned. It carries u = Q⁻¹·T(j) forward in
// modal space, so an offset costs O(N), plus the eigenvalue powers of
// the step from the last one: those of a later step are kept, since they
// repeat when the offsets are evenly spaced.
//
//teem:hotpath
func (ss *Superstep) InstantSlopeW(j int) float64 {
	if !ss.planned || j < ss.at {
		return math.NaN()
	}
	f, n := ss.f, ss.st.m.n
	acc := ss.vec(vAcc)
	if step := j - ss.at; step > 0 {
		u, c := ss.vec(vU), ss.vec(vC)
		if ss.at == 0 {
			// The first step varies from jump to jump; the later ones
			// repeat the caller's period, so only they keep their powers.
			for m, mu := range f.mu {
				d, s := power(mu, step)
				acc[m] += d*(u[m]+acc[m]) + s*c[m]
			}
		} else {
			sd, sS := ss.vec(vStepD), ss.vec(vStepS)
			if ss.sn != step {
				powers(f.mu, sd, sS, step)
				ss.sn = step
			}
			for m := range acc {
				acc[m] += sd[m]*(u[m]+acc[m]) + sS[m]*c[m]
			}
		}
		ss.at = j
	}
	temps := ss.st.m.temps[:n]
	p := 0.0
	for i, s := range f.slope {
		p += s*temps[i] + f.sq[i]*acc[i]
	}
	return p
}

// InstantTemps writes into dst the planned Jump's state at the offset
// InstantSlopeW last carried it to, shifted by next ticks (0 or 1): with
// next = 1 that is the post-step state of the tick at that offset. It
// costs O(N²) and does nothing when no Jump is planned.
//
//teem:hotpath
func (ss *Superstep) InstantTemps(dst []float64, next int) {
	if !ss.planned {
		return
	}
	f, n := ss.f, ss.st.m.n
	temps, u, c, acc, w := ss.st.m.temps[:n], ss.vec(vU), ss.vec(vC), ss.vec(vAcc), ss.vec(vZ)
	for m := range w {
		w[m] = acc[m]
		if next == 1 {
			// One more tick: λ − 1 times the carried state plus Q⁻¹·b̃.
			w[m] += f.mu[m]*(u[m]+acc[m]) + c[m]
		}
	}
	for i := range dst[:n] {
		e := temps[i]
		qr := f.q[i*n:][:n]
		for k := range qr {
			e += qr[k] * w[k]
		}
		dst[i] = e
	}
}

// BeginSegments starts advancing the bound model in segments under the
// constant injection constInjW (as for Jump): it takes the modal state
// u = Q⁻¹·T of the model's temperatures, which Segment reads and
// CommitSegment carries forward, and the injection's b̃ and Q⁻¹·b̃, which
// Direction reads too. Call it again after anything else moves the
// model. Allocation-free.
//
//teem:hotpath
func (ss *Superstep) BeginSegments(constInjW []float64) error {
	ss.planned, ss.begun, ss.segL = false, false, 0
	n := ss.st.m.n
	if len(constInjW) != n {
		return fmt.Errorf("thermal: BeginSegments got %d powers, want %d", len(constInjW), n)
	}
	bvec := ss.inject(constInjW)
	temps, u, c := ss.st.m.temps[:n], ss.vec(vU), ss.vec(vC)
	for k := 0; k < n; k++ {
		qr := ss.f.qi[k*n : k*n+n : k*n+n]
		x, y := 0.0, 0.0
		for j := range qr {
			x += qr[j] * temps[j]
			y += qr[j] * bvec[j]
		}
		u[k], c[k] = x, y
	}
	ss.begun = true
	return nil
}

// Segment evaluates the next nTicks (1…SegmentMaxTicks) ticks from the
// carried modal state without modifying the model. It returns the state
// T(L) the segment ends in (valid until the next Jump or Segment) and ok
// when every node is certified monotone over the segment: all λ_m > 0
// and, per node, |Q·(w + w′)| > |Q|·|w − w′|. Only then do the endpoints
// bound each node's interior. A segment outside the tabulated lengths,
// or one whose map did not call BeginSegments last, is refused.
// SegmentSlopeW gives the slope term of the power law at a certified
// segment's T(L−1); CommitSegment applies it. Allocation-free.
//
//teem:hotpath
func (ss *Superstep) Segment(nTicks int) (end []float64, ok bool) {
	f, n := ss.f, ss.st.m.n
	if !ss.begun {
		return nil, false
	}
	ss.segL, ss.sn = 0, 0
	if nTicks < 1 || nTicks > SegmentMaxTicks || !f.segOK {
		return nil, false
	}
	buf := ss.buf[:numVecs*n]
	temps, mu := ss.st.m.temps[:n], f.mu[:n]
	u, c, z, tn := buf[vU*n:][:n], buf[vC*n:][:n], buf[vZ*n:][:n], buf[vEnd*n:][:n]
	sum, dev, zp := buf[vSum*n:][:n], buf[vDev*n:][:n], buf[vZPrev*n:][:n]
	// Row L−1 of the tables gives T(L−1), row L gives T(L).
	r := (nTicks - 1) * n
	dPrev, sPrev, sEnd := f.segD[r:][:n], f.segS[r:][:n], f.segS[r+n:][:n]
	for m := 0; m < n; m++ {
		// w is the first tick's modal increment and v = w′ − w.
		w := mu[m]*u[m] + c[m]
		v := dPrev[m] * w
		sum[m], dev[m], zp[m], z[m] = 2*w+v, math.Abs(v), sPrev[m]*w, sEnd[m]*w
	}
	ok = true
	for i := 0; i < n; i++ {
		qr, ar := f.q[i*n:][:n], f.absQ[i*n:][:n]
		a, b, e := 0.0, 0.0, temps[i]
		for k := 0; k < n; k++ {
			a += qr[k] * sum[k]
			b += ar[k] * dev[k]
			e += qr[k] * z[k]
		}
		ok = ok && math.Abs(a) > b
		tn[i] = e
	}
	if !ok {
		return nil, false
	}
	ss.segL = nTicks
	return tn, true
}

// SegmentSlopeW returns Σ_i slope_i·T_i at T(L−1) of the certified
// Segment awaiting CommitSegment — the temperature-dependent part of the
// power law under which its last tick starts — in watts, or 0 when none
// awaits. It weighs the modal increments through Qᵀ·slope, so it costs
// O(N), not the O(N²) of T(L−1) itself.
//
//teem:hotpath
func (ss *Superstep) SegmentSlopeW() float64 {
	if ss.segL == 0 {
		return 0
	}
	f, temps, zp := ss.f, ss.st.m.temps[:ss.st.m.n], ss.vec(vZPrev)
	p := 0.0
	for i, s := range f.slope {
		p += s*temps[i] + f.sq[i]*zp[i]
	}
	return p
}

// CommitSegment applies the last certified Segment: the model takes its
// end temperatures and the carried modal state advances with them. It
// fails when no certified Segment awaits.
//
//teem:hotpath
func (ss *Superstep) CommitSegment() error {
	if ss.segL == 0 {
		return errors.New("thermal: CommitSegment without a certified Segment")
	}
	copy(ss.st.m.temps[:ss.st.m.n], ss.vec(vEnd))
	u, z := ss.vec(vU), ss.vec(vZ)
	for m := range u {
		u[m] += z[m]
	}
	ss.segL = 0
	return nil
}

// form returns the modal form of slope over p's system: the shared one
// (reused), or one built by an eigensolve and shared from then on while
// the process-wide bound has room.
func (p *propagator) form(invC, slope []float64) (f *modalForm, reused bool, err error) {
	var key formKey
	shared := p.shared && len(slope) <= len(key)
	if shared {
		copy(key[:], slope)
		p.formMu.RLock()
		f = p.forms[key]
		p.formMu.RUnlock()
		if f != nil {
			return f, true, nil
		}
	}
	p.basisOnce.Do(func() { p.basisErr = p.newBasis(invC) })
	if p.basisErr != nil {
		return nil, false, p.basisErr
	}
	if f, err = p.newForm(slope); err != nil || !shared {
		return f, false, err
	}
	p.formMu.Lock()
	if g := p.forms[key]; g != nil {
		f = g // a concurrent build won: share its form
	} else if formCount.Load() < formCacheLimit {
		if p.forms == nil {
			p.forms = make(map[formKey]*modalForm)
		}
		p.forms[key] = f
		formCount.Add(1)
	}
	p.formMu.Unlock()
	return f, false, nil
}

// newBasis computes p's modal basis from its propagator and C⁻¹. Ê and F
// are symmetric to rounding; averaging each with its transpose makes
// them exactly so.
func (p *propagator) newBasis(invC []float64) error {
	n := len(invC)
	rc := make([]float64, n) // C⁻½
	for i, v := range invC {
		rc[i] = math.Sqrt(v)
	}
	p.invC = append([]float64(nil), invC...)
	p.em, p.fh, p.l, p.r = make([]float64, n*n), make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	f := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p.em[i*n+j] = 0.5 * (p.a[i*n+j]*rc[j]/rc[i] + p.a[j*n+i]*rc[i]/rc[j])
			f[i*n+j] = 0.5 * (p.bp[i*n+j] + p.bp[j*n+i]) / (rc[i] * rc[j])
		}
		p.em[i*n+i]--
	}
	v, err := jacobi(f, n)
	if err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		if !(f[k*n+k] > 0) {
			return errors.New("thermal: superstep basis is not positive definite")
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h, hi := 0.0, 0.0
			for k := 0; k < n; k++ {
				w, phi := v[i*n+k]*v[j*n+k], math.Sqrt(f[k*n+k])
				h += w * phi
				hi += w / phi
			}
			p.fh[i*n+j], p.l[i*n+j], p.r[i*n+j] = h, rc[i]*h, hi/rc[j]
		}
	}
	return nil
}

// newForm builds the modal form of one slope vector: Ã with its
// monotonicity check, the eigensolve of the symmetric S − I (whose
// eigenvalues are λ − 1 directly), then Q = L·U and Q⁻¹ = Uᵀ·R.
func (p *propagator) newForm(slope []float64) (*modalForm, error) {
	n := len(slope)
	rows := (SegmentMaxTicks + 1) * n
	buf := make([]float64, 3*n+4*n*n+2*rows)
	next := func(size int) []float64 {
		s := buf[:size:size]
		buf = buf[size:]
		return s
	}
	f := &modalForm{slope: next(n), mu: next(n), at: next(n * n), q: next(n * n), absQ: next(n * n), qi: next(n * n)}
	f.segD, f.segS, f.sq = next(rows), next(rows), next(n)
	copy(f.slope, slope)
	s := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// The monotonicity contract needs Ã ≥ 0. Entries of A and Bp
			// are non-negative for a physical RC system up to the rounding
			// dust of the matrix exponential; anything clearly negative
			// means the system is not one this optimisation understands.
			v := p.a[i*n+j] + p.bp[i*n+j]*slope[j]
			if v < -1e-12 {
				return nil, fmt.Errorf("thermal: superstep propagator not monotone (entry %d,%d = %g)", i, j, v)
			}
			f.at[i*n+j] = v
			acc := p.em[i*n+j]
			for k := 0; k < n; k++ {
				acc += p.fh[i*n+k] * p.fh[j*n+k] * (slope[k] * p.invC[k])
			}
			s[i*n+j] = acc
		}
	}
	u, err := jacobi(s, n)
	if err != nil {
		return nil, err
	}
	matMul(f.q, p.l, u, n)
	for i, v := range f.q {
		f.absQ[i] = math.Abs(v)
		f.sq[i%n] += slope[i/n] * v
	}
	f.segOK = true
	for m := 0; m < n; m++ {
		mu := s[m*n+m]
		f.mu[m] = mu
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				f.qi[m*n+j] += u[k*n+m] * p.r[k*n+j]
			}
		}
		// L ticks and one more compose to (d + mu + d·mu, s + 1 + d).
		f.segOK = f.segOK && mu > -1
		d, sum := 0.0, 0.0
		for l := 1; l <= SegmentMaxTicks; l++ {
			d, sum = d+mu+d*mu, sum+1+d
			f.segD[l*n+m], f.segS[l*n+m] = d, sum
		}
	}
	return f, nil
}

// jacobi diagonalises the symmetric n×n matrix a (flat row-major) in
// place by cyclic Jacobi rotations, leaving the eigenvalues on its
// diagonal, and returns the orthogonal matrix whose columns are the
// matching eigenvectors. A rotation mixes off-diagonal entries only with
// each other, so their mass falls quadratically to nothing.
func jacobi(a []float64, n int) ([]float64, error) {
	v := identity(n)
	rotate := func(m []float64, i, j int, c, s float64) { m[i], m[j] = c*m[i]-s*m[j], s*m[i]+c*m[j] }
	for sweep := 0; sweep < 50; sweep++ {
		off, all := 0.0, 0.0
		for i, x := range a {
			if all += x * x; i/n != i%n {
				off += x * x
			}
		}
		if off <= 1e-36*all {
			return v, nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if a[p*n+q] == 0 {
					continue
				}
				theta := (a[q*n+q] - a[p*n+p]) / (2 * a[p*n+q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				for k := 0; k < n; k++ {
					rotate(a, k*n+p, k*n+q, c, t*c) // columns p and q
					rotate(v, k*n+p, k*n+q, c, t*c)
				}
				for k := 0; k < n; k++ {
					rotate(a, p*n+k, q*n+k, c, t*c) // rows p and q
				}
				a[p*n+q], a[q*n+p] = 0, 0
			}
		}
	}
	return nil, errors.New("thermal: superstep eigensolve did not converge")
}
