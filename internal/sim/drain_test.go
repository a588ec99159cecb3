package sim

import (
	"math"
	"math/rand"
	"testing"
)

// loopDrain is the per-tick subtraction drain reproduces.
func loopDrain(rem, c float64, n int) float64 {
	for range n {
		rem -= c
	}
	return rem
}

// checkDrain fails t unless drain gives the loop's bits.
func checkDrain(t *testing.T, rem, c float64, n int) {
	t.Helper()
	if got, want := drain(rem, c, n), loopDrain(rem, c, n); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("drain(%v, %v, %d) = %v, loop %v", rem, c, n, got, want)
	}
}

// Property: drain equals the loop bit for bit: on random values, on
// steps that end exactly half an ulp of the binade the value sits in
// (ties, where the rounding alternates until the parity settles), on
// steps below half an ulp (which move nothing, or only at the binade's
// floor), on chains that cross many binades, and on the engine's own
// work-item budgets and rates.
func TestDrainMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// ulpIn returns a value in the binade [2^e, 2^(e+1)) and its ulp.
	ulpIn := func(e int) (float64, float64) {
		u := math.Ldexp(1, e-52)
		return float64(1<<52+rng.Int63n(1<<52)) * u, u
	}
	for range 20000 {
		rem := math.Ldexp(1+rng.Float64(), rng.Intn(60)-20)
		c := rem * math.Ldexp(rng.Float64(), -rng.Intn(40))
		checkDrain(t, rem, c, rng.Intn(4000))
	}
	for range 20000 {
		rem, u := ulpIn(rng.Intn(40) - 10)
		a := float64(rng.Intn(1 << uint(rng.Intn(20))))
		checkDrain(t, rem, (a+0.5)*u, rng.Intn(4000))
		checkDrain(t, rem, (a+0.5)*u/2, rng.Intn(4000))
	}
	for range 20000 {
		rem, u := ulpIn(rng.Intn(40) - 10)
		checkDrain(t, rem, rng.Float64()*u/2, rng.Intn(4000))
		// The binade's floor, where a sub-half-ulp step can still move.
		floor := math.Ldexp(1, rng.Intn(40)-10)
		checkDrain(t, floor, rng.Float64()*u, rng.Intn(50))
		checkDrain(t, floor+u, rng.Float64()*u, rng.Intn(50))
	}
	for range 5000 {
		rem := math.Ldexp(1+rng.Float64(), rng.Intn(30))
		n := 1 + rng.Intn(5000)
		// From just short of exhausting rem to well past it: the chain
		// crosses every binade down to c and below zero.
		c := rem / float64(n) * (0.9 + 0.2*rng.Float64())
		checkDrain(t, rem, c, n)
	}
	for range 5000 {
		rem := 1e3 + 1e9*rng.Float64()
		rate := 1e5 + 1e9*rng.Float64()
		checkDrain(t, rem, float64(rate*TickS), rng.Intn(7000))
	}
	for _, c := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 0x1p-1074} {
		for _, rem := range []float64{1, 0, -3, 0x1p-1070, math.MaxFloat64, math.Inf(1)} {
			checkDrain(t, rem, c, 37)
		}
	}
}

// FuzzDrain checks drain against the loop on arbitrary values and
// lengths.
func FuzzDrain(f *testing.F) {
	f.Add(1e6, 1234.5678, uint16(5000))
	f.Add(0x1p52+3, 1.5, uint16(100))
	f.Add(1.0, 0x1p-53, uint16(9))
	f.Add(1024.0, 1.0, uint16(2000))
	f.Fuzz(func(t *testing.T, rem, c float64, n uint16) {
		checkDrain(t, rem, c, int(n))
	})
}
