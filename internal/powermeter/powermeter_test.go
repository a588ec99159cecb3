package powermeter

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstantPowerEnergy(t *testing.T) {
	m := New()
	for i := 0; i <= 1000; i++ {
		if err := m.Observe(float64(i)*0.01, 5.0); err != nil {
			t.Fatal(err)
		}
	}
	// Samples at t=0..10 inclusive → 11 samples of 5 W × 1 s.
	if n := m.n; n != 11 {
		t.Errorf("got %d samples, want 11", n)
	}
	if got := m.EnergyJ(); math.Abs(got-55) > 1e-9 {
		t.Errorf("EnergyJ = %g, want 55", got)
	}
	if got := m.AvgPowerW(); math.Abs(got-5) > 1e-9 {
		t.Errorf("AvgPowerW = %g, want 5", got)
	}
}

func TestQuantization(t *testing.T) {
	m := New()
	if err := m.Observe(0, 5.123456); err != nil {
		t.Fatal(err)
	}
	if m.n != 1 || math.Abs(m.AvgPowerW()-5.12) > 1e-12 {
		t.Errorf("%d samples averaging %g W, want one of 5.12 W", m.n, m.AvgPowerW())
	}
	raw := &Meter{PeriodS: 1}
	if err := raw.Observe(0, 5.123456); err != nil {
		t.Fatal(err)
	}
	if raw.AvgPowerW() != 5.123456 {
		t.Error("zero resolution should not quantise")
	}
}

func TestObserveValidation(t *testing.T) {
	bad := &Meter{PeriodS: 0}
	if err := bad.Observe(0, 1); err == nil {
		t.Error("zero period should error")
	}
	m := New()
	if err := m.Observe(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Observe(4, 1); err == nil {
		t.Error("time going backwards should error")
	}
}

func TestSparseObservationsCatchUp(t *testing.T) {
	m := &Meter{PeriodS: 1}
	// A single late observation at t=3.5 latches samples for t=0,1,2,3.
	if err := m.Observe(3.5, 4); err != nil {
		t.Fatal(err)
	}
	if n := m.n; n != 4 {
		t.Errorf("got %d samples, want 4", n)
	}
}

// Property: energy equals period × sum of samples, and the sample count
// grows like floor(t/period)+1.
func TestMeterInvariantsProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		m := &Meter{PeriodS: 1}
		tm := 0.0
		for _, s := range steps {
			tm += float64(s%40) / 10
			if err := m.Observe(tm, 3.0); err != nil {
				return false
			}
		}
		want := int(math.Floor(tm)) + 1
		if len(steps) == 0 {
			want = 0
		}
		if m.n != want {
			return false
		}
		return math.Abs(m.EnergyJ()-3.0*float64(want)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Robust accepts a power whose whole tolerance band quantises to one
// sample and rejects one within the band of a rounding boundary; with
// no quantisation nothing is robust.
func TestRobust(t *testing.T) {
	m := New()
	for _, c := range []struct {
		p    float64
		want bool
	}{
		{5.123456, true},
		{5.12, true},
		{5.125, false},
		{5.1250009, false},
		{5.1249991, false},
		{5.1250011, true},
		{5.1249989, true},
	} {
		if got := m.Robust(c.p, 1e-4); got != c.want {
			t.Errorf("Robust(%v) = %v, want %v", c.p, got, c.want)
		}
		if !c.want {
			continue
		}
		// A robust value quantises like every value in its band.
		lo, hi := m.quantize(c.p-0.99e-6), m.quantize(c.p+0.99e-6)
		if q := m.quantize(c.p); q != lo || q != hi {
			t.Errorf("%v quantises to %v, its band to %v and %v", c.p, q, lo, hi)
		}
	}
	if (&Meter{PeriodS: 1}).Robust(5.123456, 1e-4) {
		t.Error("a meter without quantisation called a value robust")
	}
}
