package workload

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCatalogValid(t *testing.T) {
	apps := Apps()
	if len(apps) != 8 {
		t.Fatalf("catalog has %d apps, want 8", len(apps))
	}
	seen := map[string]bool{}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
		if seen[a.Short] {
			t.Errorf("duplicate short code %s", a.Short)
		}
		seen[a.Short] = true
	}
}

// Every catalog app is found by its name and by its short code, and each
// lookup builds a fresh app: a caller that mutates one does not change
// the next.
func TestLookups(t *testing.T) {
	for _, want := range Apps() {
		byName, err := ByName(want.Name)
		if err != nil || !reflect.DeepEqual(byName, want) {
			t.Errorf("ByName(%s) = %+v, %v; want %+v", want.Name, byName, err, want)
		}
		byShort, err := ByShort(want.Short)
		if err != nil || !reflect.DeepEqual(byShort, want) {
			t.Errorf("ByShort(%s) = %+v, %v; want %+v", want.Short, byShort, err, want)
		}
		if byName == byShort {
			t.Errorf("%s: ByName and ByShort returned the same *App", want.Name)
		}
		byName.WorkItems, byName.BigSecPerWI = 1, 99
		if again, err := ByName(want.Name); err != nil || !reflect.DeepEqual(again, want) {
			t.Errorf("ByName(%s) after mutating an earlier result = %+v, %v", want.Name, again, err)
		}
	}
	// GE is the paper's in-text alias for GEMM.
	ge, err := ByShort("GE")
	if err != nil || ge.Name != "GEMM" {
		t.Errorf("ByShort(GE) = %v, %v; want GEMM", ge, err)
	}
	if _, err := ByShort("XX"); err == nil {
		t.Error("ByShort should reject unknown code")
	}
	cv, err := ByName("COVARIANCE")
	if err != nil || cv.Short != "CV" {
		t.Errorf("ByName(COVARIANCE) = %v, %v", cv, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName should reject unknown name")
	}
}

// The calibrated execution-time anchors: whole-NDRange times at maximum
// frequency must land where the catalog doc says (paper Fig. 5c band).
func TestCalibratedExecutionTimes(t *testing.T) {
	cases := []struct {
		code    string
		wantCPU float64 // 4 big @2000 + 4 LITTLE @1400
		wantGPU float64 // 6 shaders @600
	}{
		{"2D", 55, 22}, {"CV", 48, 70}, {"CR", 50, 72}, {"GM", 64, 28},
		{"2M", 45, 35}, {"MV", 38, 48}, {"S2", 55, 50}, {"SR", 35, 38},
	}
	for _, c := range cases {
		a, err := ByShort(c.code)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.ETCPUOnly(4, 4, 2000, 1400); math.Abs(got-c.wantCPU) > 0.01 {
			t.Errorf("%s: ETCPUOnly = %.2f, want %.2f", c.code, got, c.wantCPU)
		}
		if got := a.ETGPUOnly(6, 600); math.Abs(got-c.wantGPU) > 0.01 {
			t.Errorf("%s: ETGPUOnly = %.2f, want %.2f", c.code, got, c.wantGPU)
		}
	}
}

// GPU-friendliness ordering from the paper: 2DCONV and GEMM must prefer the
// GPU strongly; SYRK must be CPU-competitive.
func TestAffinityShape(t *testing.T) {
	speedup := func(code string) float64 {
		a, _ := ByShort(code)
		return a.ETCPUOnly(4, 4, 2000, 1400) / a.ETGPUOnly(6, 600)
	}
	if s := speedup("2D"); s < 2 {
		t.Errorf("2DCONV GPU speedup = %.2f, want ≥ 2", s)
	}
	if s := speedup("GM"); s < 2 {
		t.Errorf("GEMM GPU speedup = %.2f, want ≥ 2", s)
	}
	if s := speedup("SR"); s > 1.1 {
		t.Errorf("SYRK GPU speedup = %.2f, want ≤ 1.1 (CPU-competitive)", s)
	}
}

func TestRooflineFrequencyScaling(t *testing.T) {
	cv, _ := ByShort("CV")
	// Compute-dominated portion scales; memory portion doesn't.
	tMax := cv.BigSecAt(2000)
	tHalf := cv.BigSecAt(1000)
	// With m = 0.25: t(1000) = 0.75·t·2 + 0.25·t = 1.75·t(2000).
	if r := tHalf / tMax; math.Abs(r-1.75) > 1e-9 {
		t.Errorf("roofline ratio = %g, want 1.75", r)
	}
	mv, _ := ByShort("MV")
	// Memory-bound app scales much worse.
	rMV := mv.BigSecAt(1000) / mv.BigSecAt(2000)
	rCV := tHalf / tMax
	if rMV >= rCV {
		t.Errorf("MVT slowdown %g should be below CV slowdown %g (memory bound)", rMV, rCV)
	}
}

func TestRatesAdditive(t *testing.T) {
	cv, _ := ByShort("CV")
	bigOnly := cv.CPURate(4, 0, 2000, 1400)
	litOnly := cv.CPURate(0, 4, 2000, 1400)
	both := cv.CPURate(4, 4, 2000, 1400)
	if math.Abs(both-(bigOnly+litOnly)) > 1e-12 {
		t.Errorf("rates not additive: %g + %g != %g", bigOnly, litOnly, both)
	}
	if bigOnly <= litOnly {
		t.Error("big cores should outperform LITTLE cores")
	}
}

func TestZeroResourceRates(t *testing.T) {
	cv, _ := ByShort("CV")
	if r := cv.CPURate(0, 0, 2000, 1400); r != 0 {
		t.Errorf("CPURate with no cores = %g", r)
	}
	if r := cv.GPURate(0, 600); r != 0 {
		t.Errorf("GPURate with no shaders = %g", r)
	}
	if et := cv.ETCPUOnly(0, 0, 2000, 1400); et != 0 {
		t.Errorf("ETCPUOnly with no cores = %g (sentinel should be 0)", et)
	}
	if et := cv.ETGPUOnly(0, 600); et != 0 {
		t.Errorf("ETGPUOnly with no shaders = %g", et)
	}
}

func TestMemGBs(t *testing.T) {
	cv, _ := ByShort("CV")
	got := cv.MemGBs(40) // 40 WI/s × 25 MB = 1 GB/s
	if math.Abs(got-1.0) > 1e-9 {
		t.Errorf("MemGBs(40) = %g, want 1.0", got)
	}
}

func TestValidateRejectsBadApps(t *testing.T) {
	mk := func(mut func(*App)) *App {
		a := Covariance()
		mut(a)
		return a
	}
	bad := []*App{
		mk(func(a *App) { a.Name = "" }),
		mk(func(a *App) { a.WorkItems = 0 }),
		mk(func(a *App) { a.BigSecPerWI = 0 }),
		mk(func(a *App) { a.RefGPUMHz = 0 }),
		mk(func(a *App) { a.MemBoundCPU = 1 }),
		mk(func(a *App) { a.MemBoundGPU = -0.1 }),
		mk(func(a *App) { a.ActivityCPU = 0 }),
		mk(func(a *App) { a.ActivityGPU = 1.5 }),
		mk(func(a *App) { a.MemBytesPerWI = -1 }),
		mk(func(a *App) { a.GPUParallelEff = 0 }),
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid app", i)
		}
	}
}

// Property: execution time decreases (weakly) with frequency and with core
// count for every catalog app.
func TestETMonotoneProperty(t *testing.T) {
	apps := Apps()
	f := func(appIdx uint8, f1, f2 uint16, n1, n2 uint8) bool {
		a := apps[int(appIdx)%len(apps)]
		fa := 200 + int(f1)%1801
		fb := 200 + int(f2)%1801
		if fa > fb {
			fa, fb = fb, fa
		}
		na := 1 + int(n1)%4
		nb := 1 + int(n2)%4
		if na > nb {
			na, nb = nb, na
		}
		etSlow := a.ETCPUOnly(na, 0, fa, 1400)
		etFast := a.ETCPUOnly(nb, 0, fb, 1400)
		return etFast <= etSlow+1e-9 && etFast > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Eq. (3) of the paper — for any split, the max of chunk times is
// at least the perfectly balanced lower bound and at most the single-sided
// time.
func TestPartitionBoundsProperty(t *testing.T) {
	apps := Apps()
	f := func(appIdx uint8, fracRaw uint8) bool {
		a := apps[int(appIdx)%len(apps)]
		w := float64(fracRaw%9) / 8 // the paper's 9 partition grains
		etCPU := a.ETCPUOnly(4, 4, 2000, 1400)
		etGPU := a.ETGPUOnly(6, 600)
		// Eq. (3): ET = max(w·ETCPU, (1−w)·ETGPU).
		et := math.Max(w*etCPU, (1-w)*etGPU)
		// Balanced optimum: etCPU·etGPU/(etCPU+etGPU).
		lower := etCPU * etGPU / (etCPU + etGPU)
		upper := math.Max(etCPU, etGPU)
		return et >= lower-1e-9 && et <= upper+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
