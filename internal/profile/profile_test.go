package profile

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"teem/internal/mapping"
	"teem/internal/sim"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

func newEvaluator(t testing.TB) *Evaluator {
	t.Helper()
	ev, err := NewEvaluator(soc.Exynos5422(), thermal.Exynos5422Network())
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func dp(nB, nL, partNum, bigMHz int) mapping.DesignPoint {
	return mapping.DesignPoint{
		Map:  mapping.Mapping{Big: nB, Little: nL, UseGPU: partNum < 8},
		Freq: mapping.FreqSetting{BigMHz: bigMHz},
		Part: mapping.Partition{Num: partNum, Den: 8},
	}
}

func TestNewEvaluatorValidation(t *testing.T) {
	broken := soc.Exynos5422()
	broken.Clusters = broken.Clusters[:2]
	if _, err := NewEvaluator(broken, thermal.Exynos5422Network()); err == nil {
		t.Error("platform without GPU should be rejected")
	}
	bad := soc.Exynos5422()
	bad.Name = ""
	if _, err := NewEvaluator(bad, thermal.Exynos5422Network()); err == nil {
		t.Error("invalid platform should be rejected")
	}
}

// The evaluator resolves its nodes like the engine: a network that
// cannot carry the platform is the same sentinel error. A network
// without "pkg" used to be accepted, silently dropping the DRAM and
// board-baseline heat from every prediction.
func TestNewEvaluatorRejectsMismatchedNet(t *testing.T) {
	if _, err := NewEvaluator(soc.Exynos5410(), thermal.Exynos5422Network()); !errors.Is(err, sim.ErrPlatformNetMismatch) {
		t.Errorf("5410 on the 5422 network: %v, want ErrPlatformNetMismatch", err)
	}
	noPkg := thermal.Exynos5422Network()
	for i := range noPkg.Nodes {
		if noPkg.Nodes[i].Name == "pkg" {
			noPkg.Nodes[i].Name = "substrate"
		}
	}
	if _, err := NewEvaluator(soc.Exynos5422(), noPkg); !errors.Is(err, sim.ErrPlatformNetMismatch) {
		t.Errorf("network without pkg: %v, want ErrPlatformNetMismatch", err)
	}
}

// Analytic ET must match the workload's closed forms at the extremes.
func TestEvaluateMatchesClosedForms(t *testing.T) {
	ev := newEvaluator(t)
	cv := workload.Covariance()

	// GPU-only.
	pe, err := ev.Evaluate(cv, dp(0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if want := cv.ETGPUOnly(6, 600); math.Abs(pe.ETS-want) > 1e-9 {
		t.Errorf("GPU-only ET = %g, want %g", pe.ETS, want)
	}

	// CPU-only 4B+4L at max frequency.
	d := dp(4, 4, 8, 2000)
	d.Map.UseGPU = false
	pe, err = ev.Evaluate(cv, d)
	if err != nil {
		t.Fatal(err)
	}
	if want := cv.ETCPUOnly(4, 4, 2000, 1400); math.Abs(pe.ETS-want) > 1e-9 {
		t.Errorf("CPU-only ET = %g, want %g", pe.ETS, want)
	}
}

// Eq. (3): the split ET is the max of the chunk times.
func TestEvaluateEq3(t *testing.T) {
	ev := newEvaluator(t)
	cv := workload.Covariance()
	pe, err := ev.Evaluate(cv, dp(4, 2, 4, 2000))
	if err != nil {
		t.Fatal(err)
	}
	cpu := 1024 / cv.CPURate(4, 2, 2000, 1400)
	gpu := 1024 / cv.GPURate(6, 600)
	want := math.Max(cpu, gpu)
	if math.Abs(pe.ETS-want) > 1e-9 {
		t.Errorf("split ET = %g, want max(%g, %g)", pe.ETS, cpu, gpu)
	}
}

func TestEvaluateInfeasible(t *testing.T) {
	ev := newEvaluator(t)
	cv := workload.Covariance()
	// CPU work-items but no CPU cores.
	d := mapping.DesignPoint{
		Map:  mapping.Mapping{UseGPU: true},
		Part: mapping.Partition{Num: 4, Den: 8},
	}
	if _, err := ev.Evaluate(cv, d); err == nil {
		t.Error("CPU work without cores should error")
	}
	// GPU work-items but GPU unused.
	d = mapping.DesignPoint{
		Map:  mapping.Mapping{Big: 2},
		Part: mapping.Partition{Num: 4, Den: 8},
	}
	if _, err := ev.Evaluate(cv, d); err == nil {
		t.Error("GPU work without GPU should error")
	}
}

// Predicted steady temperature must increase with big-cluster frequency.
func TestEvaluateTempMonotoneInFrequency(t *testing.T) {
	ev := newEvaluator(t)
	cv := workload.Covariance()
	prev := -1.0
	for _, f := range []int{900, 1400, 1800, 2000} {
		pe, err := ev.Evaluate(cv, dp(4, 2, 4, f))
		if err != nil {
			t.Fatal(err)
		}
		if pe.ATC <= prev {
			t.Errorf("AT at %d MHz (%g) not above AT at lower frequency (%g)", f, pe.ATC, prev)
		}
		prev = pe.ATC
	}
}

// Higher frequency must not increase predicted ET, and energy must be
// positive.
func TestEvaluateBasicSanity(t *testing.T) {
	ev := newEvaluator(t)
	for _, app := range workload.Apps() {
		lo, err := ev.Evaluate(app, dp(4, 2, 4, 1000))
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		hi, err := ev.Evaluate(app, dp(4, 2, 4, 2000))
		if err != nil {
			t.Fatal(err)
		}
		if hi.ETS > lo.ETS+1e-9 {
			t.Errorf("%s: ET grew with frequency", app.Name)
		}
		if lo.ECJ <= 0 || hi.ECJ <= 0 {
			t.Errorf("%s: non-positive energy", app.Name)
		}
	}
}

func TestEvaluateManySkipsInfeasible(t *testing.T) {
	ev := newEvaluator(t)
	cv := workload.Covariance()
	dps := []mapping.DesignPoint{
		dp(4, 2, 4, 2000),
		{Map: mapping.Mapping{UseGPU: true}, Part: mapping.Partition{Num: 4, Den: 8}}, // infeasible
		dp(2, 2, 2, 1400),
	}
	out := ev.EvaluateMany(cv, dps)
	if len(out) != 2 {
		t.Errorf("EvaluateMany returned %d evals, want 2", len(out))
	}
}

func TestBestSelectors(t *testing.T) {
	evals := []PointEval{
		{ETS: 30, ECJ: 300},
		{ETS: 20, ECJ: 400},
		{ETS: 40, ECJ: 200},
	}
	best, err := BestByET(evals)
	if err != nil || best.ETS != 20 {
		t.Errorf("BestByET = %+v", best)
	}
	// Energy minimum under a 35 s constraint: the 300 J point.
	got, ok, err := BestByEnergy(evals, 35)
	if err != nil || !ok || got.ECJ != 300 {
		t.Errorf("BestByEnergy(35) = %+v ok=%v", got, ok)
	}
	// Unconstrained: the 200 J point.
	got, ok, _ = BestByEnergy(evals, 0)
	if !ok || got.ECJ != 200 {
		t.Errorf("BestByEnergy(0) = %+v", got)
	}
	// Impossible constraint falls back to the fastest with ok=false.
	got, ok, _ = BestByEnergy(evals, 10)
	if ok || got.ETS != 20 {
		t.Errorf("BestByEnergy(10) = %+v ok=%v", got, ok)
	}
	if _, err := BestByET(nil); err == nil {
		t.Error("BestByET on empty input should error")
	}
	if _, _, err := BestByEnergy(nil, 0); err == nil {
		t.Error("BestByEnergy on empty input should error")
	}
}

// The analytic evaluator must agree with the transient simulator on
// execution time for thermally benign points (no throttling involved).
func TestAnalyticMatchesSimulatorWhenCool(t *testing.T) {
	ev := newEvaluator(t)
	mv := workload.Mvt()
	d := dp(2, 2, 2, 1200) // low frequency, mostly GPU: cool
	pe, err := ev.Evaluate(mv, d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunWarm(sim.Config{
		Platform: ev.plat, Net: thermal.Exynos5422Network(), App: mv,
		Map: d.Map, Part: d.Part, Freq: d.Freq, HotplugUnused: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pe.ETS-res.ExecTimeS) > 0.1 {
		t.Errorf("analytic ET %g vs simulated %g", pe.ETS, res.ExecTimeS)
	}
	// Analytic steady temperature within a few degrees of the simulated
	// average.
	if math.Abs(pe.ATC-res.AvgTempC) > 6 {
		t.Errorf("analytic AT %g vs simulated avg %g", pe.ATC, res.AvgTempC)
	}
}

func TestPointEvalString(t *testing.T) {
	pe := PointEval{DP: dp(2, 1, 4, 1800), ETS: 12.3, ECJ: 456, ATC: 78.9}
	s := pe.String()
	if s == "" || len(s) < 10 {
		t.Errorf("String = %q", s)
	}
}

// Property: for any feasible grain and frequency, analytic predictions are
// finite, positive, and within physical temperature bounds.
func TestEvaluatePhysicalBoundsProperty(t *testing.T) {
	ev := newEvaluator(t)
	apps := workload.Apps()
	f := func(appIdx, grain, fIdx uint8) bool {
		app := apps[int(appIdx)%len(apps)]
		g := int(grain) % 8 // 0..7 keeps the GPU busy
		fb := 600 + 200*(int(fIdx)%8)
		pe, err := ev.Evaluate(app, dp(4, 2, g, fb))
		if err != nil {
			return false
		}
		return pe.ETS > 0 && pe.ETS < 1000 &&
			pe.ECJ > 0 && pe.ECJ < 1e5 &&
			pe.ATC > 28 && pe.ATC < 130
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
