package sim

import (
	"math"
	"testing"
	"testing/quick"

	"teem/internal/mapping"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

func baseConfig() Config {
	return Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		App:      workload.Covariance(),
		Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part:     mapping.Partition{Num: 4, Den: 8},
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil platform", func(c *Config) { c.Platform = nil }},
		{"nil net", func(c *Config) { c.Net = nil }},
		{"nil app", func(c *Config) { c.App = nil }},
		{"bad mapping", func(c *Config) { c.Map = mapping.Mapping{Big: 9} }},
		{"bad partition", func(c *Config) { c.Part = mapping.Partition{Num: 9, Den: 8} }},
		{"cpu work no cores", func(c *Config) { c.Map = mapping.Mapping{UseGPU: true}; c.Part = mapping.Partition{Num: 4, Den: 8} }},
		{"gpu work no gpu", func(c *Config) { c.Map = mapping.Mapping{Big: 2}; c.Part = mapping.Partition{Num: 4, Den: 8} }},
		{"bad initial temps", func(c *Config) { c.InitialTempsC = []float64{1} }},
	}
	for _, c := range cases {
		cfg := baseConfig()
		c.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", c.name)
		}
	}
	if _, err := New(baseConfig()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestRunCompletes(t *testing.T) {
	e, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if res.ExecTimeS <= 0 || res.ExecTimeS > 500 {
		t.Errorf("ExecTimeS = %g", res.ExecTimeS)
	}
	if res.EnergyJ <= 0 {
		t.Errorf("EnergyJ = %g", res.EnergyJ)
	}
	if res.AvgPowerW < 2 || res.AvgPowerW > 15 {
		t.Errorf("AvgPowerW = %g outside the board envelope", res.AvgPowerW)
	}
	if res.PeakTempC < res.AvgTempC {
		t.Error("peak temperature below average")
	}
	if res.Trace.Len() == 0 {
		t.Error("no trace recorded")
	}
}

// Energy and execution time consistency: meter energy ≈ avg power × wall
// time covered by the meter.
func TestEnergyConsistency(t *testing.T) {
	e, _ := New(baseConfig())
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	wall := res.ExecTimeS
	approx := res.AvgPowerW * wall
	if math.Abs(res.EnergyJ-approx)/approx > 0.1 {
		t.Errorf("EnergyJ %g vs avgP×t %g differ by >10%%", res.EnergyJ, approx)
	}
}

// GPU-only execution at max frequency must match the analytic ETGPUOnly.
func TestGPUOnlyMatchesAnalytic(t *testing.T) {
	cfg := baseConfig()
	cfg.Map = mapping.Mapping{UseGPU: true}
	cfg.Part = mapping.Partition{Num: 0, Den: 8}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.App.ETGPUOnly(6, 600)
	if math.Abs(res.ExecTimeS-want) > 0.05 {
		t.Errorf("GPU-only ET = %g, want %g", res.ExecTimeS, want)
	}
}

// CPU-only execution without thermal protection at max frequency matches
// the analytic ETCPUOnly.
func TestCPUOnlyMatchesAnalytic(t *testing.T) {
	cfg := baseConfig()
	cfg.Map = mapping.Mapping{Big: 4, Little: 4}
	cfg.Part = mapping.Partition{Num: 8, Den: 8}
	cfg.DisableHWProtect = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.App.ETCPUOnly(4, 4, 2000, 1400)
	if math.Abs(res.ExecTimeS-want) > 0.05 {
		t.Errorf("CPU-only ET = %g, want %g", res.ExecTimeS, want)
	}
}

// With hardware protection enabled, a hot full-tilt run must trip and the
// trip must cap the big cluster at 900 MHz.
func TestHWProtectionTrips(t *testing.T) {
	cfg := baseConfig()
	cfg.Map = mapping.Mapping{Big: 4, Little: 4, UseGPU: true}
	cfg.App = workload.Syrk() // hottest app
	warm, err := WarmStartTemps(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.InitialTempsC = warm
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ThrottleEvents == 0 {
		t.Error("expected at least one hardware throttle event")
	}
	if res.PeakTempC > 97 {
		t.Errorf("peak temp %g far above trip point", res.PeakTempC)
	}
	// The trace must show 900 MHz episodes.
	saw900 := false
	bigIdx := res.Trace.ClusterIndex("A15")
	for _, s := range res.Trace.Samples {
		if s.FreqsMHz[bigIdx] == 900 {
			saw900 = true
			break
		}
	}
	if !saw900 {
		t.Error("trace never shows the 900 MHz hardware cap")
	}
}

// Without protection the same run must exceed the trip temperature —
// proving the protection test above is meaningful.
func TestNoProtectionOverheats(t *testing.T) {
	cfg := baseConfig()
	cfg.Map = mapping.Mapping{Big: 4, Little: 4, UseGPU: true}
	cfg.App = workload.Syrk()
	cfg.DisableHWProtect = true
	warm, err := WarmStartTemps(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.InitialTempsC = warm
	e, _ := New(cfg)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakTempC < 95 {
		t.Errorf("unprotected peak %g should exceed 95 °C", res.PeakTempC)
	}
}

// Lower frequency must not increase energy for a compute-bound app run on
// the same mapping when the time stays bounded... it trades time for
// power; here we only assert monotone execution time.
func TestFrequencyMonotoneET(t *testing.T) {
	run := func(f int) float64 {
		cfg := baseConfig()
		cfg.DisableHWProtect = true
		cfg.Freq = mapping.FreqSetting{BigMHz: f, LittleMHz: 1400, GPUMHz: 600}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTimeS
	}
	if et1000, et2000 := run(1000), run(2000); et1000 < et2000 {
		t.Errorf("ET at 1000 MHz (%g) should exceed ET at 2000 MHz (%g)", et1000, et2000)
	}
}

func TestMachineInterface(t *testing.T) {
	e, _ := New(baseConfig())
	if e.TimeS() != 0 {
		t.Error("initial time should be 0")
	}
	if e.SensorC("A15") != 28 {
		t.Errorf("initial sensor = %g, want ambient 28", e.SensorC("A15"))
	}
	if e.SensorC("nope") != 0 {
		t.Error("unknown sensor should read 0")
	}
	if e.ClusterFreqMHz("A15") != 2000 {
		t.Errorf("initial big freq = %d, want 2000 (default max)", e.ClusterFreqMHz("A15"))
	}
	if e.ClusterFreqMHz("nope") != 0 {
		t.Error("unknown cluster freq should be 0")
	}
	if err := e.SetClusterFreqMHz("A15", 1333); err != nil {
		t.Fatal(err)
	}
	if got := e.ClusterFreqMHz("A15"); got != 1300 {
		t.Errorf("freq snapped to %d, want 1300", got)
	}
	if err := e.SetClusterFreqMHz("nope", 1000); err == nil {
		t.Error("unknown cluster should error")
	}
	if e.Throttled() {
		t.Error("fresh engine should not be throttled")
	}
}

func TestWarmStartTemps(t *testing.T) {
	warm, err := WarmStartTemps(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != 4 {
		t.Fatalf("got %d temps", len(warm))
	}
	// Warm state must be meaningfully above ambient and below trip.
	if warm[0] < 50 || warm[0] > 95 {
		t.Errorf("warm big temp = %g, want 50–95", warm[0])
	}
}

// The chip's state carries across engines: an idle engine started from
// another's FinalTemps continues its trajectory, so 2 s and then 3 s of
// idle end where one 5 s idle run ends. Back-to-back runs and the gaps
// between them are chained this way (examples/campaign). Fixed ticks
// must agree exactly; supersteps plan from each engine's own start, so
// they may differ by rounding.
func TestStateCarriesAcrossEngines(t *testing.T) {
	idle := func(minTimeS float64, temps []float64, disable bool) []float64 {
		t.Helper()
		p := soc.Exynos5422()
		e, err := New(Config{
			Platform: p,
			Net:      thermal.Exynos5422Network(),
			Map:      mapping.Mapping{Big: 4, Little: 2, UseGPU: true},
			Freq: mapping.FreqSetting{
				BigMHz:    p.Big().MinFreqMHz(),
				LittleMHz: p.Little().MinFreqMHz(),
				GPUMHz:    p.GPU().MinFreqMHz(),
			},
			MinTimeS:         minTimeS,
			InitialTempsC:    temps,
			DisableSuperstep: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.FinalTemps()
	}
	hot := []float64{95, 80, 85, 75}
	for _, disable := range []bool{true, false} {
		tol := 1e-9
		if disable {
			tol = 0
		}
		whole := idle(5, hot, disable)
		chained := idle(3, idle(2, hot, disable), disable)
		for i := range whole {
			if d := math.Abs(chained[i] - whole[i]); !(d <= tol) {
				t.Errorf("DisableSuperstep=%v: node %d ends at %.15g °C chained, %.15g °C in one run (tolerance %g)",
					disable, i, chained[i], whole[i], tol)
			}
		}
		if whole[0] >= hot[0] {
			t.Errorf("DisableSuperstep=%v: idle A15 did not cool: %g °C", disable, whole[0])
		}
	}
}

// A run that never warms above 0 °C reports its real peaks: the running
// maxima used to start at 0, so such a run reported 0 °C peaks the chip
// never reached. Each node's peak must be below 0 and at least every
// recorded sample of that node, with and without supersteps.
func TestPeakTempsBelowZero(t *testing.T) {
	plat := soc.Exynos5422()
	plat.AmbientC = -20
	net := thermal.Exynos5422Network()
	start := make([]float64, len(net.Nodes))
	for i := range start {
		start[i] = -20
	}
	for _, disable := range []bool{false, true} {
		e, err := New(Config{
			Platform:         plat,
			Net:              net,
			Map:              mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
			MinTimeS:         30,
			InitialTempsC:    start,
			DisableSuperstep: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range res.PeakTempsC {
			if !(p < 0) {
				t.Errorf("DisableSuperstep=%v: node %s peak %g °C, want below 0", disable, net.Nodes[i].Name, p)
			}
			for _, s := range res.Trace.Samples {
				if s.TempsC[i] > p {
					t.Errorf("DisableSuperstep=%v: node %s sample %g °C at t=%gs above its peak %g °C",
						disable, net.Nodes[i].Name, s.TempsC[i], s.TimeS, p)
					break
				}
			}
		}
		if big := net.NodeIndex("A15"); res.PeakTempC != res.PeakTempsC[big] {
			t.Errorf("DisableSuperstep=%v: PeakTempC %g, want the A15 peak %g", disable, res.PeakTempC, res.PeakTempsC[big])
		}
	}
}

// MaxTimeS must bound runaway runs.
func TestMaxTime(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxTimeS = 1.0
	e, _ := New(cfg)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Error("1-second budget should not complete COVARIANCE")
	}
	if res.ExecTimeS > 1.05 {
		t.Errorf("aborted run reports ET %g", res.ExecTimeS)
	}
}

// Partition 0/8 and 8/8 runs must be equivalent to GPU-only and CPU-only.
func TestPartitionExtremes(t *testing.T) {
	cfg := baseConfig()
	cfg.DisableHWProtect = true
	cfg.Map = mapping.Mapping{Big: 4, Little: 4, UseGPU: true}

	cfg.Part = mapping.Partition{Num: 0, Den: 8}
	cfg.Map.UseGPU = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := e.Run()
	if math.Abs(res.ExecTimeS-cfg.App.ETGPUOnly(6, 600)) > 0.05 {
		t.Error("0/8 partition should equal GPU-only time")
	}

	cfg.Part = mapping.Partition{Num: 8, Den: 8}
	cfg.Map.UseGPU = false
	e, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, _ = e.Run()
	if math.Abs(res.ExecTimeS-cfg.App.ETCPUOnly(4, 4, 2000, 1400)) > 0.05 {
		t.Error("8/8 partition should equal CPU-only time")
	}
}

// Hotplugging unused cores must strictly reduce energy for a GPU-only run.
func TestHotplugSavesEnergy(t *testing.T) {
	run := func(hotplug bool) float64 {
		cfg := baseConfig()
		cfg.Map = mapping.Mapping{UseGPU: true}
		cfg.Part = mapping.Partition{Num: 0, Den: 8}
		cfg.HotplugUnused = hotplug
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.EnergyJ
	}
	on, off := run(false), run(true)
	if off >= on {
		t.Errorf("hotplug energy %g should be below idle-leak energy %g", off, on)
	}
}

// Property: with hardware protection enabled, no run ever exceeds the trip
// temperature by more than the overshoot of one tick, regardless of app,
// mapping or partition — the firmware safety invariant every governor
// relies on.
func TestHWProtectionSafetyProperty(t *testing.T) {
	apps := workload.Apps()
	f := func(appIdx, nB, nL, grain uint8) bool {
		app := apps[int(appIdx)%len(apps)]
		m := mapping.Mapping{
			Big:    1 + int(nB)%4,
			Little: int(nL) % 5,
		}
		part := mapping.Partition{Num: int(grain) % 9, Den: 8}
		m.UseGPU = part.Num < part.Den
		if part.Num == part.Den && m.CPUCores() == 0 {
			return true // infeasible, skip
		}
		cfg := baseConfig()
		cfg.App = app
		cfg.Map = m
		cfg.Part = part
		cfg.MaxTimeS = 30 // bound runtime; safety shows early
		warm, err := WarmStartTemps(cfg)
		if err != nil {
			return false
		}
		cfg.InitialTempsC = warm
		e, err := New(cfg)
		if err != nil {
			return false
		}
		res, err := e.Run()
		if err != nil {
			return false
		}
		// One tick at full power overshoots by well under 2 °C.
		return res.PeakTempC < cfg.Platform.TripC+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The exact propagator and the Euler reference integrator must tell the
// same story at the simulation level: identical completion, near-identical
// time/energy/temperature metrics (the integrators differ only by the
// Euler discretisation error).
func TestIntegratorsAgree(t *testing.T) {
	base := Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		App:      workload.Covariance(),
		Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part:     mapping.Partition{Num: 4, Den: 8},
	}
	run := func(integ Integrator) *Result {
		cfg := base
		cfg.Integrator = integ
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	exact := run(IntegratorExact)
	euler := run(IntegratorEuler)
	if exact.Completed != euler.Completed {
		t.Fatalf("completion mismatch: exact %v vs euler %v", exact.Completed, euler.Completed)
	}
	if d := math.Abs(exact.ExecTimeS - euler.ExecTimeS); d > 0.05 {
		t.Errorf("ExecTimeS differs by %.3f s (exact %.3f, euler %.3f)", d, exact.ExecTimeS, euler.ExecTimeS)
	}
	if d := math.Abs(exact.AvgTempC - euler.AvgTempC); d > 0.1 {
		t.Errorf("AvgTempC differs by %.3f °C (exact %.2f, euler %.2f)", d, exact.AvgTempC, euler.AvgTempC)
	}
	if d := math.Abs(exact.PeakTempC - euler.PeakTempC); d > 0.2 {
		t.Errorf("PeakTempC differs by %.3f °C (exact %.2f, euler %.2f)", d, exact.PeakTempC, euler.PeakTempC)
	}
	if rel := math.Abs(exact.EnergyJ-euler.EnergyJ) / euler.EnergyJ; rel > 0.01 {
		t.Errorf("EnergyJ differs by %.2f%% (exact %.1f, euler %.1f)", 100*rel, exact.EnergyJ, euler.EnergyJ)
	}
}
