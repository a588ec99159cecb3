// Tests of the public facade: everything a downstream user touches goes
// through package teem, so these tests double as API contract checks.
package teem_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"teem"
)

func TestPublicPipeline(t *testing.T) {
	plat := teem.Exynos5422()
	net := teem.Exynos5422Thermal()
	mgr, err := teem.NewManager(plat, net, teem.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	app := teem.Covariance()
	model, err := mgr.Profile(app)
	if err != nil {
		t.Fatal(err)
	}
	if model.StorageBytes() != 32 {
		t.Errorf("StorageBytes = %d, want 32", model.StorageBytes())
	}
	res, dec, err := mgr.Run(app, model.ETGPUSec/2, 85)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.ThrottleEvents != 0 {
		t.Errorf("public pipeline run: completed=%v trips=%d", res.Completed, res.ThrottleEvents)
	}
	if dec.Part.Num != 4 {
		t.Errorf("half-ETGPU TREQ should give the even split, got %s", dec.Part)
	}
}

func TestPublicGovernorsRun(t *testing.T) {
	cfg := teem.SimConfig{
		Platform: teem.Exynos5422(),
		Net:      teem.Exynos5422Thermal(),
		App:      teem.Covariance(),
		Map:      teem.Mapping{Big: 2, Little: 2, UseGPU: true},
		Part:     teem.Partition{Num: 2, Den: 8},
	}
	for _, g := range []teem.Governor{
		teem.NewOndemand(),
		teem.NewPerformance(),
		teem.NewConservative(),
		teem.NewUserspace(1500, 1000, 480),
		teem.NewController(teem.DefaultParams()),
	} {
		cfg.Governor = g
		res, err := teem.RunWarm(cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if !res.Completed {
			t.Errorf("%s: run did not complete", g.Name())
		}
	}
}

func TestPublicBaselines(t *testing.T) {
	plat := teem.Exynos5422()
	net := teem.Exynos5422Thermal()
	m := teem.Mapping{Big: 4, Little: 2, UseGPU: true}
	eemp, err := teem.NewEEMP(plat, net, m)
	if err != nil {
		t.Fatal(err)
	}
	if eemp.StoredItems() != 128 {
		t.Errorf("EEMP items = %d", eemp.StoredItems())
	}
	rmp, err := teem.NewRMP(plat, net, m)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := rmp.Decide(teem.Covariance())
	if err != nil {
		t.Fatal(err)
	}
	if dp.Part.Num == 0 {
		t.Error("RMP should split COVARIANCE")
	}
}

func TestPublicKernels(t *testing.T) {
	k, err := teem.NewKernel("GEMM", 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := teem.RunPartitioned(k, 0.5, 2); err != nil {
		t.Fatal(err)
	}
	ref, _ := teem.NewKernel("GEMM", 16)
	ref.RunRows(0, ref.Rows())
	if k.Checksum() != ref.Checksum() {
		t.Error("partitioned checksum differs")
	}
}

func TestPublicDesignSpace(t *testing.T) {
	sp, err := teem.NewSpace(teem.Exynos5422())
	if err != nil {
		t.Fatal(err)
	}
	if sp.MaxDesignPoints() != 28560 {
		t.Errorf("Eq. 2 = %d", sp.MaxDesignPoints())
	}
	if len(teem.Partitions()) != 9 {
		t.Error("partition grains != 9")
	}
	if p := teem.NearestPartition(0.5); p.Num != 4 {
		t.Errorf("NearestPartition(0.5) = %s", p)
	}
}

func TestPublicRegression(t *testing.T) {
	d := &teem.Dataset{
		ResponseName:   "y",
		Response:       []float64{2.1, 3.9, 6.2, 7.8, 10.1},
		PredictorNames: []string{"x"},
		Predictors:     [][]float64{{1, 2, 3, 4, 5}},
	}
	m, err := teem.FitRegression(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coefficients[1].Estimate-1.99) > 1e-9 {
		t.Errorf("slope = %g", m.Coefficients[1].Estimate)
	}
	if !strings.Contains(m.Summary(), "R-squared") {
		t.Error("summary incomplete")
	}
}

func TestPublicSecondPlatform(t *testing.T) {
	p := teem.Exynos5410()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The design-space formulas apply to the 5410 too.
	sp, err := teem.NewSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. (2): (4·11 + 4·11 + 4·11·4·11) × 5 = (44+44+1936)×5 = 10120.
	if got := sp.MaxDesignPoints(); got != 10120 {
		t.Errorf("5410 design points = %d, want 10120", got)
	}
}

func TestPublicTraceCSV(t *testing.T) {
	cfg := teem.SimConfig{
		Platform: teem.Exynos5422(),
		Net:      teem.Exynos5422Thermal(),
		App:      teem.Covariance(),
		Map:      teem.Mapping{Big: 2, Little: 2, UseGPU: true},
		Part:     teem.Partition{Num: 2, Den: 8},
		MaxTimeS: 3,
	}
	e, err := teem.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "temp_A15_C") {
		t.Error("CSV header missing")
	}
}

func TestPublicStoreRoundTrip(t *testing.T) {
	mgr, err := teem.NewManager(teem.Exynos5422(), teem.Exynos5422Thermal(), teem.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Profile(teem.Covariance()); err != nil {
		t.Fatal(err)
	}
	st, err := mgr.Export()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := teem.LoadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mgr2, err := teem.NewManager(teem.Exynos5422(), teem.Exynos5422Thermal(), teem.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr2.Import(loaded); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr2.Decide("COVARIANCE", 35, 85); err != nil {
		t.Fatal(err)
	}
}

func TestPublicPlatformJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := teem.Exynos5422().Save(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := teem.LoadPlatform(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "Exynos5422" {
		t.Errorf("loaded %q", p.Name)
	}
	var nb bytes.Buffer
	if err := teem.Exynos5422Thermal().Save(&nb); err != nil {
		t.Fatal(err)
	}
	n, err := teem.LoadThermalNetwork(&nb)
	if err != nil {
		t.Fatal(err)
	}
	if n.NodeIndex("pkg") < 0 {
		t.Error("loaded network missing pkg node")
	}
}
