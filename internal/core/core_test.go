package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"teem/internal/mapping"
	"teem/internal/obs"
	"teem/internal/sim"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

func newManager(t *testing.T) *Manager {
	t.Helper()
	mg, err := NewManager(soc.Exynos5422(), thermal.Exynos5422Network(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return mg
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []Params{
		{ThresholdC: 0, DeltaMHz: 200, FloorMHz: 1400, PeriodS: 1},
		{ThresholdC: 85, DeltaMHz: 0, FloorMHz: 1400, PeriodS: 1},
		{ThresholdC: 85, DeltaMHz: 200, FloorMHz: 0, PeriodS: 1},
		{ThresholdC: 85, DeltaMHz: 200, FloorMHz: 1400, PeriodS: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.ThresholdC != 85 {
		t.Errorf("threshold = %g, want the paper's 85 °C", p.ThresholdC)
	}
	if p.DeltaMHz != 200 {
		t.Errorf("delta = %d, want the paper's 200 MHz", p.DeltaMHz)
	}
	if p.FloorMHz != 1400 {
		t.Errorf("floor = %d, want the paper's 1400 MHz", p.FloorMHz)
	}
}

func TestNewManagerValidation(t *testing.T) {
	plat := soc.Exynos5422()
	net := thermal.Exynos5422Network()
	if _, err := NewManager(plat, net, Params{}); err == nil {
		t.Error("zero params should be rejected")
	}
	broken := soc.Exynos5422()
	broken.Clusters = broken.Clusters[:1]
	if _, err := NewManager(broken, net, DefaultParams()); err == nil {
		t.Error("platform without GPU should be rejected")
	}
}

// The controller must respect threshold, delta steps and the floor.
func TestControllerRegulation(t *testing.T) {
	cfg := sim.Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		App:      workload.Syrk(), // hottest app
		Map:      mapping.Mapping{Big: 4, Little: 2, UseGPU: true},
		Part:     mapping.Partition{Num: 4, Den: 8},
		Governor: NewController(DefaultParams()),
	}
	res, err := sim.RunWarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	// Peak stays in a narrow band above the threshold (the paper's
	// Fig. 1(b) overshoots to 90 °C at worst) and far below the trip.
	if res.PeakTempC > 92 {
		t.Errorf("TEEM peak %g too high", res.PeakTempC)
	}
	if res.ThrottleEvents != 0 {
		t.Errorf("TEEM should avoid hardware trips, got %d", res.ThrottleEvents)
	}
	// Frequency must never fall below the floor.
	ci := res.Trace.ClusterIndex("A15")
	for _, s := range res.Trace.Samples {
		if f := s.FreqsMHz[ci]; f < 1400 {
			t.Errorf("frequency %d below the 1400 MHz floor", f)
			break
		}
	}
}

// Steps must be multiples of delta relative to the OPP ladder: from 2000
// the sequence is 1800, 1600, 1400.
func TestControllerStepSequence(t *testing.T) {
	cfg := sim.Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		App:      workload.Syrk(),
		Map:      mapping.Mapping{Big: 4, Little: 2, UseGPU: true},
		Part:     mapping.Partition{Num: 4, Den: 8},
		Governor: NewController(DefaultParams()),
	}
	res, err := sim.RunWarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[int]bool{2000: true, 1800: true, 1600: true, 1400: true}
	ci := res.Trace.ClusterIndex("A15")
	for _, s := range res.Trace.Samples {
		if !allowed[s.FreqsMHz[ci]] {
			t.Errorf("unexpected frequency %d (must step by 200 from 2000 down to 1400)", s.FreqsMHz[ci])
			break
		}
	}
}

func TestProfileBuildsPaperShapedModel(t *testing.T) {
	mg := newManager(t)
	am, err := mg.Profile(workload.Covariance())
	if err != nil {
		t.Fatal(err)
	}
	// 17 observations (16 mappings + replicate), as the paper's Table I
	// degrees of freedom imply.
	if len(am.Observations) != 17 {
		t.Errorf("got %d observations, want 17", len(am.Observations))
	}
	// Full model: 4 predictors on 12 residual DF.
	if am.FullModel.DFModel != 4 || am.FullModel.DFResidual != 12 {
		t.Errorf("Table I df = (%d,%d), want (4,12)", am.FullModel.DFModel, am.FullModel.DFResidual)
	}
	// Transformed model: 2 predictors on 13 residual DF (16 obs).
	if am.Model.DFModel != 2 || am.Model.DFResidual != 13 {
		t.Errorf("Table II df = (%d,%d), want (2,13)", am.Model.DFModel, am.Model.DFResidual)
	}
	// Both runtime coefficients negative, as in the paper's Table II.
	at, _ := am.Model.Coef("AT")
	et, _ := am.Model.Coef("ET")
	if at.Estimate >= 0 || et.Estimate >= 0 {
		t.Errorf("AT (%g) and ET (%g) slopes should be negative", at.Estimate, et.Estimate)
	}
	// ET strongly significant; AT at least at the 5% level.
	if et.PValue > 0.001 {
		t.Errorf("ET p-value %g should be < 0.001", et.PValue)
	}
	if at.PValue > 0.05 {
		t.Errorf("AT p-value %g should be < 0.05", at.PValue)
	}
	// Good fit, as the paper reports (R² ≈ 0.92).
	if am.Model.RSquared < 0.8 {
		t.Errorf("R² = %g, want ≥ 0.8", am.Model.RSquared)
	}
	// ETGPU stored and plausible.
	if am.ETGPUSec < 60 || am.ETGPUSec > 80 {
		t.Errorf("ETGPU = %g, want ≈ 70 (COVARIANCE calibration)", am.ETGPUSec)
	}
	// Memory store: the paper's 2 items / 32 bytes.
	if am.StorageBytes() != 32 {
		t.Errorf("StorageBytes = %d, want 32", am.StorageBytes())
	}
	// The model must now be queryable through the manager.
	if _, ok := mg.Model("COVARIANCE"); !ok {
		t.Error("model not stored in manager")
	}
}

// Profile takes its 17th observation, the 2L+3B replicate, from the
// mapping loop's own measurement, which is sound only while a repeated
// run equals the first one. Re-simulating 2L+3B after the whole
// protocol must reproduce Observations[16] field for field; a
// nondeterministic model (sensor noise, say) fails here instead of
// silently duplicating a run.
func TestProfileReplicateMatchesFreshRun(t *testing.T) {
	mg := newManager(t)
	part := mapping.Partition{Num: 4, Den: 8}
	median := mapping.Mapping{Big: 3, Little: 2, UseGPU: true}
	for _, app := range workload.Apps() {
		am, err := mg.Profile(app)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mg.profileRun(app, median, part)
		if err != nil {
			t.Fatal(err)
		}
		fresh := Observation{Map: median, M: float64(median.CPUCores()),
			ATC: res.AvgTempC, PTC: res.PeakTempC, ETS: res.ExecTimeS, ECJ: res.EnergyJ}
		if got := am.Observations[16]; got != fresh {
			t.Errorf("%s: replicate %+v, a fresh 2L+3B run gives %+v", app.Name, got, fresh)
		}
	}
}

func TestFitModelRejectsTinyDatasets(t *testing.T) {
	if _, err := FitModel("x", make([]Observation, 3)); err == nil {
		t.Error("FitModel should reject < 6 observations")
	}
}

func TestDecideEq9Partition(t *testing.T) {
	mg := newManager(t)
	am, err := mg.Profile(workload.Covariance())
	if err != nil {
		t.Fatal(err)
	}
	etGPU := am.ETGPUSec

	// TREQ = ETGPU/2 → WGCPU = 0.5 → grain 4/8 (the paper's
	// "partition 1024").
	dec, err := mg.Decide("COVARIANCE", etGPU/2, 85)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Part.Num != 4 {
		t.Errorf("partition = %s, want 4/8", dec.Part)
	}
	if math.Abs(dec.WGCPU-0.5) > 1e-9 {
		t.Errorf("WGCPU = %g, want 0.5", dec.WGCPU)
	}

	// TREQ ≥ ETGPU → all GPU (the paper's Eq. 9 guard).
	dec, err = mg.Decide("COVARIANCE", etGPU*1.2, 85)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Part.Num != 0 || !dec.Map.UseGPU {
		t.Errorf("relaxed TREQ should map all work to the GPU, got %s %s", dec.Map, dec.Part)
	}

	// Tighter TREQ → larger CPU share.
	tight, _ := mg.Decide("COVARIANCE", etGPU/4, 85)
	loose, _ := mg.Decide("COVARIANCE", etGPU/2, 85)
	if tight.Part.Num <= loose.Part.Num {
		t.Errorf("tighter TREQ should shift work to the CPU: %s vs %s", tight.Part, loose.Part)
	}
}

func TestDecideErrors(t *testing.T) {
	mg := newManager(t)
	if _, err := mg.Decide("COVARIANCE", 10, 85); err == nil {
		t.Error("Decide before Profile should error")
	}
	if _, err := mg.Profile(workload.Covariance()); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.Decide("COVARIANCE", -1, 85); err == nil {
		t.Error("Decide should reject non-positive TREQ")
	}
	if _, err := mg.DecidePartition("nope", 10); err == nil {
		t.Error("DecidePartition for unknown app should error")
	}
	if _, err := mg.DecidePartition("COVARIANCE", 0); err == nil {
		t.Error("DecidePartition should reject zero TREQ")
	}
}

func TestDecodeMapping(t *testing.T) {
	cases := []struct {
		m       float64
		wantBig int
		wantLit int
	}{
		{0.4, 1, 0}, // clamps up to one core
		{2, 1, 1},
		{5, 3, 2}, // the paper's 2L+3B
		{8, 4, 4},
		{20, 4, 4}, // clamps to platform
	}
	for _, c := range cases {
		got := decodeMapping(c.m, 4, 4)
		if got.Big != c.wantBig || got.Little != c.wantLit {
			t.Errorf("decodeMapping(%g) = %s, want %dL+%dB", c.m, got, c.wantLit, c.wantBig)
		}
	}
}

func TestPredictMUnfitted(t *testing.T) {
	am := &AppModel{}
	if _, err := am.PredictM(85, 30); err == nil {
		t.Error("PredictM on empty model should error")
	}
}

func TestManagerRunEndToEnd(t *testing.T) {
	mg := newManager(t)
	app := workload.Covariance()
	am, err := mg.Profile(app)
	if err != nil {
		t.Fatal(err)
	}
	res, dec, err := mg.Run(app, am.ETGPUSec/2, 85)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("TEEM run did not complete")
	}
	// The whole point: average temperature regulated near the
	// threshold.
	if res.AvgTempC > 88.5 {
		t.Errorf("TEEM average temperature %g too far above the 85 °C threshold", res.AvgTempC)
	}
	if res.ThrottleEvents != 0 {
		t.Error("TEEM should not rely on hardware throttling")
	}
	if dec.Part.Num == 0 {
		t.Error("half-ETGPU TREQ should use the CPU")
	}
}

// RunAt must honour an explicitly pinned design point (the Fig. 1 setup).
func TestRunAtPinned(t *testing.T) {
	mg := newManager(t)
	res, err := mg.RunAt(workload.Covariance(),
		mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		mapping.Partition{Num: 4, Den: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("pinned run did not complete")
	}
	if res.AvgTempC > 88.5 || res.PeakTempC > 92 {
		t.Errorf("pinned TEEM run temps avg=%g peak=%g out of regulation band", res.AvgTempC, res.PeakTempC)
	}
}

// Fig. 5 reads only the summaries of RunAt, so it keeps no trace: its
// Result carries a nil Trace and equals a traced run of the same
// configuration on every other field but the flight recorder.
func TestRunAtDiscardsTrace(t *testing.T) {
	mg := newManager(t)
	app, m, part := workload.Covariance(), mapping.Mapping{Big: 4, Little: 2, UseGPU: true}, mapping.Partition{Num: 5, Den: 8}
	res, err := mg.RunAt(app, m, part)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("RunAt kept a trace")
	}
	cfg := mg.runAtConfig(app, m, part)
	cfg.DiscardTrace = false
	traced, err := sim.RunWarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil {
		t.Fatal("the traced reference run has no trace")
	}
	got, want := *res, *traced
	got.Stats, want.Stats = obs.RunStats{}, obs.RunStats{}
	want.Trace = nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results differ from a traced run:\ngot  %+v\nwant %+v", got, want)
	}
}

// Nothing is hard-wired to the Exynos 5422: the full offline+online
// pipeline runs on the 5410 preset with its own thermal topology and
// 90 °C/800 MHz firmware protection.
func TestPipelineOnExynos5410(t *testing.T) {
	plat := soc.Exynos5410()
	net := &thermal.Network{
		Nodes: []thermal.Node{
			{Name: "A15", HeatCapJ: 1.0},
			{Name: "A7", HeatCapJ: 0.5},
			{Name: "SGX544", HeatCapJ: 1.0},
			{Name: "pkg", HeatCapJ: 1.5},
		},
		Links: []thermal.Link{
			{A: 0, B: 3, ResCW: 4.5},
			{A: 1, B: 3, ResCW: 5.0},
			{A: 2, B: 3, ResCW: 3.5},
			{A: 3, B: thermal.Ambient, ResCW: 8.0},
		},
	}
	params := DefaultParams()
	params.ThresholdC = 80 // below the 5410's 90 °C trip
	params.FloorMHz = 1000
	mg, err := NewManager(plat, net, params)
	if err != nil {
		t.Fatal(err)
	}
	app := workload.Covariance()
	am, err := mg.Profile(app)
	if err != nil {
		t.Fatal(err)
	}
	if am.ETGPUSec <= 0 {
		t.Fatal("no ETGPU measured on 5410")
	}
	res, dec, err := mg.Run(app, am.ETGPUSec/2, params.ThresholdC)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("5410 run did not complete")
	}
	if res.PeakTempC >= plat.TripC {
		t.Errorf("TEEM on 5410 peaked at %.1f, trip is %.0f", res.PeakTempC, plat.TripC)
	}
	if dec.Map.CPUCores() == 0 && dec.Part.Num > 0 {
		t.Error("inconsistent 5410 decision")
	}
}

// NaN fails every ordered comparison, so a `<= 0` guard accepted a NaN
// threshold (regulation silently off) and a NaN or infinite period (an
// implementation-defined tick conversion in the engine). Each rejection
// must name its field.
func TestParamsValidateRejectsNonFinite(t *testing.T) {
	cases := []struct {
		field string
		mut   func(*Params)
	}{
		{"ThresholdC", func(p *Params) { p.ThresholdC = math.NaN() }},
		{"ThresholdC", func(p *Params) { p.ThresholdC = math.Inf(1) }},
		{"ThresholdC", func(p *Params) { p.ThresholdC = math.Inf(-1) }},
		{"PeriodS", func(p *Params) { p.PeriodS = math.NaN() }},
		{"PeriodS", func(p *Params) { p.PeriodS = math.Inf(1) }},
		{"PeriodS", func(p *Params) { p.PeriodS = math.Inf(-1) }},
	}
	for _, c := range cases {
		p := DefaultParams()
		c.mut(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("non-finite %s accepted: %+v", c.field, p)
			continue
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("error %q does not name %s", err, c.field)
		}
	}
}
