// Package core implements TEEM, the paper's contribution: an online
// thermal- and energy-efficiency manager for CPU-GPU MPSoCs.
//
// The offline phase (Manager.Profile) evaluates design points across the
// CPU mappings 1L+1B…4L+4B, measuring average temperature (AT), execution
// time (ET), peak temperature (PT) and energy consumption (EC) per
// observation, fits the full linear model M ~ AT+ET+PT+EC (paper Table I),
// drops the masked collinear predictors and the largest outlier, and
// refits the log-transformed model log10(M) = β0 + β1·AT + β2·ET (Eq. 6,
// Table II). Only the three coefficients and the stored ETGPU survive to
// runtime — the §V.D memory claim.
//
// The online phase (Manager.Decide + Controller) selects the mapping from
// the model given the user's (TREQ, AT) requirement, derives the work-item
// partition from Eq. (9) WGCPU = 1 − TREQ/ETGPU, launches at maximum
// frequency, and then regulates: whenever a monitored sensor reaches the
// threshold (default 85 °C) the A15 cluster steps down by δ (200 MHz) but
// never below the floor (1400 MHz); when the temperature falls below the
// threshold the design point with maximum frequency is re-selected
// (Fig. 2).
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"teem/internal/mapping"
	"teem/internal/regress"
	"teem/internal/sim"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

// Params are the online controller knobs with the paper's defaults.
type Params struct {
	// ThresholdC is the software thermal threshold (paper: 85 °C).
	ThresholdC float64
	// DeltaMHz is the frequency step-down per control decision
	// (paper: 200 MHz).
	DeltaMHz int
	// FloorMHz is the lowest frequency the controller will command on
	// the big cluster (paper: 1400 MHz).
	FloorMHz int
	// PeriodS is the monitoring period.
	PeriodS float64
}

// DefaultParams returns the paper's configuration.
func DefaultParams() Params {
	return Params{ThresholdC: 85, DeltaMHz: 200, FloorMHz: 1400, PeriodS: 2.0}
}

// Validate reports an error for out-of-range parameters. The float knobs
// must be finite and positive: NaN fails every ordered comparison, so a
// NaN threshold would silently switch regulation off and a NaN or
// infinite period would reach the engine's tick conversion.
func (p Params) Validate() error {
	if !finitePositive(p.ThresholdC) {
		return fmt.Errorf("core: ThresholdC must be a finite positive temperature, got %g", p.ThresholdC)
	}
	if p.DeltaMHz <= 0 {
		return errors.New("core: DeltaMHz must be positive")
	}
	if p.FloorMHz <= 0 {
		return errors.New("core: FloorMHz must be positive")
	}
	if !finitePositive(p.PeriodS) {
		return fmt.Errorf("core: PeriodS must be a finite positive duration, got %g", p.PeriodS)
	}
	return nil
}

// finitePositive reports 0 < v < +Inf (false for NaN).
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Controller is TEEM's online thermal regulator (a sim.Governor). It
// monitors the big-CPU and GPU sensors — the two the paper reads — and
// steps only the A15 frequency, as the paper observed the LITTLE and GPU
// clusters are not the throttling bottleneck.
type Controller struct {
	// Params configure the regulation.
	Params Params

	bigName  string
	gpuName  string
	litName  string
	maxBig   int
	maxLit   int
	maxGPU   int
	floorMHz int
}

// NewController returns a controller with the given parameters.
func NewController(p Params) *Controller { return &Controller{Params: p} }

// Name implements sim.Governor.
func (c *Controller) Name() string { return "teem" }

// PeriodS implements sim.Governor.
func (c *Controller) PeriodS() float64 { return c.Params.PeriodS }

// Start implements sim.Governor: discover clusters and launch at maximum
// frequency (the Fig. 2 "execute" box).
func (c *Controller) Start(m sim.Machine) error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	p := m.Platform()
	big, lit, gpu := p.Big(), p.Little(), p.GPU()
	if big == nil || lit == nil || gpu == nil {
		return errors.New("core: controller needs big, LITTLE and GPU clusters")
	}
	c.bigName, c.litName, c.gpuName = big.Name, lit.Name, gpu.Name
	c.maxBig, c.maxLit, c.maxGPU = big.MaxFreqMHz(), lit.MaxFreqMHz(), gpu.MaxFreqMHz()
	c.floorMHz = big.CeilOPP(c.Params.FloorMHz).FreqMHz
	if err := m.SetClusterFreqMHz(c.bigName, c.maxBig); err != nil {
		return err
	}
	if err := m.SetClusterFreqMHz(c.litName, c.maxLit); err != nil {
		return err
	}
	return m.SetClusterFreqMHz(c.gpuName, c.maxGPU)
}

// Act implements sim.Governor: the Fig. 2 online loop. Both the big and
// GPU sensors are monitored (the paper reads both), but the step-down
// decision keys on the big sensor: the A15 cluster is the only actuator
// the loop drives, and it is the thermal bottleneck on this platform —
// stepping it down because the GPU is warm would sacrifice performance
// without cooling the GPU.
func (c *Controller) Act(m sim.Machine) error {
	t := m.SensorC(c.bigName)
	cur := m.ClusterFreqMHz(c.bigName)
	if t >= c.Params.ThresholdC {
		want := cur - c.Params.DeltaMHz
		if want < c.floorMHz {
			want = c.floorMHz
		}
		if want < cur {
			return m.SetClusterFreqMHz(c.bigName, want)
		}
		return nil
	}
	// Below threshold: select the design point with maximum frequency
	// so performance is not infringed.
	if cur != c.maxBig {
		return m.SetClusterFreqMHz(c.bigName, c.maxBig)
	}
	return nil
}

// QuietBand implements sim.QuietGovernor: the big sensor's side of
// ThresholdC on which Act changes nothing at the current big frequency.
// At the maximum frequency a reading below the threshold is quiet; at or
// below the floor a reading at or above it is (the step-down clamps to
// the floor). Between the two, and while the chip is throttled, no
// reading is.
func (c *Controller) QuietBand(m sim.Machine) (sensor string, thresholdC float64, quietBelow, ok bool) {
	if c.bigName == "" || m.Throttled() {
		return "", 0, false, false
	}
	switch cur := m.ClusterFreqMHz(c.bigName); {
	case cur == c.maxBig:
		return c.bigName, c.Params.ThresholdC, true, true
	case cur <= c.floorMHz:
		return c.bigName, c.Params.ThresholdC, false, true
	}
	return "", 0, false, false
}

// Observation is one offline profiling measurement.
type Observation struct {
	// Map is the profiled CPU mapping.
	Map mapping.Mapping
	// M is the response variable: the number of used big.LITTLE cores.
	M float64
	// ATC, PTC are average and peak temperature (°C); ETS execution
	// time (s); ECJ energy (J).
	ATC, PTC, ETS, ECJ float64
}

// AppModel is everything TEEM knows about one application after the
// offline phase.
type AppModel struct {
	// AppName is the Polybench name.
	AppName string
	// Model is the runtime model: log10(M) ~ AT + ET (Table II).
	Model *regress.Model
	// ETGPUSec is the stored GPU-only execution time at maximum GPU
	// frequency (Eq. 8/9).
	ETGPUSec float64

	// FullModel is the Table I fit (all four predictors), kept for
	// reporting only — it is not part of the runtime store.
	FullModel *regress.Model
	// Dataset is the profiling dataset behind Fig. 3; DroppedRow is the
	// outlier removed before the Table II refit (-1 if none).
	Dataset    *regress.Dataset
	DroppedRow int
	// Observations are the raw profiling measurements.
	Observations []Observation

	// runtime carries the Eq. (6) coefficients in the compact form the
	// store persists; always set for usable models.
	runtime *runtimeCoeffs
}

// runtimeCoeffs is the 24-byte coefficient record of the runtime store.
type runtimeCoeffs struct {
	intercept, at, et float64
}

// StorageBytes returns the runtime memory cost of the model store: three
// float64 coefficients plus the stored ETGPU (the paper's "2 items").
func (am *AppModel) StorageBytes() int { return mapping.TEEMStorageBytes() }

// PredictM evaluates the stored model: the predicted number of used
// big.LITTLE cores for a required average temperature and execution time.
func (am *AppModel) PredictM(atC, etS float64) (float64, error) {
	if am.runtime == nil {
		return 0, errors.New("core: app model not fitted")
	}
	logM := am.runtime.intercept + am.runtime.at*atC + am.runtime.et*etS
	return math.Pow(10, logM), nil
}

// Manager owns the offline profiles and makes online decisions. A
// Manager is safe for concurrent use: the model store is mutex-guarded,
// and every simulation a method launches runs on engine state private to
// that call (the shared Platform and Network are read-only during
// simulation).
type Manager struct {
	plat   *soc.Platform
	net    *thermal.Network
	params Params

	mu     sync.RWMutex
	models map[string]*AppModel //teem:guards mu
}

// NewManager builds a TEEM manager for a platform.
func NewManager(plat *soc.Platform, net *thermal.Network, params Params) (*Manager, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Manager{
		plat:   plat,
		net:    net,
		params: params,
		models: make(map[string]*AppModel),
	}, nil
}

// Model returns the stored model for an app, if profiled.
func (mg *Manager) Model(appName string) (*AppModel, bool) {
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	am, ok := mg.models[appName]
	return am, ok
}

// profileRun executes one profiling measurement at maximum frequencies
// under the firmware protection, using the paper's steady-regime protocol.
// A measurement is reduced to its summaries, so no trace is kept.
func (mg *Manager) profileRun(app *workload.App, m mapping.Mapping, part mapping.Partition) (*sim.Result, error) {
	cfg := sim.Config{
		Platform:     mg.plat,
		Net:          mg.net,
		App:          app,
		Map:          m,
		Part:         part,
		DiscardTrace: true,
	}
	return sim.RunWarm(cfg)
}

// Profile runs the offline phase for an application: 17 observations (the
// 16 mappings 1L+1B…4L+4B plus a replicate of the median mapping), the
// GPU-only ETGPU measurement, the Table I full fit, outlier drop, and the
// Table II log fit. The resulting AppModel is stored in the manager.
func (mg *Manager) Profile(app *workload.App) (*AppModel, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	big, lit := mg.plat.Big(), mg.plat.Little()
	part := mapping.Partition{Num: 4, Den: 8} // even split, the Fig. 1 setting

	var obs []Observation
	measure := func(m mapping.Mapping) error {
		res, err := mg.profileRun(app, m, part)
		if err != nil {
			return err
		}
		obs = append(obs, Observation{
			Map: m,
			M:   float64(m.CPUCores()),
			ATC: res.AvgTempC,
			PTC: res.PeakTempC,
			ETS: res.ExecTimeS,
			ECJ: res.EnergyJ,
		})
		return nil
	}
	for nl := 1; nl <= lit.NumCores; nl++ {
		for nb := 1; nb <= big.NumCores; nb++ {
			if err := measure(mapping.Mapping{Big: nb, Little: nl, UseGPU: true}); err != nil {
				return nil, err
			}
		}
	}
	// The 17th observation: replicate of the median mapping (2L+3B), as
	// the paper's dataset carries 17 observations into Table I. The
	// engine is deterministic, so the replicate is the loop's own
	// measurement; a platform too small for 2L+3B measures it here.
	median := mapping.Mapping{Big: 3, Little: 2, UseGPU: true}
	if median.Big <= big.NumCores && median.Little <= lit.NumCores {
		obs = append(obs, obs[(median.Little-1)*big.NumCores+median.Big-1])
	} else if err := measure(median); err != nil {
		return nil, err
	}

	// ETGPU at maximum GPU frequency (stored item #2).
	gpuRes, err := mg.profileRun(app, mapping.Mapping{UseGPU: true}, mapping.Partition{Num: 0, Den: 8})
	if err != nil {
		return nil, err
	}

	am, err := FitModel(app.Name, obs)
	if err != nil {
		return nil, err
	}
	am.ETGPUSec = gpuRes.ExecTimeS
	mg.mu.Lock()
	mg.models[app.Name] = am
	mg.mu.Unlock()
	return am, nil
}

// FitModel performs the paper's regression workflow on a profiling
// dataset: Table I full fit on all observations, drop the largest
// |residual| outlier, log-transform and refit AT+ET (Table II).
func FitModel(appName string, obs []Observation) (*AppModel, error) {
	if len(obs) < 6 {
		return nil, fmt.Errorf("core: %d observations are too few to fit", len(obs))
	}
	ds := &regress.Dataset{
		ResponseName:   "M",
		PredictorNames: []string{"AT", "ET", "PT", "EC"},
		Predictors:     make([][]float64, 4),
	}
	for _, o := range obs {
		ds.Response = append(ds.Response, o.M)
		ds.Predictors[0] = append(ds.Predictors[0], o.ATC)
		ds.Predictors[1] = append(ds.Predictors[1], o.ETS)
		ds.Predictors[2] = append(ds.Predictors[2], o.PTC)
		ds.Predictors[3] = append(ds.Predictors[3], o.ECJ)
	}
	full, err := regress.Fit(ds)
	if err != nil {
		return nil, fmt.Errorf("core: full model fit: %w", err)
	}
	// Drop the collinear predictors (PT, EC mask AT, ET — the paper's
	// observation from Table I), remove the worst outlier, and refit on
	// the log-transformed response.
	drop := full.MaxAbsResidualIndex()
	reduced, err := ds.Select("AT", "ET")
	if err != nil {
		return nil, err
	}
	reduced, err = reduced.DropRow(drop)
	if err != nil {
		return nil, err
	}
	logDS, err := reduced.Log10Response()
	if err != nil {
		return nil, err
	}
	model, err := regress.Fit(logDS)
	if err != nil {
		return nil, fmt.Errorf("core: transformed model fit: %w", err)
	}
	return &AppModel{
		AppName:      appName,
		Model:        model,
		FullModel:    full,
		Dataset:      ds,
		DroppedRow:   drop,
		Observations: append([]Observation(nil), obs...),
		runtime: &runtimeCoeffs{
			intercept: model.Coefficients[0].Estimate,
			at:        model.Coefficients[1].Estimate,
			et:        model.Coefficients[2].Estimate,
		},
	}, nil
}

// Decision is the outcome of the online design-point selection.
type Decision struct {
	// Map and Part form the selected design point (frequencies start
	// at maximum per Fig. 2).
	Map  mapping.Mapping
	Part mapping.Partition
	// PredictedM is the raw model output before decoding.
	PredictedM float64
	// WGCPU is the Eq. (9) CPU fraction before grain snapping.
	WGCPU float64
}

// Decide selects mapping and partition for a required execution time
// (TREQ, seconds) and average temperature (AT, °C), per the paper's online
// optimisation. The app must have been profiled.
func (mg *Manager) Decide(appName string, treqS, atC float64) (Decision, error) {
	am, ok := mg.Model(appName)
	if !ok {
		return Decision{}, fmt.Errorf("core: app %q not profiled", appName)
	}
	if treqS <= 0 {
		return Decision{}, errors.New("core: TREQ must be positive")
	}
	mHat, err := am.PredictM(atC, treqS)
	if err != nil {
		return Decision{}, err
	}
	big, lit := mg.plat.Big(), mg.plat.Little()
	dm := decodeMapping(mHat, big.NumCores, lit.NumCores)

	// Eq. (9): WGCPU = 1 − TREQ/ETGPU, valid when TREQ < ETGPU;
	// otherwise the GPU alone meets the requirement and exploiting
	// heterogeneity buys nothing (the paper's guard).
	wg := 0.0
	if treqS < am.ETGPUSec {
		wg = 1 - treqS/am.ETGPUSec
	}
	part := mapping.NearestPartition(wg)
	dm.UseGPU = part.Num < part.Den
	if dm.UseGPU == false && dm.CPUCores() == 0 {
		dm.UseGPU = true
	}
	return Decision{Map: dm, Part: part, PredictedM: mHat, WGCPU: wg}, nil
}

// decodeMapping turns the predicted core count M into a concrete mapping,
// favouring big cores (they host the OpenCL host thread) and clamping to
// the platform.
func decodeMapping(m float64, maxBig, maxLit int) mapping.Mapping {
	n := int(m + 0.5)
	if n < 1 {
		n = 1
	}
	if n > maxBig+maxLit {
		n = maxBig + maxLit
	}
	nb := (n + 1) / 2
	if nb > maxBig {
		nb = maxBig
	}
	nl := n - nb
	if nl > maxLit {
		nl = maxLit
	}
	return mapping.Mapping{Big: nb, Little: nl}
}

// DecidePartition applies only Eq. (9) for a pinned mapping: the CPU
// work-group fraction WGCPU = 1 − TREQ/ETGPU snapped to the paper's
// grains. Used when the evaluation pins the mapping (Fig. 5's 2L+4B).
func (mg *Manager) DecidePartition(appName string, treqS float64) (mapping.Partition, error) {
	am, ok := mg.Model(appName)
	if !ok {
		return mapping.Partition{}, fmt.Errorf("core: app %q not profiled", appName)
	}
	if treqS <= 0 {
		return mapping.Partition{}, errors.New("core: TREQ must be positive")
	}
	wg := 0.0
	if treqS < am.ETGPUSec {
		wg = 1 - treqS/am.ETGPUSec
	}
	return mapping.NearestPartition(wg), nil
}

// Run executes an application under TEEM end to end: decide the design
// point from (TREQ, AT), then run with the online controller using the
// steady-regime protocol. The app must have been profiled.
func (mg *Manager) Run(app *workload.App, treqS, atC float64) (*sim.Result, Decision, error) {
	dec, err := mg.Decide(app.Name, treqS, atC)
	if err != nil {
		return nil, Decision{}, err
	}
	cfg := sim.Config{
		Platform: mg.plat,
		Net:      mg.net,
		App:      app,
		Map:      dec.Map,
		Part:     dec.Part,
		Governor: NewController(mg.params),
	}
	res, err := sim.RunWarm(cfg)
	if err != nil {
		return nil, dec, err
	}
	return res, dec, nil
}

// RunAt executes an application under TEEM with an explicit design point
// (Fig. 5 pins the CPU mapping and takes the partition from
// DecidePartition). The Result carries no Trace: its callers read the
// summaries only.
func (mg *Manager) RunAt(app *workload.App, m mapping.Mapping, part mapping.Partition) (*sim.Result, error) {
	return sim.RunWarm(mg.runAtConfig(app, m, part))
}

// runAtConfig is the engine configuration RunAt executes app with.
func (mg *Manager) runAtConfig(app *workload.App, m mapping.Mapping, part mapping.Partition) sim.Config {
	return sim.Config{
		Platform:     mg.plat,
		Net:          mg.net,
		App:          app,
		Map:          m,
		Part:         part,
		Governor:     NewController(mg.params),
		DiscardTrace: true,
	}
}
