// Package experiments regenerates every table and figure of the TEEM
// paper's evaluation on the simulated Exynos 5422:
//
//	Fig. 1   — motivation: ondemand+TMU vs TEEM on COVARIANCE (2L+3B,
//	           partition 1024/2048): traces and summary metrics
//	Fig. 3   — matrix scatterplot of the profiling dataset
//	Table I  — full regression model M ~ AT+ET+PT+EC
//	Table II — transformed model log10(M) ~ AT+ET
//	Fig. 4   — residuals-vs-fitted of the transformed model
//	Fig. 5   — energy (a), temperature (b), execution time (c) of
//	           EEMP/RMP/TEEM across the eight Polybench apps at 2L+4B
//	§V.D     — memory-footprint comparison (128 items vs 2)
//
// plus three ablations of the controller (threshold, δ and floor sweeps).
// Results are cached inside an Env so chained experiments don't repeat
// expensive simulation work.
//
// The Env is a parallel experiment engine: the evaluation is
// embarrassingly parallel (eight apps × three approaches, each an
// independent simulation), so Fig. 5 rows, the ablation sweep points and
// the design-space enumeration fan out across a bounded worker pool
// (Options.Workers, default one worker per CPU). Every worker simulates
// on engine state private to its job — the shared Platform and Network
// are read-only — and the caches are single-flight: concurrent callers
// asking for the same app profile or Fig. 5 mapping share one
// computation. Results are reassembled in index order, so parallel output
// is byte-identical to serial output, and an Env is safe for concurrent
// use from multiple goroutines.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"teem/internal/baseline"
	"teem/internal/core"
	"teem/internal/governor"
	"teem/internal/mapping"
	"teem/internal/par"
	"teem/internal/report"
	"teem/internal/sim"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

// Options configure an experiment environment.
type Options struct {
	// Workers bounds the parallel fan-out of Fig. 5 rows, sweep points
	// and design-space enumeration: 0 selects one worker per CPU
	// (runtime.GOMAXPROCS), 1 forces the serial path. Output is
	// byte-identical either way.
	Workers int
}

// Env is a shared, lazily evaluated experiment environment. It is safe
// for concurrent use.
type Env struct {
	Plat   *soc.Platform
	Net    *thermal.Network
	Params core.Params

	workers atomic.Int64

	mgr      *core.Manager
	profiles par.Flight[string, *core.AppModel]
	fig5     par.Flight[string, *Fig5Result] // keyed by mapping string
}

// NewEnv builds the default environment (Exynos 5422, paper parameters,
// one worker per CPU).
func NewEnv() (*Env, error) { return NewEnvWith(Options{}) }

// NewEnvWith builds the default environment with explicit options.
func NewEnvWith(o Options) (*Env, error) {
	plat := soc.Exynos5422()
	net := thermal.Exynos5422Network()
	params := core.DefaultParams()
	mgr, err := core.NewManager(plat, net, params)
	if err != nil {
		return nil, err
	}
	e := &Env{
		Plat:   plat,
		Net:    net,
		Params: params,
		mgr:    mgr,
	}
	e.SetWorkers(o.Workers)
	return e, nil
}

// SetWorkers adjusts the worker-pool bound (0 = one per CPU, 1 = serial).
// It may be called at any time, including concurrently with running
// experiments; in-flight fan-outs keep their pool size.
func (e *Env) SetWorkers(n int) { e.workers.Store(int64(n)) }

// Workers returns the configured worker-pool bound (0 = one per CPU).
func (e *Env) Workers() int { return int(e.workers.Load()) }

// Manager exposes the TEEM manager (profiled apps accumulate in it).
func (e *Env) Manager() *core.Manager { return e.mgr }

// profileApp profiles an app once and caches the model; concurrent
// callers of the same app share a single profiling pass.
func (e *Env) profileApp(app *workload.App) (*core.AppModel, error) {
	return e.profiles.Do(app.Name, func() (*core.AppModel, error) {
		return e.mgr.Profile(app)
	})
}

// TreqFor is the evaluation's performance requirement policy: 15% slack
// over the ideal balanced split at maximum frequency. For COVARIANCE this
// lands on the paper's "partition 1024" even split through Eq. (9).
func TreqFor(app *workload.App, m mapping.Mapping) float64 {
	etCPU := app.ETCPUOnly(m.Big, m.Little, 2000, 1400)
	etGPU := app.ETGPUOnly(6, 600)
	if etCPU == 0 {
		return etGPU
	}
	return 1.15 * etCPU * etGPU / (etCPU + etGPU)
}

// --- Fig. 1 -----------------------------------------------------------------

// Fig1Result holds the motivation comparison.
type Fig1Result struct {
	// Ondemand is the "existing approach" run (Fig. 1a); TEEM the
	// proposed run (Fig. 1b).
	Ondemand, TEEM *sim.Result
}

// Fig1 reproduces the motivational case study: COVARIANCE on 2L+3B with
// partition 1024 of 2048, ondemand+TMU against the TEEM controller. The
// two runs are independent and execute on the worker pool.
func (e *Env) Fig1() (*Fig1Result, error) {
	m := mapping.Mapping{Big: 3, Little: 2, UseGPU: true}
	part := mapping.Partition{Num: 4, Den: 8}
	app := workload.Covariance()

	runs := []struct {
		name string
		gov  sim.Governor
		res  *sim.Result
	}{
		{name: "ondemand", gov: governor.NewOndemand()},
		{name: "teem", gov: core.NewController(e.Params)},
	}
	if err := par.ForEach(e.Workers(), len(runs), func(i int) error {
		res, err := sim.RunWarm(sim.Config{
			Platform: e.Plat, Net: e.Net, App: app,
			Map: m, Part: part,
			Governor: runs[i].gov,
		})
		if err != nil {
			return fmt.Errorf("experiments: fig1 %s: %w", runs[i].name, err)
		}
		runs[i].res = res
		return nil
	}); err != nil {
		return nil, err
	}
	return &Fig1Result{Ondemand: runs[0].res, TEEM: runs[1].res}, nil
}

// Render returns the Fig. 1 style charts and summary.
func (r *Fig1Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 1(a) — existing approach (ondemand + TMU)\n")
	b.WriteString(r.Ondemand.Trace.RenderTempAndFreq("A15", "A15", 72, 12))
	b.WriteString("\nFig. 1(b) — proposed TEEM\n")
	b.WriteString(r.TEEM.Trace.RenderTempAndFreq("A15", "A15", 72, 12))

	t := &report.Table{
		Title:   "Fig. 1 summary (paper: ondemand 48 s / 530 J / 93.7 °C avg / 96 °C peak; TEEM 39.6 s / 413 J / 85.8 °C avg / 90 °C peak)",
		Headers: []string{"approach", "ET (s)", "energy (J)", "avg T (°C)", "peak T (°C)", "T variance", "trips", "thermal cycles ≥3°C"},
	}
	row := func(name string, res *sim.Result) {
		big := res.Trace.NodeIndex("A15")
		t.AddRow(name,
			fmt.Sprintf("%.1f", res.ExecTimeS),
			fmt.Sprintf("%.0f", res.EnergyJ),
			fmt.Sprintf("%.1f", res.AvgTempC),
			fmt.Sprintf("%.1f", res.PeakTempC),
			fmt.Sprintf("%.2f", res.TempVarC2),
			fmt.Sprintf("%d", res.ThrottleEvents),
			fmt.Sprintf("%d", res.Trace.CycleCount(big, 3)))
	}
	row("ondemand", r.Ondemand)
	row("TEEM", r.TEEM)
	b.WriteString("\n")
	b.WriteString(t.Render())
	fmt.Fprintf(&b, "\nTEEM vs ondemand: ET %s, energy %s, avg temp %+.1f °C, peak %+.1f °C\n",
		report.Pct(-report.Improvement(r.Ondemand.ExecTimeS, r.TEEM.ExecTimeS)),
		report.Pct(-report.Improvement(r.Ondemand.EnergyJ, r.TEEM.EnergyJ)),
		r.TEEM.AvgTempC-r.Ondemand.AvgTempC,
		r.TEEM.PeakTempC-r.Ondemand.PeakTempC)
	return b.String()
}

// --- Fig. 3 / Tables I & II / Fig. 4 -----------------------------------------

// ModelResult bundles the offline-modelling artefacts for one app.
type ModelResult struct {
	App   *workload.App
	Model *core.AppModel
}

// ProfileApp runs the offline phase for the named app (default of the
// paper's modelling figures: COVARIANCE).
func (e *Env) ProfileApp(name string) (*ModelResult, error) {
	app, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	am, err := e.profileApp(app)
	if err != nil {
		return nil, err
	}
	return &ModelResult{App: app, Model: am}, nil
}

// Fig3 renders the matrix scatterplot of the profiling dataset.
func (m *ModelResult) Fig3() string {
	ds := m.Model.Dataset
	names := append([]string{ds.ResponseName}, ds.PredictorNames...)
	cols := append([][]float64{ds.Response}, ds.Predictors...)
	sm := &report.ScatterMatrix{Names: names, Cols: cols}
	return fmt.Sprintf("Fig. 3 — matrix scatterplot of response and predictor variables (%s)\n%s",
		m.App.Name, sm.Render())
}

// TableI renders the full-model R summary.
func (m *ModelResult) TableI() string {
	return fmt.Sprintf("Table I — fitting the model with all the predictor variables (%s)\n%s",
		m.App.Name, m.Model.FullModel.Summary())
}

// TableII renders the transformed-model R summary.
func (m *ModelResult) TableII() string {
	return fmt.Sprintf("Table II — the transformed model (%s, outlier row %d dropped)\n%s",
		m.App.Name, m.Model.DroppedRow, m.Model.Model.Summary())
}

// Fig4 renders the residuals-vs-fitted plot of the transformed model.
func (m *ModelResult) Fig4() string {
	return "Fig. 4 — residual plot for the transformed model\n" +
		report.ResidualPlot(m.Model.Model.Fitted, m.Model.Model.Residuals, 60, 14)
}

// --- Fig. 5 -----------------------------------------------------------------

// ApproachMetrics are the per-run evaluation metrics.
type ApproachMetrics struct {
	ETS, ECJ, AvgTC, PeakTC, VarC2, GradCps float64
	DP                                      mapping.DesignPoint
}

func metricsOf(res *sim.Result, dp mapping.DesignPoint) ApproachMetrics {
	return ApproachMetrics{
		ETS: res.ExecTimeS, ECJ: res.EnergyJ,
		AvgTC: res.AvgTempC, PeakTC: res.PeakTempC,
		VarC2: res.TempVarC2, GradCps: res.TempGradCps,
		DP: dp,
	}
}

// Fig5Row is one application's comparison.
type Fig5Row struct {
	App  *workload.App
	EEMP ApproachMetrics
	RMP  ApproachMetrics
	TEEM ApproachMetrics
}

// Fig5Result is the full three-approach comparison at one CPU mapping.
type Fig5Result struct {
	Mapping mapping.Mapping
	Rows    []Fig5Row
}

// Fig5 runs (or returns cached) the Fig. 5 evaluation at the given CPU
// mapping; the paper's headline numbers use 2L+4B. The eight application
// rows are independent simulations and fan out across the worker pool;
// rows are assembled in catalog order, so the result is byte-identical to
// a serial run. Concurrent callers of the same mapping share one
// evaluation.
func (e *Env) Fig5(m mapping.Mapping) (*Fig5Result, error) {
	return e.Fig5Ctx(context.Background(), m)
}

// Fig5Ctx is Fig5 under a context: cancelling ctx stops scheduling new
// application rows (rows already in flight finish — each is a few
// independent simulations). A cancelled evaluation is forgotten by the
// single-flight cache (error path), so a later call recomputes it.
// Concurrent callers of the same mapping share one execution — and with
// it the executing caller's cancellation — so a caller whose own
// context is still live retries when the shared execution dies of
// somebody else's cancellation, instead of surfacing a spurious error.
func (e *Env) Fig5Ctx(ctx context.Context, m mapping.Mapping) (*Fig5Result, error) {
	type outcome struct {
		res *Fig5Result
		err error
	}
	for {
		// Join (or start) the shared execution without blocking past
		// our own cancellation: a caller that joined somebody else's
		// evaluation must still return the moment its ctx dies. The
		// goroutine left behind merely finishes waiting on the shared
		// result, which stays cached for future callers.
		ch := make(chan outcome, 1)
		go func() {
			res, err := e.fig5Do(ctx, m)
			ch <- outcome{res, err}
		}()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case o := <-ch:
			if o.err != nil && ctx.Err() == nil &&
				(errors.Is(o.err, context.Canceled) || errors.Is(o.err, context.DeadlineExceeded) || errors.Is(o.err, sim.ErrAborted)) {
				// The shared execution was cancelled by another
				// caller; the failed key is already forgotten, so
				// this attempt re-executes under our own, still-live
				// context.
				continue
			}
			return o.res, o.err
		}
	}
}

func (e *Env) fig5Do(ctx context.Context, m mapping.Mapping) (*Fig5Result, error) {
	return e.fig5.Do(m.String(), func() (*Fig5Result, error) {
		// Validate the mapping once, before fanning out (NewEEMP and
		// NewRMP reject unusable mappings).
		if _, err := baseline.NewEEMP(e.Plat, e.Net, m); err != nil {
			return nil, err
		}
		if _, err := baseline.NewRMP(e.Plat, e.Net, m); err != nil {
			return nil, err
		}
		apps := workload.Apps()
		out := &Fig5Result{Mapping: m, Rows: make([]Fig5Row, len(apps))}
		if err := par.ForEachCtx(ctx, e.Workers(), len(apps), func(i int) error {
			row, err := e.fig5Row(apps[i], m)
			if err != nil {
				return err
			}
			out.Rows[i] = row
			return nil
		}); err != nil {
			return nil, err
		}
		return out, nil
	})
}

// fig5Row evaluates the three approaches for one application. Each call
// builds its own baseline instances — their design-point tables are
// per-application, so nothing is lost by not sharing them — and the only
// shared mutable state, the profile cache, is single-flight.
func (e *Env) fig5Row(app *workload.App, m mapping.Mapping) (Fig5Row, error) {
	eemp, err := baseline.NewEEMP(e.Plat, e.Net, m)
	if err != nil {
		return Fig5Row{}, err
	}
	rmp, err := baseline.NewRMP(e.Plat, e.Net, m)
	if err != nil {
		return Fig5Row{}, err
	}
	treq := TreqFor(app, m)

	eres, edp, err := eemp.Run(app, treq)
	if err != nil {
		return Fig5Row{}, fmt.Errorf("experiments: fig5 EEMP %s: %w", app.Name, err)
	}
	rres, rdp, err := rmp.Run(app)
	if err != nil {
		return Fig5Row{}, fmt.Errorf("experiments: fig5 RMP %s: %w", app.Name, err)
	}
	if _, err := e.profileApp(app); err != nil {
		return Fig5Row{}, err
	}
	// Worker-private manager: a snapshot clone of the shared one, so the
	// decision and the regulated run touch no shared mutable state while
	// other rows profile into the original.
	mgr := e.mgr.Clone()
	part, err := mgr.DecidePartition(app.Name, treq)
	if err != nil {
		return Fig5Row{}, err
	}
	tm := m
	tm.UseGPU = part.Num < part.Den
	tres, err := mgr.RunAt(app, tm, part)
	if err != nil {
		return Fig5Row{}, fmt.Errorf("experiments: fig5 TEEM %s: %w", app.Name, err)
	}
	return Fig5Row{
		App:  app,
		EEMP: metricsOf(eres, edp),
		RMP:  metricsOf(rres, rdp),
		TEEM: metricsOf(tres, mapping.DesignPoint{Map: tm, Part: part}),
	}, nil
}

// avg reduces a metric over the rows.
func (r *Fig5Result) avg(get func(Fig5Row) (float64, float64, float64)) (eemp, rmp, teem float64) {
	n := float64(len(r.Rows))
	if n == 0 {
		return 0, 0, 0
	}
	for _, row := range r.Rows {
		a, b, c := get(row)
		eemp += a
		rmp += b
		teem += c
	}
	return eemp / n, rmp / n, teem / n
}

// EnergySavings returns TEEM's average fractional energy saving vs EEMP
// and RMP (paper: 28.32% and 13.97%).
func (r *Fig5Result) EnergySavings() (vsEEMP, vsRMP float64) {
	e, m, t := r.avg(func(x Fig5Row) (float64, float64, float64) { return x.EEMP.ECJ, x.RMP.ECJ, x.TEEM.ECJ })
	return report.Improvement(e, t), report.Improvement(m, t)
}

// VarianceReductions returns TEEM's average thermal-variance reduction vs
// EEMP and RMP (paper: 76% and 45% at 2L+4B; 84% and 64% at 2L+3B).
func (r *Fig5Result) VarianceReductions() (vsEEMP, vsRMP float64) {
	e, m, t := r.avg(func(x Fig5Row) (float64, float64, float64) { return x.EEMP.VarC2, x.RMP.VarC2, x.TEEM.VarC2 })
	return report.Improvement(e, t), report.Improvement(m, t)
}

// PerformanceGains returns TEEM's average execution-time improvement vs
// EEMP and RMP (paper: ~28% and ~24%).
func (r *Fig5Result) PerformanceGains() (vsEEMP, vsRMP float64) {
	e, m, t := r.avg(func(x Fig5Row) (float64, float64, float64) { return x.EEMP.ETS, x.RMP.ETS, x.TEEM.ETS })
	return report.Improvement(e, t), report.Improvement(m, t)
}

func (r *Fig5Result) chart(title, unit string, get func(Fig5Row) (float64, float64, float64)) string {
	c := &report.BarChart{
		Title:  title,
		Unit:   unit,
		Series: []string{"EEMP", "RMP", "TEEM"},
	}
	for _, row := range r.Rows {
		a, b, v := get(row)
		c.Groups = append(c.Groups, report.BarGroup{Label: row.App.Short, Values: []float64{a, b, v}})
	}
	return c.Render()
}

// RenderEnergy is Fig. 5(a).
func (r *Fig5Result) RenderEnergy() string {
	s := r.chart(fmt.Sprintf("Fig. 5(a) — energy consumption, mapping %s", r.Mapping), "J",
		func(x Fig5Row) (float64, float64, float64) { return x.EEMP.ECJ, x.RMP.ECJ, x.TEEM.ECJ })
	e, m := r.EnergySavings()
	return s + fmt.Sprintf("TEEM average energy saving: %s vs EEMP, %s vs RMP (paper: 28.32%% / 13.97%%)\n",
		report.Pct(e), report.Pct(m))
}

// RenderTemperature is Fig. 5(b).
func (r *Fig5Result) RenderTemperature() string {
	s := r.chart(fmt.Sprintf("Fig. 5(b) — average temperature, mapping %s", r.Mapping), "°C",
		func(x Fig5Row) (float64, float64, float64) { return x.EEMP.AvgTC, x.RMP.AvgTC, x.TEEM.AvgTC })
	e, m := r.VarianceReductions()
	return s + fmt.Sprintf("TEEM thermal-variance reduction: %s vs EEMP, %s vs RMP (paper: 76%% / 45%% at 2L+4B)\n",
		report.Pct(e), report.Pct(m))
}

// RenderPerformance is Fig. 5(c).
func (r *Fig5Result) RenderPerformance() string {
	s := r.chart(fmt.Sprintf("Fig. 5(c) — execution time, mapping %s", r.Mapping), "s",
		func(x Fig5Row) (float64, float64, float64) { return x.EEMP.ETS, x.RMP.ETS, x.TEEM.ETS })
	e, m := r.PerformanceGains()
	return s + fmt.Sprintf("TEEM average performance improvement: %s vs EEMP, %s vs RMP (paper: ~28%% / ~24%%)\n",
		report.Pct(e), report.Pct(m))
}

// --- §V.D memory ------------------------------------------------------------

// MemoryResult is the §V.D storage comparison.
type MemoryResult struct {
	EEMPItems, TEEMItems int
	EEMPBytes, TEEMBytes int
	ByteSaving           float64
	ItemSaving           float64
}

// Memory computes the §V.D memory-optimisation comparison.
func (e *Env) Memory() MemoryResult {
	return MemoryResult{
		EEMPItems:  mapping.EEMPStoredItems(),
		TEEMItems:  mapping.TEEMStoredItems(),
		EEMPBytes:  mapping.EEMPStorageBytes(),
		TEEMBytes:  mapping.TEEMStorageBytes(),
		ByteSaving: mapping.MemorySavingFraction(),
		ItemSaving: mapping.ItemSavingFraction(),
	}
}

// Render returns the §V.D comparison table.
func (m MemoryResult) Render() string {
	t := &report.Table{
		Title:   "§V.D — per-application storage: table-based (EEMP) vs model-based (TEEM)",
		Headers: []string{"store", "items", "bytes"},
	}
	t.AddRow("EEMP design-point table", fmt.Sprintf("%d", m.EEMPItems), fmt.Sprintf("%d", m.EEMPBytes))
	t.AddRow("TEEM model + ETGPU", fmt.Sprintf("%d", m.TEEMItems), fmt.Sprintf("%d", m.TEEMBytes))
	return t.Render() + fmt.Sprintf("memory saving: %.1f%% bytes, %.1f%% items (paper: 98.8%%, abstract: >90%%)\n",
		100*m.ByteSaving, 100*m.ItemSaving)
}

// --- ablations ----------------------------------------------------------------

// SweepPoint is one ablation sample.
type SweepPoint struct {
	Value                   float64
	ETS, ECJ, AvgTC, PeakTC float64
	VarC2                   float64
	Transitions             int
}

// runTEEMWith runs COVARIANCE (2L+4B, CPU-bound partition 5/8 so the
// regulated cluster is the execution-time pole) under modified controller
// parameters. A sweep point reads only summaries, so no trace is kept.
func (e *Env) runTEEMWith(p core.Params) (*sim.Result, error) {
	app := workload.Covariance()
	m := mapping.Mapping{Big: 4, Little: 2, UseGPU: true}
	return sim.RunWarm(sim.Config{
		Platform: e.Plat, Net: e.Net, App: app,
		Map: m, Part: mapping.Partition{Num: 5, Den: 8},
		Governor:     core.NewController(p),
		DiscardTrace: true,
	})
}

// sweep fans the ablation points out across the worker pool: every point
// is an independent simulation under modified controller parameters, and
// the result slice is assembled by index, matching the serial order.
func (e *Env) sweep(n int, modify func(i int) (value float64, p core.Params)) ([]SweepPoint, error) {
	out := make([]SweepPoint, n)
	if err := par.ForEach(e.Workers(), n, func(i int) error {
		v, p := modify(i)
		res, err := e.runTEEMWith(p)
		if err != nil {
			return err
		}
		out[i] = SweepPoint{
			Value: v, ETS: res.ExecTimeS, ECJ: res.EnergyJ,
			AvgTC: res.AvgTempC, PeakTC: res.PeakTempC, VarC2: res.TempVarC2,
			Transitions: res.FreqTransitions,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ThresholdSweep ablates the software threshold (the paper motivates
// 85 °C: higher thresholds cause frequent frequency changes, lower ones
// give up performance).
func (e *Env) ThresholdSweep(thresholds []float64) ([]SweepPoint, error) {
	if len(thresholds) == 0 {
		return nil, errors.New("experiments: empty threshold sweep")
	}
	return e.sweep(len(thresholds), func(i int) (float64, core.Params) {
		p := e.Params
		p.ThresholdC = thresholds[i]
		return thresholds[i], p
	})
}

// DeltaSweep ablates the step-down δ (paper: 200 MHz).
func (e *Env) DeltaSweep(deltasMHz []int) ([]SweepPoint, error) {
	if len(deltasMHz) == 0 {
		return nil, errors.New("experiments: empty delta sweep")
	}
	return e.sweep(len(deltasMHz), func(i int) (float64, core.Params) {
		p := e.Params
		p.DeltaMHz = deltasMHz[i]
		return float64(deltasMHz[i]), p
	})
}

// FloorSweep ablates the frequency floor (paper: 1400 MHz).
func (e *Env) FloorSweep(floorsMHz []int) ([]SweepPoint, error) {
	if len(floorsMHz) == 0 {
		return nil, errors.New("experiments: empty floor sweep")
	}
	return e.sweep(len(floorsMHz), func(i int) (float64, core.Params) {
		p := e.Params
		p.FloorMHz = floorsMHz[i]
		return float64(floorsMHz[i]), p
	})
}

// RenderSweep formats an ablation table.
func RenderSweep(title, valueName string, pts []SweepPoint) string {
	t := &report.Table{
		Title:   title,
		Headers: []string{valueName, "ET (s)", "energy (J)", "avg T", "peak T", "variance", "DVFS transitions"},
	}
	for _, p := range pts {
		t.AddRow(
			fmt.Sprintf("%g", p.Value),
			fmt.Sprintf("%.1f", p.ETS),
			fmt.Sprintf("%.0f", p.ECJ),
			fmt.Sprintf("%.1f", p.AvgTC),
			fmt.Sprintf("%.1f", p.PeakTC),
			fmt.Sprintf("%.2f", p.VarC2),
			fmt.Sprintf("%d", p.Transitions),
		)
	}
	return t.Render()
}

// Eq12Result carries the design-space counts of Eqs. (1)–(2).
type Eq12Result struct {
	CPUMappings     int
	MaxDesignPoints int
	TotalWithGrains int
	DiverseSubset   int
	// Enumerated is the point count from actually walking the design
	// space (sharded across the worker pool) — a cross-check of the
	// closed-form TotalWithGrains.
	Enumerated int
}

// DesignSpace evaluates the paper's design-space counts on the platform.
// The exhaustive enumeration that cross-checks the Eq. (2) closed form is
// sharded across the worker pool: each worker walks a disjoint interleaved
// slice of the space (mapping.Space.EnumerateShard).
func (e *Env) DesignSpace() (Eq12Result, error) {
	sp, err := mapping.NewSpace(e.Plat)
	if err != nil {
		return Eq12Result{}, err
	}
	shards := par.Normalize(e.Workers(), sp.TotalDesignPoints())
	counts := make([]int, shards)
	if err := par.ForEach(shards, shards, func(i int) error {
		sp.EnumerateShard(i, shards, func(mapping.DesignPoint) bool {
			counts[i]++
			return true
		})
		return nil
	}); err != nil {
		return Eq12Result{}, err
	}
	enumerated := 0
	for _, c := range counts {
		enumerated += c
	}
	return Eq12Result{
		CPUMappings:     sp.CountCPUMappings(),
		MaxDesignPoints: sp.MaxDesignPoints(),
		TotalWithGrains: sp.TotalDesignPoints(),
		DiverseSubset:   len(sp.DiverseSubset()),
		Enumerated:      enumerated,
	}, nil
}

// Render returns the design-space table.
func (r Eq12Result) Render() string {
	t := &report.Table{
		Title:   "Design space (paper: Eq. 1 → 24 CPU mappings; Eq. 2 → 28 560; ×9 partitions → 257 040; profiled subset 10 368)",
		Headers: []string{"quantity", "count"},
	}
	t.AddRow("Eq. (1) CPU mappings", fmt.Sprintf("%d", r.CPUMappings))
	t.AddRow("Eq. (2) max design points", fmt.Sprintf("%d", r.MaxDesignPoints))
	t.AddRow("× 9 partition grains", fmt.Sprintf("%d", r.TotalWithGrains))
	t.AddRow("enumerated (sharded walk)", fmt.Sprintf("%d", r.Enumerated))
	t.AddRow("diverse profiled subset", fmt.Sprintf("%d", r.DiverseSubset))
	return t.Render()
}
