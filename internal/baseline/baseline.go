// Package baseline implements the two comparison approaches of the TEEM
// paper's evaluation:
//
//   - EEMP (Singh et al. [15]): energy-efficient run-time mapping and
//     thread partitioning. Offline it evaluates and stores a 128-entry
//     design-point table per application (8 partition grains × 16 big-
//     cluster OPPs); at runtime it picks the lowest-predicted-energy entry
//     meeting the performance constraint, executes at the selected
//     voltage/frequency and powers off unused cores. It has no thermal
//     management — the firmware TMU is its only protection, which is the
//     failure mode the paper exposes.
//
//   - RMP (Wachter et al. [9]): reliable (temperature-aware) mapping and
//     partitioning. If running entirely on the GPU costs only a modest
//     performance trade-off, the application is mapped GPU-only (the
//     cooler choice); otherwise the work-item partition with minimal
//     performance infringement is selected, temperature-breaking ties.
//     There is no online optimisation: the design point is fixed before
//     execution.
package baseline

import (
	"errors"
	"fmt"

	"teem/internal/governor"
	"teem/internal/mapping"
	"teem/internal/profile"
	"teem/internal/sim"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

// EEMP is the energy-efficient mapping and partitioning baseline.
type EEMP struct {
	plat *soc.Platform
	net  *thermal.Network
	ev   *profile.Evaluator
	// Map is the CPU mapping the table is built for (the paper's
	// evaluation pins 2L+4B).
	Map mapping.Mapping

	tables map[string][]profile.PointEval
}

// NewEEMP builds the baseline for a platform and CPU mapping.
func NewEEMP(plat *soc.Platform, net *thermal.Network, m mapping.Mapping) (*EEMP, error) {
	ev, err := profile.NewEvaluator(plat, net)
	if err != nil {
		return nil, err
	}
	big, lit := plat.Big(), plat.Little()
	if err := m.Validate(big.NumCores, lit.NumCores); err != nil {
		return nil, err
	}
	if m.CPUCores() == 0 {
		return nil, errors.New("baseline: EEMP mapping needs CPU cores")
	}
	return &EEMP{plat: plat, net: net, ev: ev, Map: m, tables: map[string][]profile.PointEval{}}, nil
}

// tableFreqsMHz are the 16 big-cluster OPPs of the stored table
// (500–2000 MHz); with the 8 partition grains that keep the GPU busy this
// yields the paper's 128 stored design points per application.
func tableFreqsMHz() []int {
	fs := make([]int, 0, 16)
	for f := 500; f <= 2000; f += 100 {
		fs = append(fs, f)
	}
	return fs
}

// BuildTable evaluates and stores the 128-entry design-point table for an
// application (the offline phase of [15]).
func (e *EEMP) BuildTable(app *workload.App) ([]profile.PointEval, error) {
	if t, ok := e.tables[app.Name]; ok {
		return t, nil
	}
	var dps []mapping.DesignPoint
	for _, part := range mapping.Partitions() {
		if part.Num == part.Den {
			continue // CPU-only grain excluded: EEMP always co-runs the GPU
		}
		for _, f := range tableFreqsMHz() {
			m := e.Map
			m.UseGPU = true
			dps = append(dps, mapping.DesignPoint{
				Map:  m,
				Freq: mapping.FreqSetting{BigMHz: f, LittleMHz: 0, GPUMHz: 0},
				Part: part,
			})
		}
	}
	if len(dps) != mapping.EEMPTableEntries {
		return nil, fmt.Errorf("baseline: table has %d entries, want %d", len(dps), mapping.EEMPTableEntries)
	}
	t := e.ev.EvaluateMany(app, dps)
	if len(t) != mapping.EEMPTableEntries {
		return nil, fmt.Errorf("baseline: only %d of %d table entries were feasible", len(t), mapping.EEMPTableEntries)
	}
	e.tables[app.Name] = t
	return t, nil
}

// Decide selects the design point: minimum predicted energy subject to the
// performance constraint treqS (0 = unconstrained, pure energy minimum).
// Per [15]'s dynamic power management the execution always happens at the
// maximum voltage/frequency with unused cores off, so the runtime choice
// is among the table's maximum-frequency rows; the lower-frequency rows
// are part of the stored offline characterisation (§V.D counts them).
func (e *EEMP) Decide(app *workload.App, treqS float64) (mapping.DesignPoint, error) {
	t, err := e.BuildTable(app)
	if err != nil {
		return mapping.DesignPoint{}, err
	}
	maxB := e.plat.Big().MaxFreqMHz()
	var atMax []profile.PointEval
	for _, pe := range t {
		if pe.DP.Freq.BigMHz == maxB {
			atMax = append(atMax, pe)
		}
	}
	best, _, err := profile.BestByEnergy(atMax, treqS)
	if err != nil {
		return mapping.DesignPoint{}, err
	}
	return best.DP, nil
}

// Run executes the application under EEMP: the selected fixed
// voltage/frequency, unused cores hotplugged off, no thermal policy (the
// firmware TMU still trips). The Result carries no Trace: Fig. 5 reads
// its summaries only.
func (e *EEMP) Run(app *workload.App, treqS float64) (*sim.Result, mapping.DesignPoint, error) {
	dp, err := e.Decide(app, treqS)
	if err != nil {
		return nil, mapping.DesignPoint{}, err
	}
	res, err := sim.RunWarm(e.runConfig(app, dp))
	if err != nil {
		return nil, dp, err
	}
	return res, dp, nil
}

// runConfig is the engine configuration Run executes app with at dp.
func (e *EEMP) runConfig(app *workload.App, dp mapping.DesignPoint) sim.Config {
	return sim.Config{
		Platform: e.plat,
		Net:      e.net,
		App:      app,
		Map:      dp.Map,
		Part:     dp.Part,
		Freq:     dp.Freq,
		Governor: &governor.Userspace{
			BigMHz:    dp.Freq.BigMHz,
			LittleMHz: dp.Freq.LittleMHz,
			GPUMHz:    dp.Freq.GPUMHz,
		},
		HotplugUnused: true,
		DiscardTrace:  true,
	}
}

// RMP is the reliable (temperature-aware) mapping and partitioning
// baseline.
type RMP struct {
	plat *soc.Platform
	net  *thermal.Network
	ev   *profile.Evaluator
	// Map is the CPU mapping used when a split is selected.
	Map mapping.Mapping
	// GPUOnlySlack is the tolerated GPU-only slowdown over the best
	// split (the paper's "minimal performance trade-off"); default 1.5.
	GPUOnlySlack float64
	// TempSlack bounds the split search: among grains within this
	// factor of the best predicted ET, the coolest is chosen; default
	// 1.1.
	TempSlack float64
}

// NewRMP builds the baseline for a platform and CPU mapping.
func NewRMP(plat *soc.Platform, net *thermal.Network, m mapping.Mapping) (*RMP, error) {
	ev, err := profile.NewEvaluator(plat, net)
	if err != nil {
		return nil, err
	}
	big, lit := plat.Big(), plat.Little()
	if err := m.Validate(big.NumCores, lit.NumCores); err != nil {
		return nil, err
	}
	if m.CPUCores() == 0 {
		return nil, errors.New("baseline: RMP mapping needs CPU cores")
	}
	return &RMP{plat: plat, net: net, ev: ev, Map: m, GPUOnlySlack: 1.5, TempSlack: 1.1}, nil
}

// Decide picks GPU-only when its cost is within GPUOnlySlack of the best
// split; otherwise the coolest split within TempSlack of the fastest.
func (r *RMP) Decide(app *workload.App) (mapping.DesignPoint, error) {
	if err := app.Validate(); err != nil {
		return mapping.DesignPoint{}, err
	}
	var candidates []mapping.DesignPoint
	for _, part := range mapping.Partitions() {
		m := r.Map
		m.UseGPU = part.Num < part.Den
		if !m.UseGPU && m.CPUCores() == 0 {
			continue
		}
		if part.Num == 0 {
			// GPU-only candidate uses no CPU cores at all.
			m = mapping.Mapping{UseGPU: true}
		}
		candidates = append(candidates, mapping.DesignPoint{Map: m, Part: part})
	}
	evals := r.ev.EvaluateMany(app, candidates)
	if len(evals) == 0 {
		return mapping.DesignPoint{}, errors.New("baseline: no feasible RMP candidates")
	}
	best, err := profile.BestByET(evals)
	if err != nil {
		return mapping.DesignPoint{}, err
	}
	// GPU-only test: "better temperature behaviour with minimal
	// performance trade-off".
	for _, e := range evals {
		if e.DP.Part.Num == 0 && e.ETS <= r.GPUOnlySlack*best.ETS {
			return e.DP, nil
		}
	}
	// Split: coolest grain within TempSlack of the fastest.
	chosen := best
	for _, e := range evals {
		if e.DP.Part.Num == 0 {
			continue
		}
		if e.ETS <= r.TempSlack*best.ETS && e.ATC < chosen.ATC {
			chosen = e
		}
	}
	return chosen.DP, nil
}

// Run executes the application under RMP: fixed design point at maximum
// frequencies, no online adaptation (the firmware TMU still trips). The
// Result carries no Trace: Fig. 5 reads its summaries only.
func (r *RMP) Run(app *workload.App) (*sim.Result, mapping.DesignPoint, error) {
	dp, err := r.Decide(app)
	if err != nil {
		return nil, mapping.DesignPoint{}, err
	}
	res, err := sim.RunWarm(r.runConfig(app, dp))
	if err != nil {
		return nil, dp, err
	}
	return res, dp, nil
}

// runConfig is the engine configuration Run executes app with at dp.
func (r *RMP) runConfig(app *workload.App, dp mapping.DesignPoint) sim.Config {
	return sim.Config{
		Platform:      r.plat,
		Net:           r.net,
		App:           app,
		Map:           dp.Map,
		Part:          dp.Part,
		Governor:      governor.Performance{},
		HotplugUnused: true,
		DiscardTrace:  true,
	}
}
