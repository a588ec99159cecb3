package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"teem/internal/mapping"
	"teem/internal/par"
	"teem/internal/power"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

// A campaign is a sequence of application runs executed back to back on
// the same chip, with the thermal state carried across job boundaries and
// optional idle gaps between them — the situation the paper's measurement
// protocol (and any real device) lives in. Later jobs start hotter, so
// thermally blind policies degrade as a campaign progresses while TEEM
// keeps regulating.

// Job is one campaign entry.
type Job struct {
	// App, Map, Part and Freq configure the run like Config does.
	App  *workload.App
	Map  mapping.Mapping
	Part mapping.Partition
	Freq mapping.FreqSetting
	// Governor drives DVFS for this job (each job gets its own
	// instance; governors are stateful).
	Governor Governor
	// HotplugUnused powers down unused cores for this job.
	HotplugUnused bool
}

// CampaignConfig carries the shared platform and pacing.
type CampaignConfig struct {
	// Platform and Net are the shared hardware (required).
	Platform *soc.Platform
	Net      *thermal.Network
	// GapS is the idle time between consecutive jobs (default 0); it
	// must be finite and non-negative. Every job runs on the engine's
	// fixed TickS with Config's default MaxTimeS.
	GapS float64
	// InitialTempsC presets the chip state before the first job
	// (default: ambient — a cold campaign start). For Independent
	// campaigns every job starts from this state.
	InitialTempsC []float64
	// Independent marks the jobs as thermally non-carrying: each starts
	// from InitialTempsC with no state crossing job boundaries — a
	// batch of separate experiments rather than a back-to-back device
	// session. Independent jobs are scheduled across the worker pool;
	// results keep the input order, so parallel output is identical to
	// serial output. GapS must be 0 (an idle gap is meaningless without
	// carried state), and each job needs its own Governor instance
	// (governors are stateful).
	Independent bool
	// Workers bounds the parallel scheduler for Independent campaigns
	// (0 = one per CPU, 1 = serial). Ignored for carried-state
	// campaigns, which are inherently sequential.
	Workers int
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	// Jobs holds the per-job results in execution order.
	Jobs []*Result
	// TotalTimeS is the summed execution time (gaps excluded);
	// TotalEnergyJ the summed measured energy (gap energy excluded).
	TotalTimeS   float64
	TotalEnergyJ float64
	// PeakTempC is the campaign-wide big-cluster peak.
	PeakTempC float64
	// FinalTempsC is the chip state after the last job.
	FinalTempsC []float64
}

// RunCampaign executes the jobs: sequentially with the thermal state
// carried across job boundaries (the default), or — when cc.Independent
// is set — as thermally non-carrying jobs scheduled across a bounded
// worker pool. The configuration and every job are checked before any
// job runs.
func RunCampaign(cc CampaignConfig, jobs []Job) (*CampaignResult, error) {
	if cc.Platform == nil || cc.Net == nil {
		return nil, errors.New("sim: campaign needs Platform and Net")
	}
	if len(jobs) == 0 {
		return nil, errors.New("sim: campaign has no jobs")
	}
	// A NaN gap would silently mean "no gap", and an infinite one would
	// cool the chip forever.
	if !(cc.GapS >= 0 && cc.GapS <= math.MaxFloat64) {
		return nil, fmt.Errorf("sim: campaign GapS must be finite and non-negative, got %g", cc.GapS)
	}
	for i, j := range jobs {
		if j.App == nil {
			return nil, fmt.Errorf("sim: campaign job %d has no App", i)
		}
	}
	if cc.Independent {
		return runIndependent(cc, jobs)
	}
	temps := cc.InitialTempsC
	out := &CampaignResult{}
	for i, j := range jobs {
		e, err := New(cc.jobConfig(j, temps))
		if err != nil {
			return nil, fmt.Errorf("sim: campaign job %d (%s): %w", i, j.App.Name, err)
		}
		res, err := e.Run()
		if err != nil {
			return nil, fmt.Errorf("sim: campaign job %d (%s): %w", i, j.App.Name, err)
		}
		out.Jobs = append(out.Jobs, res)
		out.TotalTimeS += res.ExecTimeS
		out.TotalEnergyJ += res.EnergyJ
		if res.PeakTempC > out.PeakTempC {
			out.PeakTempC = res.PeakTempC
		}
		temps = e.FinalTemps()
		// Idle gap: the chip cools with all clusters idle.
		if cc.GapS > 0 && i < len(jobs)-1 {
			temps, err = coolDown(cc, temps, cc.GapS)
			if err != nil {
				return nil, err
			}
		}
	}
	out.FinalTempsC = temps
	return out, nil
}

// runIndependent is the parallel scheduler for thermally non-carrying
// jobs: each job simulates from cc.InitialTempsC on its own engine, the
// worker pool bounds concurrency, and results are reassembled in input
// order so the aggregate (summed in job order) is byte-identical to a
// one-worker run.
func runIndependent(cc CampaignConfig, jobs []Job) (*CampaignResult, error) {
	if cc.GapS != 0 {
		return nil, errors.New("sim: independent campaign cannot have idle gaps (no carried state to cool)")
	}
	// Governors are stateful, so two parallel jobs driving the same
	// instance would be a data race. Best-effort guard: reject reuse of
	// the same pointer (or other reference-kind value — map, slice,
	// func, chan) across jobs. Plain value-typed governors with value
	// receivers are boxed immutably in the interface and safe to share;
	// a value type smuggling interior pointers cannot be detected here,
	// which is why the CampaignConfig contract still says "each job
	// needs its own Governor instance".
	sharedGov := make(map[uintptr]int, len(jobs))
	for i, j := range jobs {
		if j.Governor == nil {
			continue
		}
		v := reflect.ValueOf(j.Governor)
		switch v.Kind() {
		case reflect.Pointer, reflect.Map, reflect.Slice, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			if prev, ok := sharedGov[v.Pointer()]; ok {
				return nil, fmt.Errorf("sim: independent campaign jobs %d and %d share one governor instance; governors are stateful — give each job its own", prev, i)
			}
			sharedGov[v.Pointer()] = i
		}
	}
	results := make([]*Result, len(jobs))
	finals := make([][]float64, len(jobs))
	if err := par.ForEach(cc.Workers, len(jobs), func(i int) error {
		j := jobs[i]
		e, err := New(cc.jobConfig(j, cc.InitialTempsC))
		if err != nil {
			return fmt.Errorf("sim: campaign job %d (%s): %w", i, j.App.Name, err)
		}
		res, err := e.Run()
		if err != nil {
			return fmt.Errorf("sim: campaign job %d (%s): %w", i, j.App.Name, err)
		}
		results[i] = res
		finals[i] = e.FinalTemps()
		return nil
	}); err != nil {
		return nil, err
	}
	out := &CampaignResult{Jobs: results}
	for _, res := range results {
		out.TotalTimeS += res.ExecTimeS
		out.TotalEnergyJ += res.EnergyJ
		if res.PeakTempC > out.PeakTempC {
			out.PeakTempC = res.PeakTempC
		}
	}
	out.FinalTempsC = finals[len(finals)-1]
	return out, nil
}

// jobConfig is the engine configuration of campaign job j starting from
// the node temperatures temps.
func (cc CampaignConfig) jobConfig(j Job, temps []float64) Config {
	return Config{
		Platform:      cc.Platform,
		Net:           cc.Net,
		App:           j.App,
		Map:           j.Map,
		Part:          j.Part,
		Freq:          j.Freq,
		Governor:      j.Governor,
		HotplugUnused: j.HotplugUnused,
		InitialTempsC: temps,
	}
}

// coolDown advances the thermal state through an idle period.
func coolDown(cc CampaignConfig, temps []float64, gapS float64) ([]float64, error) {
	tm, err := thermal.NewModel(cc.Net, cc.Platform.AmbientC)
	if err != nil {
		return nil, err
	}
	if err := tm.SetTemps(temps); err != nil {
		return nil, err
	}
	pm, err := power.NewModel(cc.Platform)
	if err != nil {
		return nil, err
	}
	nodeOf, pkg, err := ResolveNodes(cc.Platform, cc.Net)
	if err != nil {
		return nil, err
	}
	inj := make([]float64, len(cc.Net.Nodes))
	// Idle leakage at the current temperatures, stepped at 100 ms.
	for t := 0.0; t < gapS; t += 0.1 {
		loads := power.IdleLoads(cc.Platform, 0)
		for i := range loads {
			loads[i].TempC = tm.Temp(nodeOf[i])
		}
		bd, err := pm.Evaluate(loads, 0)
		if err != nil {
			return nil, err
		}
		InjectHeat(inj, bd, nodeOf, pkg)
		if err := tm.Step(inj, 0.1); err != nil {
			return nil, err
		}
	}
	return tm.Temps(), nil
}
