// Package profile evaluates design points for applications on a platform
// model. Evaluate is a fast analytic prediction (Eq. 3 execution time,
// power-model energy at thermal steady state) used to sweep large design
// spaces — the paper's 10 368-point diverse subset — and to fill the EEMP
// baseline's offline tables. The measurements that become regression
// observations are full transient runs through internal/sim
// (core.Manager.Profile).
//
// The analytic path deliberately ignores transient throttling: that is
// exactly the blind spot of offline-only approaches the paper exploits,
// so baselines built on these predictions exhibit the paper's failure
// modes when the thermal reality differs.
package profile

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"teem/internal/mapping"
	"teem/internal/power"
	"teem/internal/sim"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

// PointEval is the predicted or measured behaviour of one design point.
type PointEval struct {
	// DP is the evaluated design point.
	DP mapping.DesignPoint
	// ETS is execution time (s); ECJ energy (J); ATC and PTC the
	// average and peak big-cluster temperature (°C).
	ETS, ECJ, ATC, PTC float64
}

// Evaluator predicts design-point behaviour on a platform. It is safe for
// concurrent use: the thermal model is only read (steady states replay
// its system's elimination into caller buffers) and each evaluation
// works in buffers of its own.
type Evaluator struct {
	plat *soc.Platform
	pow  *power.Model
	// therm is built once; SteadyStateInto never mutates model state, so
	// sweeping a design space does not rebuild the RC system per point.
	therm *thermal.Model
	// nodeOf caches each cluster's thermal node; pkgNode the "pkg"
	// node (sim.ResolveNodes) and bigNode the big cluster's; nodes is
	// the node count.
	nodeOf                  []int
	pkgNode, bigNode, nodes int
	// free holds the buffers of the evaluations not under way: each
	// evaluation takes one, or builds one when none is free, and returns
	// it, so a sweep allocates nothing after its first point.
	mu   sync.Mutex
	free []*steadyScratch //teem:guards mu
}

// steadyScratch is one evaluation's working state.
type steadyScratch struct {
	temps, inj []float64
	loads      []power.ClusterLoad
	bd         power.Breakdown
}

// NewEvaluator builds an evaluator. Like sim.New it rejects a network
// that cannot carry the platform (a cluster without a node, or no "pkg"
// node) with an error wrapping sim.ErrPlatformNetMismatch.
func NewEvaluator(plat *soc.Platform, net *thermal.Network) (*Evaluator, error) {
	pm, err := power.NewModel(plat)
	if err != nil {
		return nil, err
	}
	tm, err := thermal.NewModel(net, plat.AmbientC)
	if err != nil {
		return nil, err
	}
	nodeOf, pkg, err := sim.ResolveNodes(plat, net)
	if err != nil {
		return nil, err
	}
	return &Evaluator{
		plat:    plat,
		pow:     pm,
		therm:   tm,
		nodeOf:  nodeOf,
		pkgNode: pkg,
		bigNode: net.NodeIndex(plat.Big().Name),
		nodes:   len(net.Nodes),
	}, nil
}

// takeScratch returns free buffers for one evaluation; putScratch hands
// them back.
func (ev *Evaluator) takeScratch() *steadyScratch {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if n := len(ev.free); n > 0 {
		sc := ev.free[n-1]
		ev.free = ev.free[:n-1]
		return sc
	}
	nc := len(ev.plat.Clusters)
	return &steadyScratch{
		temps: make([]float64, ev.nodes),
		inj:   make([]float64, ev.nodes),
		loads: make([]power.ClusterLoad, nc),
		bd:    power.Breakdown{DynamicW: make([]float64, nc), LeakageW: make([]float64, nc)},
	}
}

func (ev *Evaluator) putScratch(sc *steadyScratch) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	ev.free = append(ev.free, sc)
}

// Evaluate analytically predicts one design point: chunk times from the
// workload model (Eq. 3), steady-state temperatures from the RC network,
// and energy as predicted power × predicted time.
func (ev *Evaluator) Evaluate(app *workload.App, dp mapping.DesignPoint) (PointEval, error) {
	if err := app.Validate(); err != nil {
		return PointEval{}, err
	}
	big, lit, gpu := ev.plat.Big(), ev.plat.Little(), ev.plat.GPU()
	if err := dp.Map.Validate(big.NumCores, lit.NumCores); err != nil {
		return PointEval{}, err
	}
	if err := dp.Part.Validate(); err != nil {
		return PointEval{}, err
	}
	fb := snap(big, dp.Freq.BigMHz)
	fl := snap(lit, dp.Freq.LittleMHz)
	fg := snap(gpu, dp.Freq.GPUMHz)

	total := float64(app.WorkItems)
	cpuWI := float64(dp.Part.CPUItems(app.WorkItems))
	gpuWI := total - cpuWI
	if cpuWI > 0 && dp.Map.CPUCores() == 0 {
		return PointEval{}, errors.New("profile: CPU work-items but no CPU cores in mapping")
	}
	if gpuWI > 0 && !dp.Map.UseGPU {
		return PointEval{}, errors.New("profile: GPU work-items but GPU unused in mapping")
	}

	// Eq. (3): ET = max(CPU chunk, GPU chunk).
	var tCPU, tGPU float64
	cpuRate := app.CPURate(dp.Map.Big, dp.Map.Little, fb, fl)
	if cpuWI > 0 {
		tCPU = cpuWI / cpuRate
	}
	gpuRate := app.GPURate(gpu.NumCores, fg)
	if gpuWI > 0 {
		tGPU = gpuWI / gpuRate
	}
	et := math.Max(tCPU, tGPU)
	if et <= 0 {
		return PointEval{}, errors.New("profile: design point performs no work")
	}

	// Steady-state temperatures and power with both chunks active
	// (leakage evaluated at a two-pass fixed point).
	sc := ev.takeScratch()
	defer ev.putScratch(sc)
	if err := ev.steady(sc, app, dp, fb, fl, fg, cpuWI > 0, gpuWI > 0); err != nil {
		return PointEval{}, err
	}
	at := sc.temps[ev.bigNode]

	return PointEval{
		DP:  dp,
		ETS: et,
		ECJ: sc.bd.TotalW() * et,
		ATC: at,
		// The analytic peak adds the transient overshoot margin the
		// integrator exhibits near regime change; steady state is
		// the asymptote, so PT ≈ AT here.
		PTC: at,
	}, nil
}

func snap(c *soc.Cluster, mhz int) int {
	if mhz == 0 {
		return c.MaxFreqMHz()
	}
	return c.NearestOPP(mhz).FreqMHz
}

// steady computes the fixed-point power/temperature for a fully loaded
// design point into sc.bd and sc.temps.
func (ev *Evaluator) steady(sc *steadyScratch, app *workload.App, dp mapping.DesignPoint, fb, fl, fg int, cpuBusy, gpuBusy bool) error {
	gpu := ev.plat.GPU()
	temps := sc.temps
	for i := range temps {
		temps[i] = 60 // reasonable operating seed
	}
	for iter := 0; iter < 4; iter++ {
		for i := range ev.plat.Clusters {
			c := &ev.plat.Clusters[i]
			l := power.ClusterLoad{FreqMHz: maxFreqFor(c, fb, fl, fg), TempC: temps[ev.nodeOf[i]], Activity: 1}
			switch c.Kind {
			case soc.BigCPU:
				l.ActiveCores = dp.Map.Big
				l.OnCores = dp.Map.Big
				l.Utilization = bool2f(cpuBusy && dp.Map.Big > 0)
				l.Activity = app.ActivityCPU
			case soc.LittleCPU:
				l.ActiveCores = dp.Map.Little
				l.OnCores = dp.Map.Little
				l.Utilization = bool2f(cpuBusy && dp.Map.Little > 0)
				l.Activity = app.ActivityCPU
			case soc.GPU:
				if dp.Map.UseGPU {
					l.ActiveCores = c.NumCores
					l.OnCores = c.NumCores
				}
				l.Utilization = bool2f(gpuBusy && dp.Map.UseGPU)
				l.Activity = app.ActivityGPU
			}
			if l.ActiveCores == 0 {
				l.Utilization = 0
			}
			sc.loads[i] = l
		}
		rate := 0.0
		if cpuBusy {
			rate += app.CPURate(dp.Map.Big, dp.Map.Little, fb, fl)
		}
		if gpuBusy && dp.Map.UseGPU {
			rate += app.GPURate(gpu.NumCores, fg)
		}
		if err := ev.pow.EvaluateInto(&sc.bd, sc.loads, app.MemGBs(rate)); err != nil {
			return err
		}
		sim.InjectHeat(sc.inj, &sc.bd, ev.nodeOf, ev.pkgNode)
		if err := ev.therm.SteadyStateInto(temps, sc.inj); err != nil {
			return err
		}
	}
	return nil
}

func maxFreqFor(c *soc.Cluster, fb, fl, fg int) int {
	switch c.Kind {
	case soc.BigCPU:
		return fb
	case soc.LittleCPU:
		return fl
	case soc.GPU:
		return fg
	default:
		return c.MaxFreqMHz()
	}
}

func bool2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// EvaluateMany sweeps a set of design points, skipping infeasible ones
// (e.g. CPU work with no CPU cores) silently, and returns the feasible
// evaluations.
func (ev *Evaluator) EvaluateMany(app *workload.App, dps []mapping.DesignPoint) []PointEval {
	out := make([]PointEval, 0, len(dps))
	for _, dp := range dps {
		pe, err := ev.Evaluate(app, dp)
		if err != nil {
			continue
		}
		out = append(out, pe)
	}
	return out
}

// BestByET returns the evaluation with the lowest predicted execution
// time.
func BestByET(evals []PointEval) (PointEval, error) {
	if len(evals) == 0 {
		return PointEval{}, errors.New("profile: no evaluations")
	}
	best := evals[0]
	for _, e := range evals[1:] {
		if e.ETS < best.ETS {
			best = e
		}
	}
	return best, nil
}

// BestByEnergy returns the lowest-energy evaluation whose execution time
// does not exceed treqS (0 disables the constraint). If none qualifies the
// fastest point is returned with ok=false.
func BestByEnergy(evals []PointEval, treqS float64) (PointEval, bool, error) {
	if len(evals) == 0 {
		return PointEval{}, false, errors.New("profile: no evaluations")
	}
	var best *PointEval
	for i := range evals {
		e := &evals[i]
		if treqS > 0 && e.ETS > treqS {
			continue
		}
		if best == nil || e.ECJ < best.ECJ {
			best = e
		}
	}
	if best != nil {
		return *best, true, nil
	}
	fastest, err := BestByET(evals)
	return fastest, false, err
}

// String renders a PointEval compactly.
func (pe PointEval) String() string {
	return fmt.Sprintf("%s ET=%.1fs EC=%.0fJ AT=%.1f°C", pe.DP, pe.ETS, pe.ECJ, pe.ATC)
}
