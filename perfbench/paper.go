package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"teem/internal/baseline"
	"teem/internal/core"
	"teem/internal/experiments"
	"teem/internal/governor"
	"teem/internal/mapping"
	"teem/internal/obs"
	"teem/internal/sim"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

// paperInputs are the seeded parameters of one paper-repro pass.
type paperInputs struct {
	fig5Map    mapping.Mapping
	thresholds []float64
	deltas     []int
	floors     []int
}

// paperInputsFor derives a pass's inputs from the seed. Seed 0 is the
// paper's protocol: Fig. 5 at 2L+4B, thresholds 80/85/90 °C, δ
// 100/200/400 MHz, floors 1000/1400/1800 MHz. Other seeds pick another
// four-big-core Fig. 5 mapping and three other points per sweep; the
// choices are narrow enough that a pass costs about the same whatever
// the seed. Thresholds below 84 °C and floors above 1400 MHz are left
// out: their runs end sooner, and a seed that drew several would make its
// pass a few percent cheaper than another seed's.
func paperInputsFor(seed int64) paperInputs {
	if seed == 0 {
		return paperInputs{
			fig5Map:    mapping.Mapping{Big: 4, Little: 2, UseGPU: true},
			thresholds: []float64{80, 85, 90},
			deltas:     []int{100, 200, 400},
			floors:     []int{1000, 1400, 1800},
		}
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func(from []int) []int {
		idx := rng.Perm(len(from))[:3]
		sort.Ints(idx)
		out := make([]int, 3)
		for i, k := range idx {
			out[i] = from[k]
		}
		return out
	}
	var th []float64
	for _, t := range pick([]int{84, 85, 86, 87, 88, 89, 90}) {
		th = append(th, float64(t))
	}
	return paperInputs{
		fig5Map:    mapping.Mapping{Big: 4, Little: 1 + rng.Intn(4), UseGPU: true},
		thresholds: th,
		deltas:     pick([]int{100, 150, 200, 250, 300, 400}),
		floors:     pick([]int{1000, 1100, 1200, 1300, 1400}),
	}
}

// paperResults is everything one pass computes.
type paperResults struct {
	fig1              *experiments.Fig1Result
	models            []*experiments.ModelResult
	fig5              *experiments.Fig5Result
	thresh, delta, fl []experiments.SweepPoint
}

// render is the pass's output: the text every path must reproduce.
func (r *paperResults) render() string {
	var b strings.Builder
	b.WriteString(r.fig1.Render())
	for _, m := range r.models {
		b.WriteString(m.TableI())
		b.WriteString(m.TableII())
	}
	b.WriteString(r.fig5.RenderEnergy())
	b.WriteString(r.fig5.RenderTemperature())
	b.WriteString(r.fig5.RenderPerformance())
	b.WriteString(experiments.RenderSweep("threshold sweep", "threshold (°C)", r.thresh))
	b.WriteString(experiments.RenderSweep("delta sweep", "δ (MHz)", r.delta))
	b.WriteString(experiments.RenderSweep("floor sweep", "floor (MHz)", r.fl))
	return b.String()
}

// paperPass is one end-to-end pass on a fresh Env — the work teemreport
// does: Fig. 1, offline profiling of all eight apps, Fig. 5 and the
// three ablation sweeps. It returns the output and a function that
// renders the same results again.
func paperPass(in paperInputs, workers int) (string, func() string, error) {
	env, err := experiments.NewEnvWith(experiments.Options{Workers: workers})
	if err != nil {
		return "", nil, err
	}
	r := &paperResults{}
	if r.fig1, err = env.Fig1(); err != nil {
		return "", nil, err
	}
	for _, app := range workload.Apps() {
		m, err := env.ProfileApp(app.Name)
		if err != nil {
			return "", nil, err
		}
		r.models = append(r.models, m)
	}
	if r.fig5, err = env.Fig5(in.fig5Map); err != nil {
		return "", nil, err
	}
	if r.thresh, err = env.ThresholdSweep(in.thresholds); err != nil {
		return "", nil, err
	}
	if r.delta, err = env.DeltaSweep(in.deltas); err != nil {
		return "", nil, err
	}
	if r.fl, err = env.FloorSweep(in.floors); err != nil {
		return "", nil, err
	}
	return r.render(), r.render, nil
}

// paperTraced computes the same pass layer by layer, with a span around
// every call: each engine run the experiments make internally is made
// here directly with the phase timers on, profiling is the 18 engine
// runs plus core.FitModel, and Fig. 5 is the baseline and core calls
// its rows make. The output must equal paperPass's byte for byte.
func paperTraced(in paperInputs, rec *recorder, op int, eng *engineAgg, countAllocs bool) (string, error) {
	root := rec.begin("pass", 0, op)
	defer rec.end(root)
	plat, net, params := soc.Exynos5422(), thermal.Exynos5422Network(), core.DefaultParams()
	run := func(parent int, cfg sim.Config) (*sim.Result, error) {
		cfg.Platform, cfg.Net, cfg.Clock = plat, net, obs.Nanotime
		var m0 runtime.MemStats
		if countAllocs {
			runtime.ReadMemStats(&m0)
		}
		id := rec.begin("sim.run", parent, op)
		t0 := time.Now()
		res, err := sim.RunWarm(cfg)
		wall := time.Since(t0)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		eng.add(res.Stats, wall, true)
		if countAllocs {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			eng.addAllocs(m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc)
		}
		return res, nil
	}
	r := &paperResults{}

	// Fig. 1: COVARIANCE on 2L+3B at partition 4/8, ondemand vs TEEM.
	id := rec.begin("experiments.fig1", root, op)
	f1 := sim.Config{App: workload.Covariance(), Map: mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part: mapping.Partition{Num: 4, Den: 8}}
	od, te := f1, f1
	od.Governor = governor.NewOndemand()
	te.Governor = core.NewController(params)
	r.fig1 = &experiments.Fig1Result{}
	var err error
	if r.fig1.Ondemand, err = run(id, od); err != nil {
		return "", err
	}
	if r.fig1.TEEM, err = run(id, te); err != nil {
		return "", err
	}
	rec.end(id)

	// Offline phase: the 16 mappings plus the replicated median one at
	// the even split, the GPU-only ETGPU run, then the regression.
	store := &core.Store{Platform: plat.Name}
	for _, app := range workload.Apps() {
		pid := rec.begin("core.profile", root, op)
		even := mapping.Partition{Num: 4, Den: 8}
		var obsv []core.Observation
		measure := func(m mapping.Mapping) error {
			res, err := run(pid, sim.Config{App: app, Map: m, Part: even})
			if err != nil {
				return err
			}
			obsv = append(obsv, core.Observation{Map: m, M: float64(m.CPUCores()),
				ATC: res.AvgTempC, PTC: res.PeakTempC, ETS: res.ExecTimeS, ECJ: res.EnergyJ})
			return nil
		}
		for nl := 1; nl <= plat.Little().NumCores; nl++ {
			for nb := 1; nb <= plat.Big().NumCores; nb++ {
				if err := measure(mapping.Mapping{Big: nb, Little: nl, UseGPU: true}); err != nil {
					return "", err
				}
			}
		}
		if err := measure(mapping.Mapping{Big: 3, Little: 2, UseGPU: true}); err != nil {
			return "", err
		}
		gpu, err := run(pid, sim.Config{App: app, Map: mapping.Mapping{UseGPU: true}, Part: mapping.Partition{Num: 0, Den: 8}})
		if err != nil {
			return "", err
		}
		fid := rec.begin("regress.fit", pid, op)
		am, err := core.FitModel(app.Name, obsv)
		rec.end(fid)
		if err != nil {
			return "", err
		}
		am.ETGPUSec = gpu.ExecTimeS
		rec.end(pid)
		r.models = append(r.models, &experiments.ModelResult{App: app, Model: am})
		c := am.Model.Coefficients
		store.Models = append(store.Models, core.StoredModel{App: app.Name,
			Intercept: c[0].Estimate, ATSlope: c[1].Estimate, ETSlope: c[2].Estimate, ETGPUSec: am.ETGPUSec})
	}
	mgr, err := core.NewManager(plat, net, params)
	if err != nil {
		return "", err
	}
	if err := mgr.Import(store); err != nil {
		return "", err
	}

	// Fig. 5 with every profile in hand: per app the EEMP table and run,
	// the RMP run, the TEEM partition decision and the regulated run.
	id = rec.begin("experiments.fig5_rest", root, op)
	m := in.fig5Map
	r.fig5 = &experiments.Fig5Result{Mapping: m}
	timed := func(name string, parent int, f func() (*sim.Result, error)) (*sim.Result, error) {
		sid := rec.begin(name, parent, op)
		t0 := time.Now()
		res, err := f()
		wall := time.Since(t0)
		rec.end(sid)
		if err == nil {
			eng.add(res.Stats, wall, false)
		}
		return res, err
	}
	for _, app := range workload.Apps() {
		eemp, err := baseline.NewEEMP(plat, net, m)
		if err != nil {
			return "", err
		}
		rmp, err := baseline.NewRMP(plat, net, m)
		if err != nil {
			return "", err
		}
		treq := experiments.TreqFor(app, m)
		tid := rec.begin("baseline.eemp_table", id, op)
		_, err = eemp.BuildTable(app)
		rec.end(tid)
		if err != nil {
			return "", err
		}
		var edp, rdp mapping.DesignPoint
		eres, err := timed("baseline.eemp_run", id, func() (res *sim.Result, err error) {
			res, edp, err = eemp.Run(app, treq)
			return res, err
		})
		if err != nil {
			return "", err
		}
		rres, err := timed("baseline.rmp_run", id, func() (res *sim.Result, err error) {
			res, rdp, err = rmp.Run(app)
			return res, err
		})
		if err != nil {
			return "", err
		}
		did := rec.begin("core.decide", id, op)
		part, err := mgr.DecidePartition(app.Name, treq)
		rec.end(did)
		if err != nil {
			return "", err
		}
		tm := m
		tm.UseGPU = part.Num < part.Den
		tres, err := timed("core.run_at", id, func() (*sim.Result, error) { return mgr.RunAt(app, tm, part) })
		if err != nil {
			return "", err
		}
		r.fig5.Rows = append(r.fig5.Rows, experiments.Fig5Row{App: app,
			EEMP: approach(eres, edp), RMP: approach(rres, rdp),
			TEEM: approach(tres, mapping.DesignPoint{Map: tm, Part: part})})
	}
	rec.end(id)

	// Ablations: COVARIANCE at 2L+4B, partition 5/8, under modified
	// controller parameters.
	id = rec.begin("experiments.sweeps", root, op)
	sweep := func(n int, modify func(i int) (float64, core.Params)) ([]experiments.SweepPoint, error) {
		var pts []experiments.SweepPoint
		for i := 0; i < n; i++ {
			v, p := modify(i)
			res, err := run(id, sim.Config{App: workload.Covariance(),
				Map: mapping.Mapping{Big: 4, Little: 2, UseGPU: true}, Part: mapping.Partition{Num: 5, Den: 8},
				Governor: core.NewController(p)})
			if err != nil {
				return nil, err
			}
			pts = append(pts, experiments.SweepPoint{Value: v, ETS: res.ExecTimeS, ECJ: res.EnergyJ,
				AvgTC: res.AvgTempC, PeakTC: res.PeakTempC, VarC2: res.TempVarC2, Transitions: res.FreqTransitions})
		}
		return pts, nil
	}
	if r.thresh, err = sweep(len(in.thresholds), func(i int) (float64, core.Params) {
		p := params
		p.ThresholdC = in.thresholds[i]
		return in.thresholds[i], p
	}); err != nil {
		return "", err
	}
	if r.delta, err = sweep(len(in.deltas), func(i int) (float64, core.Params) {
		p := params
		p.DeltaMHz = in.deltas[i]
		return float64(in.deltas[i]), p
	}); err != nil {
		return "", err
	}
	if r.fl, err = sweep(len(in.floors), func(i int) (float64, core.Params) {
		p := params
		p.FloorMHz = in.floors[i]
		return float64(in.floors[i]), p
	}); err != nil {
		return "", err
	}
	rec.end(id)

	id = rec.begin("experiments.render", root, op)
	text := r.render()
	rec.end(id)
	return text, nil
}

// approach mirrors the Fig. 5 per-run metric extraction.
func approach(res *sim.Result, dp mapping.DesignPoint) experiments.ApproachMetrics {
	return experiments.ApproachMetrics{ETS: res.ExecTimeS, ECJ: res.EnergyJ,
		AvgTC: res.AvgTempC, PeakTC: res.PeakTempC, VarC2: res.TempVarC2, GradCps: res.TempGradCps, DP: dp}
}

// setupPaper is the paper-repro set-up: the cold first pass, which fills
// the process-wide thermal caches.
func setupPaper(seed int64) error {
	_, _, err := paperPass(paperInputsFor(seed), 1)
	return err
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// runPaper is the paper-repro workload: a closed loop of serial passes,
// each on a fresh Env.
func runPaper(cfg config) (*report, error) {
	in := paperInputsFor(cfg.seed)
	rep := &report{}
	rep.linef("inputs: fig5 mapping %s, thresholds %v °C, δ %v MHz, floors %v MHz",
		in.fig5Map, in.thresholds, in.deltas, in.floors)
	var setups, setupsRaw, rss []float64
	if !cfg.trace {
		var err error
		if setups, setupsRaw, rss, err = setupSamples(cfg, batchSetups, 1); err != nil {
			return nil, err
		}
	}
	// In-process set-up (the cold pass), then the reference output from
	// the other path: the same pass fanned out across every CPU.
	cold, _, err := paperPass(in, 1)
	if err != nil {
		return nil, err
	}
	ref, _, err := paperPass(in, 0)
	if err != nil {
		return nil, err
	}
	if cold != ref {
		rep.mismatch("serial pass differs from the parallel reference (%d vs %d bytes)", len(cold), len(ref))
	}
	rep.digest = digest(ref)
	if cfg.trace {
		return paperTracedRun(cfg, in, ref, rep)
	}

	// The passes are serial, so they run on one CPU: the garbage
	// collector's share of a pass then costs the same whether or not the
	// host lends it the other CPU for a while.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	hs, err := newHostSpeed(1)
	if err != nil {
		return nil, err
	}
	passes, renders, allocated := batchLoop(rep, hs, cfg, ref, func() (string, func() string, error) {
		return paperPass(in, 1)
	})
	return rep, batchEndToEnd(rep, hs, setups, setupsRaw, rss, passes, renders, paperTailPct, allocated)
}

// batchSetups is how many cold set-ups a batch run measures. A set-up
// lasts about as long as a pass, so the host's speed moves it as much;
// nine give a steadier median than five.
const batchSetups = 9

// settledSample takes a reference sample after a full collection, which
// leaves the kernel no sweeping to share its CPU with and starts the
// next pass from the same heap as every other.
func settledSample(hs *hostSpeed) float64 {
	runtime.GC()
	return hs.next()
}

// paperTailPct is the pinned tail percentile of paper-repro: a pass, its
// renders and the reference sample after it take about 200 ms on a 2-CPU
// host, so a 30 s run has about 150 passes.
const paperTailPct = 90

// renderReps is how many times a batch run renders each computed pass
// again to time rendering: a render takes about a millisecond, so one
// sample per pass would leave its tail to a dozen samples.
const renderReps = 4

// renderTailPct is the pinned tail percentile of the render samples,
// the ladder's choice for a few hundred.
const renderTailPct = 90

// batchLoop runs pass in a closed loop for the run's duration, with a
// settled reference sample before the first pass and after each one,
// renders each computed pass renderReps more times, checks every output
// against want, and returns the pass and render times and the heap bytes
// the passes allocated.
func batchLoop(rep *report, hs *hostSpeed, cfg config, want string, pass func() (string, func() string, error)) (passes, renders *bracketed, allocated uint64) {
	passes = newBracketed(settledSample(hs))
	renders = newBracketed(passes.refs[0])
	start := time.Now()
	for time.Since(start) < cfg.dur {
		// Heap allocation is counted around each pass only.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		text, render, err := pass()
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		allocated += m1.TotalAlloc - m0.TotalAlloc
		rep.attempted++
		if err != nil {
			rep.failed++
			log.Printf("%s pass %d: %v", cfg.workload, rep.attempted, err)
			after := settledSample(hs)
			passes.add(after)
			renders.add(after)
			continue
		}
		ok := text == want
		// The renders start from a collected heap, so the pass's
		// unfinished collection work does not land on them.
		runtime.GC()
		var rs []float64
		for k := 0; k < renderReps; k++ {
			t := time.Now()
			again := render()
			rs = append(rs, ms(time.Since(t)))
			ok = ok && again == want
		}
		if !ok {
			rep.mismatch("pass %d output differs from the reference", rep.attempted)
		}
		after := settledSample(hs)
		log.Printf("%s pass %d: %.3f ms, then reference sample %.3f ms", cfg.workload, rep.attempted, ms(el), after)
		passes.add(after, ms(el))
		renders.add(after, rs...)
	}
	return passes, renders, allocated
}

// batchEndToEnd fills the end-to-end metrics shared by the batch
// workloads, from the passes and renders each scaled by the reference
// samples around it and the set-ups each scaled by its child's sample.
func batchEndToEnd(rep *report, hs *hostSpeed, setups, setupsRaw, rss []float64, passes, renders *bracketed, tailPct float64, allocBytes uint64) error {
	n := len(passes.raw)
	if n == 0 {
		return fmt.Errorf("no pass completed")
	}
	rep.linef("%s", hs.line())
	median := func(name, unit, what string, b *bracketed) {
		rep.add(name, unit, b.paired().median(), fmt.Sprintf("%s, median of %d; raw %.6g %s", what, len(b.raw), newDist(b.raw).median(), unit))
	}
	tail := func(name, unit, what string, b *bracketed, pct float64) {
		v, note := b.paired().tailAt(pct)
		raw, _ := newDist(b.raw).tailAt(pct)
		rep.add(name, unit, v, fmt.Sprintf("%s, %s; raw %.6g %s", what, note, raw, unit))
	}
	rep.add("setup_s", "s", newDist(setups).median(),
		fmt.Sprintf("cold set-up, median of %d; raw %.6g s", len(setups), newDist(setupsRaw).median()))
	median("op_p50_ms", "ms", "pass", passes)
	tail("op_tail_ms", "ms", "pass", passes, tailPct)
	median("read_p50_ms", "ms", "render", renders)
	tail("read_tail_ms", "ms", "render", renders, renderTailPct)
	rep.add("capacity_per_s", "1/s", 1000/passes.paired().mean(),
		fmt.Sprintf("passes per second of passes, %d passes; raw %.6g 1/s", n, 1000/newDist(passes.raw).mean()))
	rep.add("alloc_mb_per_op", "MB", float64(allocBytes)/float64(n)/(1<<20), "heap allocated per pass")
	r := newDist(rss)
	rep.add("rss_peak_mb", "MB", r.median(), fmt.Sprintf("median VmHWM of %d set-up processes after %d warm passes", len(r), probeWarmPasses))
	return nil
}

// paperTracedRun alternates untraced and traced passes, so the tracing
// overhead is measured under the same conditions, then derives the
// per-layer metrics from the traced passes' spans.
func paperTracedRun(cfg config, in paperInputs, ref string, rep *report) (*report, error) {
	rec := newRecorder()
	eng := &engineAgg{}
	var plain, traced []float64
	start := time.Now()
	for op := 1; time.Since(start) < cfg.dur; op++ {
		t0 := time.Now()
		text, _, err := paperPass(in, 1)
		plain = append(plain, ms(time.Since(t0)))
		rep.attempted++
		if err != nil {
			return nil, err
		}
		if text != ref {
			rep.mismatch("untraced pass %d differs from the reference", op)
		}
		t0 = time.Now()
		text, err = paperTraced(in, rec, op, eng, op == 1)
		traced = append(traced, ms(time.Since(t0)))
		rep.attempted++
		if err != nil {
			return nil, err
		}
		if text != ref {
			rep.mismatch("traced pass %d differs from the reference", op)
		}
	}
	ls := newLayerSet()
	spans := rec.snapshot()
	paperLayers(ls, spans, eng)
	ls.set("trace.overhead_pct", "%", 100*(newDist(traced).median()/newDist(plain).median()-1),
		fmt.Sprintf("traced vs untraced pass medians, %d pairs", len(plain)))
	unaccounted(ls, rep, spans)
	if err := rec.writeFile(spanFile(cfg)); err != nil {
		return nil, err
	}
	return rep, finishLayers(cfg, ls, rep, "paper-repro")
}

// paperLayers derives the offline-phase and engine metrics from a set
// of paper-repro spans.
func paperLayers(ls *layerSet, spans []span, eng *engineAgg) {
	bn := byName(spans)
	median := func(name, metricName, unit string, scale float64) {
		if lt := bn[name]; lt != nil {
			ls.set(metricName, unit, newDist(lt.durs).median()*scale, fmt.Sprintf("median of %d calls", lt.n))
		}
	}
	median("core.profile", "core.profile_ms", "ms", 1)
	median("regress.fit", "regress.fit_us", "us", 1000)
	median("baseline.eemp_table", "baseline.eemp_table_ms", "ms", 1)
	median("baseline.eemp_run", "baseline.eemp_run_ms", "ms", 1)
	median("baseline.rmp_run", "baseline.rmp_run_ms", "ms", 1)
	median("core.decide", "core.decide_us", "us", 1000)
	median("core.run_at", "core.run_at_ms", "ms", 1)
	median("experiments.fig1", "experiments.fig1_ms", "ms", 1)
	median("experiments.fig5_rest", "experiments.fig5_rest_ms", "ms", 1)
	median("experiments.sweeps", "experiments.sweeps_ms", "ms", 1)
	eng.metrics(ls)
}
