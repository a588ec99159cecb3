package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"teem/internal/obs"
	"teem/internal/par"
	"teem/internal/platform"
	"teem/internal/scenario"
)

// sweepTraces is how many seeded arrival traces join the preset corpus.
const sweepTraces = 2

// sweepInputs are one scenario-sweep pass's axes.
type sweepInputs struct {
	platforms []string
	scs       []*scenario.Scenario
	govs      []string
}

// sweepInputsFor builds the grid: every catalog platform, the preset
// corpus plus sweepTraces seeded arrival traces compiled through
// scenario.FromTrace, and every stock governor. Every seeded trace
// carries the same apps — the seed orders them and draws their gaps and
// priorities — so a pass costs about the same whatever the seed.
func sweepInputsFor(seed int64) (sweepInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	scs := scenario.Presets()
	for k := 0; k < sweepTraces; k++ {
		tr := &scenario.ArrivalTrace{Name: fmt.Sprintf("seeded-%d-%d", seed, k)}
		at := 0.0
		for _, i := range rng.Perm(len(sweepTraceApps)) {
			tr.Records = append(tr.Records, scenario.TraceRecord{App: sweepTraceApps[i], AtS: at, Priority: rng.Intn(3)})
			at += float64(rng.Intn(31)) / 10
		}
		sc, err := scenario.FromTrace(tr)
		if err != nil {
			return sweepInputs{}, err
		}
		scs = append(scs, sc)
	}
	return sweepInputs{platforms: platform.Names(), scs: scs, govs: scenario.GovernorNames()}, nil
}

// sweepTraceApps are the arrivals of every seeded sweep trace.
var sweepTraceApps = []string{"MVT", "GEMM", "SYRK", "2MM"}

// sweepPass is one end-to-end pass: the platform × scenario × governor
// grid on the given number of workers, rendered. It returns the output
// and a function that renders the same grid again.
func sweepPass(in sweepInputs, workers int) (string, func() string, error) {
	g, err := scenario.RunPlatformGrid(in.platforms, in.scs, in.govs, scenario.Config{}, workers)
	if err != nil {
		return "", nil, err
	}
	return g.Render(), g.Render, nil
}

// sweepTraced computes the same grid cell by cell on one worker per
// CPU: per cell a catalog decode (platform.Get) then one scenario run
// on the decoded hardware with the engine's phase timers on, each in
// its own span.
func sweepTraced(in sweepInputs, rec *recorder, op int, eng *engineAgg) (string, error) {
	root := rec.begin("pass", 0, op)
	defer rec.end(root)
	np, ns, ng := len(in.platforms), len(in.scs), len(in.govs)
	g := &scenario.PlatformGridResult{Platforms: in.platforms, Governors: in.govs, Cells: make([][][]*scenario.Result, np)}
	for _, sc := range in.scs {
		g.Scenarios = append(g.Scenarios, sc.Name)
	}
	for pi := range g.Cells {
		g.Cells[pi] = make([][]*scenario.Result, ns)
		for si := range g.Cells[pi] {
			g.Cells[pi][si] = make([]*scenario.Result, ng)
		}
	}
	err := par.ForEachCtx(context.Background(), 0, np*ns*ng, func(i int) error {
		pi, si, gi := i/(ns*ng), i/ng%ns, i%ng
		cell := rec.begin("scenario.cell", root, op)
		defer rec.end(cell)
		id := rec.begin("platform.get", cell, op)
		b, err := platform.Get(in.platforms[pi])
		rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin("scenario.run", cell, op)
		t0 := time.Now()
		r, err := scenario.RunCtx(context.Background(), in.scs[si], scenario.Config{
			Platform: b.SoC, Net: b.Net, Governor: in.govs[gi], Clock: obs.Nanotime})
		wall := time.Since(t0)
		rec.end(id)
		if err != nil {
			// The grid records a failed cell as a violation; so does
			// the traced pass, so outputs stay comparable.
			r = &scenario.Result{Scenario: in.scs[si].Name, Governor: in.govs[gi],
				Violations: []string{fmt.Sprintf("error: %v", err)}}
		} else {
			eng.add(r.Sim.Stats, wall, true)
		}
		// An explicit hardware pair reports the SoC's name; the grid
		// reports the catalog name it resolved.
		r.Platform = b.Name
		g.Cells[pi][si][gi] = r
		return nil
	})
	if err != nil {
		return "", err
	}
	id := rec.begin("scenario.render", root, op)
	text := g.Render()
	rec.end(id)
	return text, nil
}

// setupSweep is the scenario-sweep set-up: the cold first pass.
func setupSweep(seed int64) error {
	in, err := sweepInputsFor(seed)
	if err != nil {
		return err
	}
	_, _, err = sweepPass(in, 0)
	return err
}

// runSweep is the scenario-sweep workload: a closed loop of full grid
// passes with one worker per CPU.
func runSweep(cfg config) (*report, error) {
	in, err := sweepInputsFor(cfg.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rep.linef("inputs: %d platforms × %d scenarios (%d seeded traces) × %d governors = %d cells, %d workers",
		len(in.platforms), len(in.scs), sweepTraces, len(in.govs),
		len(in.platforms)*len(in.scs)*len(in.govs), par.DefaultWorkers())
	var setups, setupsRaw, rss []float64
	if !cfg.trace {
		if setups, setupsRaw, rss, err = setupSamples(cfg, batchSetups, 0); err != nil {
			return nil, err
		}
	}
	// In-process set-up (the cold pass), then the reference output from
	// the other path: the same grid on one worker.
	cold, _, err := sweepPass(in, 0)
	if err != nil {
		return nil, err
	}
	ref, _, err := sweepPass(in, 1)
	if err != nil {
		return nil, err
	}
	if cold != ref {
		rep.mismatch("parallel grid differs from the serial reference (%d vs %d bytes)", len(cold), len(ref))
	}
	rep.digest = digest(ref)
	if cfg.trace {
		return sweepTracedRun(cfg, in, ref, rep)
	}

	// The grid keeps every CPU busy, so the reference runs on every CPU.
	hs, err := newHostSpeed(par.DefaultWorkers())
	if err != nil {
		return nil, err
	}
	passes, renders, allocated := batchLoop(rep, hs, cfg, ref, func() (string, func() string, error) {
		return sweepPass(in, 0)
	})
	return rep, batchEndToEnd(rep, hs, setups, setupsRaw, rss, passes, renders, sweepTailPct, allocated)
}

// sweepTailPct is the pinned tail percentile of scenario-sweep: a pass,
// its renders and the reference sample after it take about 280 ms with 2
// workers, so a 30 s run has about 105 passes.
const sweepTailPct = 75

// sweepTracedRun alternates untraced and traced grid passes and derives
// the per-layer metrics from the traced ones.
func sweepTracedRun(cfg config, in sweepInputs, ref string, rep *report) (*report, error) {
	rec := newRecorder()
	eng := &engineAgg{}
	var plain, traced []float64
	start := time.Now()
	for op := 1; time.Since(start) < cfg.dur; op++ {
		t0 := time.Now()
		text, _, err := sweepPass(in, 0)
		plain = append(plain, ms(time.Since(t0)))
		rep.attempted++
		if err != nil {
			return nil, err
		}
		if text != ref {
			rep.mismatch("untraced pass %d differs from the reference", op)
		}
		t0 = time.Now()
		text, err = sweepTraced(in, rec, op, eng)
		traced = append(traced, ms(time.Since(t0)))
		rep.attempted++
		if err != nil {
			return nil, err
		}
		if text != ref {
			rep.mismatch("traced pass %d differs from the reference", op)
		}
	}
	// Engine allocations, measured on a serial replay of a few cells.
	if err := cellAllocs(in, eng); err != nil {
		return nil, err
	}
	ls := newLayerSet()
	spans := rec.snapshot()
	sweepLayers(ls, spans, eng)
	ls.set("trace.overhead_pct", "%", 100*(newDist(traced).median()/newDist(plain).median()-1),
		fmt.Sprintf("traced vs untraced pass medians, %d pairs", len(plain)))
	unaccounted(ls, rep, spans)
	if err := normalizeProbe(ls, in.scs, "the sweep's scenarios"); err != nil {
		return nil, err
	}
	if err := rec.writeFile(spanFile(cfg)); err != nil {
		return nil, err
	}
	return rep, finishLayers(cfg, ls, rep, "scenario-sweep")
}

// cellAllocs measures the heap allocations of one scenario run per
// scenario on the default platform, serially so nothing else allocates.
func cellAllocs(in sweepInputs, eng *engineAgg) error {
	for _, sc := range in.scs {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := scenario.Run(sc, scenario.Config{Governor: "ondemand"}); err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		eng.addAllocs(m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc)
	}
	return nil
}

// sweepLayers derives the event-driven-path metrics from scenario-sweep
// spans: per-cell latency, render time and the fan-out's efficiency.
func sweepLayers(ls *layerSet, spans []span, eng *engineAgg) {
	bn := byName(spans)
	if c := bn["scenario.cell"]; c != nil {
		d := newDist(c.durs)
		note := fmt.Sprintf("%d cells", c.n)
		ls.set("scenario.cell_p50_ms", "ms", d.median(), note)
		ls.set("scenario.cell_p99_ms", "ms", d.rank(99), note)
		if p := bn["pass"]; p != nil {
			w := float64(par.DefaultWorkers())
			ls.set("par.efficiency", "ratio", ratio(float64(c.dur), float64(p.dur)*w),
				fmt.Sprintf("Σ cell time / (pass time × %d workers)", int(w)))
		}
	}
	if r := bn["scenario.render"]; r != nil {
		ls.set("scenario.render_ms", "ms", newDist(r.durs).median(), fmt.Sprintf("median of %d renders", r.n))
	}
	eng.metrics(ls)
}
