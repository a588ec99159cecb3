package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"teem/internal/obs"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; README.md defines each
// per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_tail_ms", "ms"},
	{"capacity_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics of a traced run. Every traced run reports
// all of them: from its own pass where the layer is on the workload's
// path, otherwise from a short probe of that layer (marked "probe").
var perLayer = []metricDef{
	// Engine and substrate.
	{"sim.ns_per_tick", "ns"},
	{"sim.stepped_ratio", "ratio"},
	{"sim.jumped_ratio", "ratio"},
	{"thermal.step_ns", "ns"},
	{"power.eval_ns", "ns"},
	{"sim.phase.thermal_ms", "ms"},
	{"sim.phase.power_ms", "ms"},
	{"sim.phase.governor_ms", "ms"},
	{"sim.phase.queue_ms", "ms"},
	{"sim.phase.unaccounted_ms", "ms"},
	{"sim.tmu_trips", "count"},
	{"sim.governor_epochs", "count"},
	{"sim.allocs_per_run", "count"},
	{"sim.kb_per_run", "KB"},
	// Offline phase.
	{"core.profile_ms", "ms"},
	{"regress.fit_us", "us"},
	{"baseline.eemp_table_ms", "ms"},
	{"baseline.eemp_run_ms", "ms"},
	{"baseline.rmp_run_ms", "ms"},
	{"core.decide_us", "us"},
	{"core.run_at_ms", "ms"},
	{"experiments.fig1_ms", "ms"},
	{"experiments.fig5_rest_ms", "ms"},
	{"experiments.sweeps_ms", "ms"},
	// Per-cell setup.
	{"platform.get_us", "us"},
	{"platform.get_allocs", "count"},
	{"sim.new_us", "us"},
	{"scenario.fixed_cost_us", "us"},
	// Event-driven path.
	{"scenario.cell_p50_ms", "ms"},
	{"scenario.cell_p99_ms", "ms"},
	{"sim.superstep_success_ratio", "ratio"},
	{"sim.reject.event", "count"},
	{"sim.reject.governor", "count"},
	{"sim.reject.meter", "count"},
	{"sim.reject.work", "count"},
	{"sim.reject.tmu", "count"},
	{"sim.reject.leakage", "count"},
	{"sim.cache.prop_hit_ratio", "ratio"},
	{"sim.cache.jumpblock_hit_ratio", "ratio"},
	{"sim.cache.pool_hit_ratio", "ratio"},
	{"thermal.jump_ns", "ns"},
	{"scenario.render_ms", "ms"},
	{"par.efficiency", "ratio"},
	// Serving path.
	{"http.submit_fresh_ms", "ms"},
	{"http.submit_hit_ms", "ms"},
	{"http.result_ms", "ms"},
	{"http.stream_replay_ms", "ms"},
	{"scenario.load_us", "us"},
	{"scenario.save_us", "us"},
	{"service.journal_commit_ms", "ms"},
	{"journal.appends_per_job", "count"},
	{"journal.kb_per_job", "KB"},
	{"journal.compactions", "count"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.sim_share", "ratio"},
	{"service.stream_lines_per_job", "count"},
	{"service.stream_kb_per_job", "KB"},
	{"service.spans_per_job", "count"},
	{"service.trace_ring_full", "ratio"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.notice_ms", "ms"},
	{"teemd.cpu_ms_per_job", "ms"},
	{"teemd.gc_cycles", "count"},
	{"teemd.gc_pause_ms", "ms"},
	{"obs.metrics_scrape_ms", "ms"},
	{"gen.lag_ms", "ms"},
	{"gen.conn_wait_ms", "ms"},
	// The tracing itself.
	{"trace.overhead_pct", "%"},
	{"trace.unaccounted_pct", "%"},
}

// layerSet collects per-layer values; the first value set for a name
// wins, so a workload's own measurement is never replaced by a probe's.
type layerSet struct {
	vals map[string]metric
}

func newLayerSet() *layerSet { return &layerSet{vals: map[string]metric{}} }

func (ls *layerSet) set(name, unit string, v float64, note string) {
	if _, ok := ls.vals[name]; ok || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	ls.vals[name] = metric{name: name, unit: unit, value: v, note: note}
}

func (ls *layerSet) has(name string) bool { _, ok := ls.vals[name]; return ok }

// missing reports whether any of the names has no value yet.
func (ls *layerSet) missing(names ...string) bool {
	for _, n := range names {
		if !ls.has(n) {
			return true
		}
	}
	return false
}

// merge copies values the set lacks from a probe's set, marking them.
func (ls *layerSet) merge(probe *layerSet, source string) {
	for name, m := range probe.vals {
		if !ls.has(name) {
			m.note = source + "; " + m.note
			ls.vals[name] = m
		}
	}
}

// engineAgg folds the flight recorders of many engine runs.
type engineAgg struct {
	mu         sync.Mutex
	runs       int
	stats      obs.RunStats
	wall       time.Duration
	timedRuns  int
	timedWall  time.Duration
	allocRuns  int
	allocs     uint64
	allocBytes uint64
}

// add records one run; clocked runs had the phase timers on.
func (a *engineAgg) add(st obs.RunStats, wall time.Duration, clocked bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs++
	a.wall += wall
	if clocked {
		a.timedRuns++
		a.timedWall += wall
		a.stats.ThermalNanos += st.ThermalNanos
		a.stats.PowerNanos += st.PowerNanos
		a.stats.GovernorNanos += st.GovernorNanos
		a.stats.QueueNanos += st.QueueNanos
	}
	st.ThermalNanos, st.PowerNanos, st.GovernorNanos, st.QueueNanos = 0, 0, 0, 0
	a.stats.Add(st)
}

// addAllocs records one serially measured run's heap allocations.
func (a *engineAgg) addAllocs(n, bytes uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.allocRuns++
	a.allocs += n
	a.allocBytes += bytes
}

// metrics derives the engine metrics.
func (a *engineAgg) metrics(ls *layerSet) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.runs == 0 {
		return
	}
	s := &a.stats
	runs := float64(a.runs)
	note := fmt.Sprintf("%d engine runs", a.runs)
	advanced := float64(s.Ticks + s.SuperstepTicks)
	ls.set("sim.ns_per_tick", "ns", ratio(float64(a.wall), advanced), note)
	ls.set("sim.stepped_ratio", "ratio", ratio(float64(s.Ticks), advanced), note)
	ls.set("sim.jumped_ratio", "ratio", ratio(float64(s.SuperstepTicks), advanced), note)
	ls.set("sim.superstep_success_ratio", "ratio", ratio(float64(s.Supersteps), float64(s.Supersteps+s.Rejections())), note)
	perRun := func(name string, v int64) { ls.set(name, "count", float64(v)/runs, "per run, "+note) }
	perRun("sim.reject.event", s.RejectEvent)
	perRun("sim.reject.governor", s.RejectGovernor)
	perRun("sim.reject.meter", s.RejectMeter)
	perRun("sim.reject.work", s.RejectWork)
	perRun("sim.reject.tmu", s.RejectTMU)
	perRun("sim.reject.leakage", s.RejectLeakage)
	perRun("sim.tmu_trips", s.TMUTrips)
	perRun("sim.governor_epochs", s.GovernorEpochs)
	hit := func(name string, h, m int64) { ls.set(name, "ratio", ratio(float64(h), float64(h+m)), note) }
	hit("sim.cache.prop_hit_ratio", s.PropCacheHits, s.PropCacheMisses)
	hit("sim.cache.jumpblock_hit_ratio", s.JumpBlockHits, s.JumpBlockMisses)
	hit("sim.cache.pool_hit_ratio", s.PoolHits, s.PoolMisses)
	if a.timedRuns > 0 {
		tr := float64(a.timedRuns)
		tnote := fmt.Sprintf("per run, %d runs with phase timers", a.timedRuns)
		phase := func(name string, ns int64) { ls.set(name, "ms", float64(ns)/1e6/tr, tnote) }
		phase("sim.phase.thermal_ms", s.ThermalNanos)
		phase("sim.phase.power_ms", s.PowerNanos)
		phase("sim.phase.governor_ms", s.GovernorNanos)
		phase("sim.phase.queue_ms", s.QueueNanos)
		named := s.ThermalNanos + s.PowerNanos + s.GovernorNanos + s.QueueNanos
		phase("sim.phase.unaccounted_ms", int64(a.timedWall)-named)
	}
	if a.allocRuns > 0 {
		ar := float64(a.allocRuns)
		anote := fmt.Sprintf("%d serially measured runs", a.allocRuns)
		ls.set("sim.allocs_per_run", "count", float64(a.allocs)/ar, anote)
		ls.set("sim.kb_per_run", "KB", float64(a.allocBytes)/ar/1024, anote)
	}
}

// unaccounted reports the time of each traced operation that no layer
// span covers, and checks that the self times of an operation's spans
// add up to its measured total. Roots are spans without a parent.
func unaccounted(ls *layerSet, rep *report, spans []span) {
	self := selfTimes(spans)
	sumSelf := map[int]time.Duration{}
	for _, s := range spans {
		sumSelf[s.Op] += self[s.ID]
	}
	var rootDur, rootSelf, sum, worst time.Duration
	roots := 0
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		roots++
		rootDur += s.dur()
		rootSelf += self[s.ID]
		sum += sumSelf[s.Op]
		if d := sumSelf[s.Op] - s.dur(); d > worst || -d > worst {
			worst = max(d, -d)
		}
	}
	if roots == 0 {
		return
	}
	ls.set("trace.unaccounted_pct", "%", 100*ratio(float64(rootSelf), float64(rootDur)),
		fmt.Sprintf("%d operations, %.3f ms unaccounted of %.3f ms", roots, ms(rootSelf), ms(rootDur)))
	// Serial operations tile exactly (Σ self = total); an operation
	// whose children run in parallel sums to its total times the
	// parallelism.
	rep.linef("self times: %d operations, Σ self / total = %.4f, largest |Σ self − total| = %.3f µs, unaccounted %.3f ms of %.3f ms",
		roots, ratio(float64(sum), float64(rootDur)), float64(worst)/1e3, ms(rootSelf), ms(rootDur))
}

func spanFile(cfg config) string {
	return filepath.Join(cfg.runDir, cfg.workload+"-spans.ndjson")
}

// finishLayers fills every per-layer metric the workload's own pass did
// not measure from a probe of the layer, then moves the set into the
// report in definition order.
func finishLayers(cfg config, ls *layerSet, rep *report, own string) error {
	if err := substrateProbes(ls); err != nil {
		return err
	}
	if own != "paper-repro" && ls.missing("core.profile_ms", "experiments.fig5_rest_ms") {
		probe := newLayerSet()
		rec := newRecorder()
		eng := &engineAgg{}
		if _, err := paperTraced(paperInputsFor(cfg.seed), rec, 1, eng, false); err != nil {
			return fmt.Errorf("paper-repro probe: %w", err)
		}
		paperLayers(probe, rec.snapshot(), eng)
		ls.merge(probe, "probe: one traced paper-repro pass")
	}
	if own != "scenario-sweep" && ls.missing("scenario.cell_p50_ms", "par.efficiency") {
		probe := newLayerSet()
		in, err := sweepInputsFor(cfg.seed)
		if err != nil {
			return err
		}
		rec := newRecorder()
		eng := &engineAgg{}
		if _, err := sweepTraced(in, rec, 1, eng); err != nil {
			return fmt.Errorf("scenario-sweep probe: %w", err)
		}
		sweepLayers(probe, rec.snapshot(), eng)
		ls.merge(probe, "probe: one traced scenario-sweep pass")
	}
	if own != "serve-mixed" && ls.missing("http.submit_fresh_ms", "service.run_ms") {
		probe := newLayerSet()
		if err := serveProbe(cfg, probe); err != nil {
			return fmt.Errorf("serve-mixed probe: %w", err)
		}
		ls.merge(probe, "probe: 2 s serve-mixed open loop")
	}
	for _, d := range perLayer {
		if m, ok := ls.vals[d.name]; ok {
			rep.metrics = append(rep.metrics, m)
		}
	}
	return nil
}
