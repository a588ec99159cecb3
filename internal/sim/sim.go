// Package sim co-simulates workload execution, power and temperature on an
// MPSoC platform. Each tick (TickS, 10 ms) it advances the application's
// CPU and GPU work-item chunks at rates given by the current DVFS state,
// evaluates the power model, steps the thermal RC network, samples the
// board power meter and — at its control period — invokes the DVFS
// governor. Hardware thermal protection (the Exynos TMU behaviour: trip at
// 95 °C, cap the big cluster at 900 MHz, release below the hysteresis
// point) runs independently of software policy, exactly like the firmware
// the paper's baselines rely on.
//
// The tick loop is allocation-free at steady state: thermal stepping uses
// a precomputed exact propagator (thermal.Stepper), power evaluation
// writes into an engine-owned breakdown (power.EvaluateInto), heat
// injection uses the node map ResolveNodes builds, sensor lookups an
// index map — both built once per platform and network and shared by
// every engine over them, like the propagator — the power meter folds each
// sample as it latches it, and the trace is sized at the run's first
// sample from what the engine knows of its length (a scenario horizon,
// or RunWarm's warm-up), growing geometrically otherwise.
//
// On top of the fixed-tick loop sits an event-horizon superstep
// scheduler: when the operating point is provably steady — no due
// events, no governor epoch whose decision could change, no
// thermal-trip or leakage-regime crossing inside the interval — the
// engine replays the whole interval in one affine propagator
// application (thermal.Superstep) instead of ticking through it,
// latching the power-meter samples inside it in closed form, then falls
// back to fixed ticks whenever any of those guards cannot certify the
// jump. The jump is the tick loop's own arithmetic reassociated, so
// scheduling decisions and sampled energy are bit-identical and
// temperatures agree to floating-point rounding; the full integrator
// contract is docs/integrators.md. A steady stretch that
// a temperature guard keeps from being jumped (throttling, a hovering
// equilibrium) is advanced in record segments: closed-form steps that end
// on each trace record tick, each certified monotone on every node, so
// no sample is skipped. A segment the certificate refuses, and a stretch
// too short to segment, is walked: ticked with only the arithmetic that
// can change at a fixed operating point, bit for bit like the ordinary
// tick. Disable with Config.DisableSuperstep to force tick-by-tick
// execution.
//
// Beyond single static runs the engine exposes the hooks the scenario
// subsystem (internal/scenario) is built on: callbacks scheduled at tick
// granularity (ScheduleAt), a priority-aware preemptive job queue on top
// of the remaining-work machinery (EnqueueAppPriority, CancelJob), and
// mid-run switches of governor, mapping, partition and ambient
// temperature (SetGovernor, SetMapping, SetPartition, SetAmbientC). A
// higher-priority arrival suspends the live job — its
// remaining CPU/GPU work-items are parked in the queue and resume intact
// once the preemptor drains — and a cancellation drops a queued or live
// job, charging only the work already done. Event dispatch costs a single
// integer compare on ticks with no due event, so the steady-state tick
// between events stays allocation-free.
package sim

import (
	"errors"
	"fmt"
	"math"

	"teem/internal/mapping"
	"teem/internal/obs"
	"teem/internal/power"
	"teem/internal/powermeter"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/trace"
	"teem/internal/workload"
)

// Machine is the restricted hardware view a governor gets: sensors,
// current frequencies, utilisation, and frequency control — the same
// surface Linux governors see through sysfs.
type Machine interface {
	// TimeS is the current simulation time in seconds.
	TimeS() float64
	// Platform describes the hardware. Every engine over the same
	// hardware shares it: read it, never write it.
	Platform() *soc.Platform
	// SensorC reads the thermal sensor on the named node (°C). Unknown
	// nodes read as 0.
	SensorC(node string) float64
	// ClusterFreqMHz returns the current frequency of the named
	// cluster (0 for unknown or gated clusters).
	ClusterFreqMHz(cluster string) int
	// SetClusterFreqMHz requests a frequency; it is snapped to the
	// nearest supported OPP and clamped by active hardware throttling.
	SetClusterFreqMHz(cluster string, mhz int) error
	// ClusterUtil returns the cluster's busy fraction over the last
	// tick.
	ClusterUtil(cluster string) float64
	// Throttled reports whether hardware thermal protection is
	// currently capping the big cluster.
	Throttled() bool
}

// Governor is a DVFS policy invoked every PeriodS of simulated time.
type Governor interface {
	// Name identifies the policy ("ondemand", "teem", ...).
	Name() string
	// PeriodS is the control period in seconds.
	PeriodS() float64
	// Start initialises the policy at t=0 (set initial frequencies
	// here).
	Start(m Machine) error
	// Act runs one control step.
	Act(m Machine) error
}

// Integrator selects the thermal stepping scheme of a run.
type Integrator int

const (
	// IntegratorExact advances the RC network with the precomputed
	// exact discrete-time propagator (the default: unconditionally
	// stable, zero-allocation, exact for piecewise-constant power).
	IntegratorExact Integrator = iota
	// IntegratorEuler uses the substepped explicit-Euler reference
	// integrator — useful for cross-checking and regression hunting.
	IntegratorEuler
)

// TickS is the engine's fixed simulation step in seconds (10 ms). Work,
// power, temperature, governor epochs and scheduled events all advance
// on this grid, and the exact propagator is built for it.
const TickS = 0.01

// recordPeriodS is the trace sampling period: every 10th tick.
const recordPeriodS = 0.1

// Config assembles a simulation.
type Config struct {
	// Platform is the hardware description (required).
	Platform *soc.Platform
	// Net is the thermal topology; nodes must be named after the
	// clusters they carry, plus a "pkg" node (required). New reads
	// Platform and Net once: the engine runs on a private copy of both,
	// so changing them afterwards does not reach it.
	Net *thermal.Network
	// App is the workload started at t=0. It may be nil only when
	// MinTimeS is positive: the engine then starts idle and runs work
	// enqueued by scheduled events (EnqueueAppPriority) — the scenario
	// regime.
	App *workload.App
	// Map selects the CPU cores used; Part splits work-items between
	// CPU and GPU.
	Map  mapping.Mapping
	Part mapping.Partition
	// Freq is the initial DVFS setting; zero fields default to each
	// cluster's maximum.
	Freq mapping.FreqSetting
	// Governor is the DVFS policy; nil runs at the initial frequencies.
	Governor Governor
	// HWProtect enables the firmware thermal trip behaviour (default
	// semantics: enabled unless DisableHWProtect).
	DisableHWProtect bool
	// HotplugUnused powers down unused cores (EEMP-style DPM) instead
	// of leaving them idle and leaking.
	HotplugUnused bool
	// MaxTimeS aborts runaway runs (default 900 s, raised to MinTimeS
	// when shorter; negative is rejected).
	MaxTimeS float64
	// MinTimeS keeps the simulation running (idle if need be) until this
	// much simulated time has elapsed, even when all work has finished —
	// the horizon of a scenario run. Zero preserves the classic
	// behaviour: the run ends the moment the workload completes.
	MinTimeS float64
	// InitialTempsC presets node temperatures (default: ambient).
	InitialTempsC []float64
	// Integrator selects the thermal stepping scheme (default:
	// IntegratorExact).
	Integrator Integrator
	// DisableSuperstep turns off the event-horizon fast path that jumps
	// provably steady intervals (idle gaps, constant busy stretches) in a
	// single exact propagator application, and advances the steady
	// stretches it cannot jump in record segments or walks. Supersteps
	// are on by default with the exact integrator and reproduce the
	// fixed-tick trajectory to floating-point rounding (walks reproduce
	// it bit for bit); disable
	// them to send every tick through the classic tick-by-tick loop
	// (reference runs, debugging). Euler runs never superstep. See
	// docs/integrators.md for the legality contract.
	DisableSuperstep bool
	// DiscardTrace returns the Result without its time series
	// (Result.Trace is nil), for callers that read only the summaries:
	// profiling measurements, ablation sweep points, scenario grid
	// cells. Every other Result field, Stats and every OnSample sample
	// are the same as without it (the summaries are folded online from
	// the same samples), but the engine skips recording the series,
	// which is most of a run's allocation. With OnSample set the engine
	// still records internally, so subscribers keep OnSample's
	// slice-lifetime contract. The default keeps the trace because
	// renders (Fig. 1, teemsim's chart and CSV) and the facade's callers
	// read the series.
	DiscardTrace bool
	// Done, when non-nil, makes the run cancellable: the engine polls
	// the channel once per tick, jump, segmented span or walk, and at
	// every meter instant a segmented span or walk crosses — a
	// non-blocking receive, so the steady-state tick stays
	// allocation-free — and aborts with an error wrapping ErrAborted
	// within one tick of it closing, within one meter period of
	// simulated time when a segmented span or walk is under way, and
	// within 64 when a jump is (a few microseconds of wall time). Wire a
	// context's Done() channel here to cancel a simulation.
	Done <-chan struct{}
	// Clock, when non-nil, opts the flight recorder into per-phase wall
	// timing: the engine reads it between the tick's phases (governor,
	// queue, power, thermal) and accumulates the deltas into
	// Result.Stats; a steady walk or segmented span reads it twice and
	// charges its whole time to thermal. Pass obs.Nanotime (teemscenario -stats does). The
	// default nil performs zero clock reads, keeping runs deterministic
	// and the instrumented tick free of timing overhead; the counters in
	// Result.Stats are always maintained either way.
	Clock func() int64
	// OnSample, when non-nil, is invoked synchronously for every trace
	// sample the engine records, right after it is appended — the
	// trace-subscriber hook streaming consumers build on: telemetry is
	// delivered as the run ticks instead of copied out of a finished
	// trace. The sample's slices are the trace's arena-backed storage —
	// valid for the trace's lifetime and never rewritten, but shared:
	// subscribers must not modify them. The hook runs on the simulation
	// goroutine, so a slow subscriber slows the run.
	OnSample func(s trace.Sample)
}

// JobFinish records the completion of one enqueued application.
type JobFinish struct {
	// ID is the engine-assigned job handle (EnqueueAppPriority).
	ID int
	// App is the application name; AtS the simulated completion time.
	App string
	AtS float64
}

// JobCancel records a job dropped by CancelJob before it finished.
type JobCancel struct {
	// ID is the cancelled job's handle; App its application name.
	ID  int
	App string
	// AtS is the simulated cancellation time.
	AtS float64
	// DoneFrac is the fraction of the job's work-items that had executed
	// when it was dropped (0 for a never-started queued job) — the work
	// the run was actually charged for.
	DoneFrac float64
}

// Result summarises a run.
type Result struct {
	// Completed reports that every submitted job finished and every
	// scheduled event fired (false when MaxTimeS elapsed first).
	Completed bool
	// ExecTimeS is the time workload execution last stopped: the final
	// work-item completion (Eq. 3's ET for a single-app run) or a later
	// live-job cancellation. Drained runs with no workload activity
	// report the simulated horizon; aborted runs the elapsed time.
	ExecTimeS float64
	// EnergyJ is the meter-accumulated board energy; AvgPowerW the
	// meter average.
	EnergyJ   float64
	AvgPowerW float64
	// AvgTempC/PeakTempC are for the hottest monitored cluster node
	// (big CPU), matching the paper's reporting. AvgTempC is a
	// trace-derived time-weighted mean; PeakTempC is the exact per-tick
	// maximum, independent of the trace sampling period.
	AvgTempC  float64
	PeakTempC float64
	// PeakTempsC is the exact per-tick whole-run maximum of every
	// thermal node, indexed like the network's nodes.
	PeakTempsC []float64
	// TempVarC2 is the temporal variance of the big-cluster
	// temperature; TempGradCps the mean |dT/dt|.
	TempVarC2   float64
	TempGradCps float64
	// AvgBigFreqMHz is the effective big-cluster frequency.
	AvgBigFreqMHz float64
	// FreqTransitions counts DVFS changes (governor overhead metric).
	FreqTransitions int
	// ThrottleEvents counts hardware trips.
	ThrottleEvents int
	// JobFinishes lists every completed job in completion order
	// (multi-app scenario runs; a classic single-app run has one entry).
	JobFinishes []JobFinish
	// JobCancels lists every job dropped mid-run by CancelJob, in
	// cancellation order. A run with cancellations still reports
	// Completed=true once the surviving work drains: the departed jobs
	// left the system, they did not fail it.
	JobCancels []JobCancel
	// Trace is the recorded time series (nil under Config.DiscardTrace).
	Trace *trace.Trace
	// Stats is the engine flight recorder: ticks vs supersteps, guard
	// rejection reasons, cache hit rates, governor/TMU activity, and —
	// when Config.Clock was supplied — per-phase wall time.
	Stats obs.RunStats
}

// Engine executes one configured run.
type Engine struct {
	cfg Config
	// sys is the shared state derived from the platform and network;
	// plat, pow, nodeOf, pkgNode, the cluster indices, sensors and
	// clusterIdx are its values, copied here for the hot paths.
	sys     *system
	plat    *soc.Platform
	therm   *thermal.Model
	stepper *thermal.Stepper
	pow     *power.Model
	meter   *powermeter.Meter

	// Recording. sum folds every recorded sample into the summaries
	// Result reports; tr keeps the full series. Both are allocated at
	// the first sample. inherit is the sample count a RunWarm measured
	// run takes from its warm-up (see sizing); warmUp marks RunWarm's
	// warm-up, whose summary keeps no series because only its mean
	// temperatures are read.
	sum     summary
	tr      *trace.Trace
	inherit int
	warmUp  bool

	// cluster bookkeeping, indexed like plat.Clusters
	freqs   []int
	nodeOf  []int // thermal node per cluster
	utils   []float64
	pkgNode int
	bigIdx  int // cluster index of the big CPU
	gpuIdx  int
	litIdx  int

	// lookup tables so governor reads never scan strings: sensors maps
	// a node name to its index, clusterIdx a cluster name.
	sensors    map[string]int
	clusterIdx map[string]int

	// per-tick scratch state, reused so the steady-state tick performs
	// zero heap allocations. loads carries the configuration-static
	// fields (core counts, activity) from New; ticks only refresh
	// frequency, voltage, temperature and utilisation.
	loads    []power.ClusterLoad
	bd       power.Breakdown
	inj      []float64
	recTemps []float64
	govEvery int
	recEvery int

	// volts caches the rail voltage of each cluster's current
	// frequency; rateCPU/rateGPU cache the roofline work-item rates.
	// All three change only on a DVFS transition (ratesDirty).
	volts      []float64
	rateCPU    float64
	rateGPU    float64
	ratesDirty bool

	// live workload state: app is the job currently executing (nil when
	// idle), curMap/curPart the in-effect mapping and partition — all
	// three switchable mid-run by scenario events. curJobID/curPrio/
	// curSeq identify the live job for cancellation and preemption.
	app      *workload.App
	curMap   mapping.Mapping
	curPart  mapping.Partition
	curJobID int
	curPrio  int
	curSeq   int

	// queue holds submitted-but-not-live jobs (fresh arrivals and
	// suspended preemptees) ordered by (priority desc, seq asc); qHead
	// indexes the next job so pops are O(1), with popped slots cleared so
	// finished *workload.App values are not pinned for the rest of the
	// run. nextJobID/nextSeq mint job handles and tiebreak ordering.
	queue     []pendingJob
	qHead     int
	nextJobID int
	nextSeq   int

	// scheduled events, sorted by tick (same-tick events keep
	// registration order); evIdx points at the next undelivered one, so
	// the per-tick dispatch check is one compare.
	events []schedEvent
	evIdx  int

	// event-horizon superstepping (superstep.go): ss is the engine's one
	// affine jump map, built at its first binding (nil before) and
	// rebound in place when the leakage-slope vector changes.
	// ssOpLoads/ssOpMemGBs fingerprint the operating point of the last
	// binding, whose affine decomposition sits in ssInj/ssSlopeCur: a
	// jump attempt at the same point skips the power model entirely.
	// ssLoads is per-attempt scratch; ssOff latches the fast path off
	// (config knob, Euler runs, or an uncertifiable system). govPure
	// marks a UtilOnlyGovernor; govStable that its last epoch changed
	// nothing, with govUtils the utilisations that epoch saw — together
	// the fixed-point certificate that lets a jump cross control periods.
	ss         *thermal.Superstep
	ssSlopeCur []float64
	ssInj      []float64
	ssLoads    []power.ClusterLoad
	ssOpLoads  []power.ClusterLoad
	ssOpMemGBs float64
	ssOff      bool
	govPure    bool
	govStable  bool
	govUtils   []float64
	// govQuiet is the policy as a QuietGovernor whose epochs are meter
	// instants (nil otherwise), and band its quiet band at the frequencies
	// of the last horizon that let a jump cross its epochs.
	govQuiet QuietGovernor
	band     quietBand

	// stats is the flight recorder: plain int64 counters bumped on the
	// hot paths (never through an interface or atomic, so increments are
	// single instructions and allocate nothing). clock is the pre-acquired
	// wall-clock func from Config.Clock — nil means no timing reads.
	stats obs.RunStats
	clock func() int64

	running        bool
	jobFinishes    []JobFinish
	jobCancels     []JobCancel
	lastFinishS    float64
	lastCancelS    float64 // latest live-job cancellation (work ran until then)
	remCPU, remGPU float64 // remaining work-items
	timeTicks      int
	transitions    int
	throttleEvents int
	throttled      bool
	preThrottleMHz int
	// peakC is the per-node running maximum over every simulated tick —
	// the exact whole-run peaks Result and the scenario assertions
	// report. It starts at -Inf, so the first tick sets it whatever the
	// temperature. Superstep jumps maintain it from their endpoints, which
	// the monotone trajectory direction makes exact (a rising jump's
	// interior is bounded by its landing state, a falling one by its
	// start).
	peakC []float64
}

// pendingJob is one queued job: a fresh arrival awaiting its first start,
// or a preempted job suspended with its remaining work. prio orders the
// queue (higher runs first); seq tiebreaks within a priority class, so
// equal-priority jobs run FIFO and a preempted job (which keeps its
// original, smaller seq) resumes ahead of later arrivals of its class.
type pendingJob struct {
	id   int
	app  *workload.App
	part mapping.Partition
	prio int
	seq  int
	// suspended marks a preempted job: remCPU/remGPU carry its remaining
	// work-items, which resume intact instead of re-splitting part.
	suspended      bool
	remCPU, remGPU float64
}

// schedEvent is one scheduled callback.
type schedEvent struct {
	tick int
	fn   func(*Engine) error
}

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Platform == nil || cfg.Net == nil {
		return nil, errors.New("sim: Platform, Net and App are required")
	}
	// The tick conversions int(x/dt + 0.5) are implementation-defined for
	// NaN and ±Inf and overflow past MaxRunS, and a negative MaxTimeS
	// would run no tick at all.
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"MinTimeS", cfg.MinTimeS}, {"MaxTimeS", cfg.MaxTimeS}} {
		if !(f.v >= 0 && f.v < MaxRunS) {
			return nil, fmt.Errorf("sim: %s must be non-negative and below %g s, got %g", f.name, MaxRunS, f.v)
		}
	}
	if err := finiteTemps(cfg.InitialTempsC); err != nil {
		return nil, err
	}
	if cfg.App == nil && cfg.MinTimeS <= 0 {
		return nil, errors.New("sim: Platform, Net and App are required (App may be nil only with MinTimeS set)")
	}
	sys, err := systemFor(cfg.Platform, cfg.Net)
	if err != nil {
		return nil, err
	}
	if err := cfg.Map.Validate(sys.plat.Clusters[sys.bigIdx].NumCores, sys.plat.Clusters[sys.litIdx].NumCores); err != nil {
		return nil, err
	}
	if cfg.App == nil && cfg.Part == (mapping.Partition{}) {
		// An idle-start scenario run has no initial work to split.
		cfg.Part = mapping.Partition{Num: 0, Den: 1}
	}
	if err := cfg.Part.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxTimeS == 0 {
		cfg.MaxTimeS = 900
	}
	if cfg.MaxTimeS < cfg.MinTimeS {
		cfg.MaxTimeS = cfg.MinTimeS
	}

	therm := sys.therm.NewModel(sys.plat.AmbientC)
	var stepper *thermal.Stepper
	if cfg.Integrator == IntegratorExact {
		if stepper, err = therm.NewStepper(TickS); err != nil {
			return nil, err
		}
	}

	e := &Engine{
		cfg:        cfg,
		sys:        sys,
		plat:       sys.plat,
		therm:      therm,
		stepper:    stepper,
		pow:        sys.pow,
		meter:      powermeter.New(),
		nodeOf:     sys.nodeOf,
		pkgNode:    sys.pkgNode,
		bigIdx:     sys.bigIdx,
		litIdx:     sys.litIdx,
		gpuIdx:     sys.gpuIdx,
		sensors:    sys.sensors,
		clusterIdx: sys.clusterIdx,
	}
	e.clock = cfg.Clock
	if stepper != nil {
		if stepper.CacheHit() {
			e.stats.PropCacheHits++
		} else {
			e.stats.PropCacheMisses++
		}
	}

	if cfg.InitialTempsC != nil {
		if err := therm.SetTemps(cfg.InitialTempsC); err != nil {
			return nil, err
		}
	}

	e.curMap = cfg.Map
	e.curPart = cfg.Part
	nc, nn := len(sys.plat.Clusters), len(sys.net.Nodes)
	e.freqs = make([]int, nc)
	e.volts = make([]float64, nc)
	e.utils = make([]float64, nc)
	e.loads = make([]power.ClusterLoad, nc)
	e.bd = power.Breakdown{
		DynamicW: make([]float64, nc),
		LeakageW: make([]float64, nc),
	}
	e.inj = make([]float64, nn)
	e.recTemps = make([]float64, nn)
	e.peakC = make([]float64, nn)
	for i := range e.peakC {
		e.peakC[i] = math.Inf(-1)
	}
	e.ssSlopeCur = make([]float64, nn)
	e.ssInj = make([]float64, nn)
	e.ssLoads = make([]power.ClusterLoad, nc)
	e.ssOpLoads = make([]power.ClusterLoad, nc)
	e.govUtils = make([]float64, nc)
	e.ssOff = cfg.DisableSuperstep
	e.ratesDirty = true
	e.setFreqs(cfg.Freq)

	e.rebuildLoads()

	e.nextJobID = 1
	if cfg.App != nil {
		// The configured app is job 1 at the default priority, started
		// on the idle engine as any arrival is. Run primes its clusters
		// on the mapping and partition the run starts with, which a
		// caller may still switch.
		if _, err := e.EnqueueAppPriority(cfg.App, cfg.Part, 0); err != nil {
			return nil, err
		}
		clear(e.utils)
	}
	return e, nil
}

// finiteTemps reports an error for a non-finite start temperature, which
// turns every summary and sensor read into NaN, so governors and the TMU
// never act.
func finiteTemps(t []float64) error {
	for i, v := range t {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sim: InitialTempsC[%d] must be finite, got %g", i, v)
		}
	}
	return nil
}

// setFreqs sets each CPU and GPU cluster to the OPP nearest fs's request,
// 0 meaning the cluster's maximum frequency.
func (e *Engine) setFreqs(fs mapping.FreqSetting) {
	for _, r := range [...]struct{ idx, mhz int }{{e.bigIdx, fs.BigMHz}, {e.litIdx, fs.LittleMHz}, {e.gpuIdx, fs.GPUMHz}} {
		c := &e.plat.Clusters[r.idx]
		if r.mhz == 0 {
			e.setFreq(r.idx, c.MaxFreqMHz())
		} else {
			e.setFreq(r.idx, c.NearestOPP(r.mhz).FreqMHz)
		}
	}
}

// rebuildLoads recomputes the configuration-static load fields (core
// counts, switching activity) from the live mapping and app. The tick
// loop only refreshes frequency, voltage, temperature and utilisation;
// this runs at New and again on mid-run mapping or app switches.
func (e *Engine) rebuildLoads() {
	actCPU, actGPU := 1.0, 1.0
	if e.app != nil {
		actCPU, actGPU = e.app.ActivityCPU, e.app.ActivityGPU
	}
	for i := range e.plat.Clusters {
		c := &e.plat.Clusters[i]
		l := power.ClusterLoad{Activity: 1}
		switch i {
		case e.bigIdx:
			l.ActiveCores = e.curMap.Big
			l.OnCores = c.NumCores
			if e.cfg.HotplugUnused {
				l.OnCores = e.curMap.Big
			}
			l.Activity = actCPU
		case e.litIdx:
			l.ActiveCores = e.curMap.Little
			l.OnCores = c.NumCores
			if e.cfg.HotplugUnused {
				l.OnCores = e.curMap.Little
			}
			l.Activity = actCPU
		case e.gpuIdx:
			l.ActiveCores = c.NumCores
			l.OnCores = c.NumCores
			if e.cfg.HotplugUnused && !e.curMap.UseGPU {
				l.ActiveCores = 0
				l.OnCores = 0
			}
			if !e.curMap.UseGPU {
				l.ActiveCores = 0
			}
			l.Activity = actGPU
		}
		// Preserve the per-tick fields the load already carries.
		l.FreqMHz = e.loads[i].FreqMHz
		l.VoltV = e.loads[i].VoltV
		l.TempC = e.loads[i].TempC
		l.Utilization = e.loads[i].Utilization
		e.loads[i] = l
	}
}

// setFreq is the single write path for cluster frequencies: it refreshes
// the cached rail voltage, invalidates the cached work-item rates and
// voids the governor's superstep fixed-point certificate.
func (e *Engine) setFreq(i, mhz int) {
	e.freqs[i] = mhz
	e.volts[i] = e.plat.Clusters[i].VoltageAt(mhz)
	e.ratesDirty = true
	e.govStable = false
}

// rates returns the roofline work-item rates of the live app at the
// current frequencies, recomputing them only after a DVFS transition or a
// job/mapping switch.
func (e *Engine) rates() (rateCPU, rateGPU float64) {
	if e.ratesDirty {
		if e.app != nil {
			m := e.curMap
			e.rateCPU = e.app.CPURate(m.Big, m.Little, e.freqs[e.bigIdx], e.freqs[e.litIdx])
			e.rateGPU = e.app.GPURate(e.plat.Clusters[e.gpuIdx].NumCores, e.freqs[e.gpuIdx])
		} else {
			e.rateCPU, e.rateGPU = 0, 0
		}
		e.ratesDirty = false
	}
	return e.rateCPU, e.rateGPU
}

// --- Machine interface ------------------------------------------------------

// TimeS implements Machine.
func (e *Engine) TimeS() float64 { return float64(e.timeTicks) * TickS }

// Platform implements Machine.
func (e *Engine) Platform() *soc.Platform { return e.plat }

// SensorC implements Machine.
func (e *Engine) SensorC(node string) float64 {
	i, ok := e.sensors[node]
	if !ok {
		return 0
	}
	return e.therm.Temp(i)
}

// ClusterFreqMHz implements Machine.
func (e *Engine) ClusterFreqMHz(cluster string) int {
	i, ok := e.clusterIdx[cluster]
	if !ok {
		return 0
	}
	return e.freqs[i]
}

// SetClusterFreqMHz implements Machine.
func (e *Engine) SetClusterFreqMHz(cluster string, mhz int) error {
	i, ok := e.clusterIdx[cluster]
	if !ok {
		return fmt.Errorf("sim: unknown cluster %q", cluster)
	}
	c := &e.plat.Clusters[i]
	f := c.NearestOPP(mhz).FreqMHz
	if e.throttled && i == e.bigIdx {
		// While throttled the governor's latest request becomes the
		// release target, whether the hardware grants it now (at or
		// below the cap) or only after release (above it) — restoring
		// an older pre-trip frequency would override the governor's
		// newer decision.
		e.preThrottleMHz = f
		if f > e.plat.TripCapMHz {
			f = c.FloorOPP(e.plat.TripCapMHz).FreqMHz
		}
	}
	if f != e.freqs[i] {
		e.setFreq(i, f)
		e.transitions++
	}
	return nil
}

// ClusterUtil implements Machine.
func (e *Engine) ClusterUtil(cluster string) float64 {
	i, ok := e.clusterIdx[cluster]
	if !ok {
		return 0
	}
	return e.utils[i]
}

// Throttled implements Machine.
func (e *Engine) Throttled() bool { return e.throttled }

// --- scenario hooks -----------------------------------------------------------

// ScheduleAt registers fn to run at simulated time tS, snapped to the
// nearest tick. Events on the same tick fire in registration order, before
// hardware protection and the governor step of that tick. Calling this
// mid-run (from an event callback) is allowed for strictly future times.
func (e *Engine) ScheduleAt(tS float64, fn func(*Engine) error) error {
	if fn == nil {
		return errors.New("sim: ScheduleAt needs a callback")
	}
	tick := int(tS/TickS + 0.5)
	if tick < 0 {
		return fmt.Errorf("sim: ScheduleAt(%g) is before t=0", tS)
	}
	if e.running && tick <= e.timeTicks {
		return fmt.Errorf("sim: ScheduleAt(%g) is not in the future (t=%g)", tS, e.TimeS())
	}
	ev := schedEvent{tick: tick, fn: fn}
	// Insert into the undelivered tail, keeping tick order; the scan
	// stops at an equal tick, so same-tick events keep registration
	// order.
	pos := len(e.events)
	for pos > e.evIdx && (e.events[pos-1].tick > ev.tick) {
		pos--
	}
	e.events = append(e.events, schedEvent{})
	copy(e.events[pos+1:], e.events[pos:])
	e.events[pos] = ev
	return nil
}

// EnqueueAppPriority submits an application with its work-item partition
// and a scheduling priority (higher runs first; equal priorities run FIFO
// in arrival order). The returned id is the job's handle for CancelJob
// and its tag in Result.JobFinishes/JobCancels.
//
// An idle engine starts the job immediately. An arrival with a strictly
// higher priority than the live job preempts it: the live job's remaining
// CPU/GPU work-items are suspended into the queue and resume — work
// intact — once every higher-priority job has drained. Any other arrival
// queues behind its priority class. Feasibility against the live mapping
// is checked when a job starts or resumes, since the mapping may change
// in between.
func (e *Engine) EnqueueAppPriority(app *workload.App, part mapping.Partition, priority int) (int, error) {
	if app == nil {
		return 0, errors.New("sim: EnqueueAppPriority needs an app")
	}
	if err := app.Validate(); err != nil {
		return 0, err
	}
	if err := part.Validate(); err != nil {
		return 0, err
	}
	j := pendingJob{id: e.nextJobID, app: app, part: part, prio: priority, seq: e.nextSeq}
	e.nextJobID++
	e.nextSeq++
	if e.app == nil {
		if err := e.startJob(j); err != nil {
			return 0, err
		}
		return j.id, nil
	}
	if priority > e.curPrio {
		// Preemption: park the live job with its remaining work, then
		// start the arrival. Suspension cannot fail; the start can (an
		// infeasible partition), in which case the preemptee resumes on
		// the spot and the error surfaces to the caller.
		e.suspendLive()
		if err := e.startJob(j); err != nil {
			resumeErr := e.startJob(e.popNext())
			if resumeErr != nil {
				return 0, fmt.Errorf("sim: %w (and resuming the preempted job failed: %v)", err, resumeErr)
			}
			return 0, err
		}
		return j.id, nil
	}
	e.insertQueued(j)
	return j.id, nil
}

// QueuedJobs returns the number of submitted-but-not-live jobs (fresh
// arrivals plus suspended preemptees).
func (e *Engine) QueuedJobs() int { return len(e.queue) - e.qHead }

// insertQueued places j by (priority desc, seq asc) into the pending tail.
func (e *Engine) insertQueued(j pendingJob) {
	pos := len(e.queue)
	for pos > e.qHead {
		prev := &e.queue[pos-1]
		if prev.prio > j.prio || (prev.prio == j.prio && prev.seq < j.seq) {
			break
		}
		pos--
	}
	e.queue = append(e.queue, pendingJob{})
	copy(e.queue[pos+1:], e.queue[pos:])
	e.queue[pos] = j
}

// popNext removes and returns the highest-priority pending job. The
// vacated slot is cleared so the backing array does not pin the job's
// *workload.App for the rest of the run; a drained queue resets to offset
// zero so the backing array is reused instead of growing rightwards.
func (e *Engine) popNext() pendingJob {
	j := e.queue[e.qHead]
	e.queue[e.qHead] = pendingJob{}
	e.qHead++
	if e.qHead == len(e.queue) {
		e.queue = e.queue[:0]
		e.qHead = 0
	}
	return j
}

// suspendLive parks the live job — remaining work, partition, identity —
// in the queue and leaves the engine idle. Its original seq keeps it
// ahead of later arrivals in its priority class when it resumes.
func (e *Engine) suspendLive() {
	e.insertQueued(pendingJob{
		id: e.curJobID, app: e.app, part: e.curPart,
		prio: e.curPrio, seq: e.curSeq,
		suspended: true, remCPU: e.remCPU, remGPU: e.remGPU,
	})
	e.app = nil
	e.remCPU, e.remGPU = 0, 0
	e.ratesDirty = true
}

// CancelJob drops a job mid-run — the departure half of an online
// workload. A queued job (fresh or suspended) is removed from the queue;
// the live job stops on the spot, its next-highest-priority successor
// starting immediately, so only the work already done is charged. The
// drop is recorded in Result.JobCancels. Cancelling a job that already
// finished (or was already cancelled) returns ErrJobNotActive; an id the
// engine never issued is an error.
func (e *Engine) CancelJob(id int) error {
	if id <= 0 || id >= e.nextJobID {
		return fmt.Errorf("sim: unknown job id %d", id)
	}
	if e.app != nil && id == e.curJobID {
		e.jobCancels = append(e.jobCancels, JobCancel{
			ID: id, App: e.app.Name, AtS: e.TimeS(), DoneFrac: e.liveDoneFrac(),
		})
		// The live job executed until this moment: its cancellation is
		// workload activity ExecTimeS must cover (a queued cancel is
		// not — the job never ran).
		if t := e.TimeS(); t > e.lastCancelS {
			e.lastCancelS = t
		}
		e.app = nil
		e.remCPU, e.remGPU = 0, 0
		e.ratesDirty = true
		e.rebuildLoads()
		if e.qHead < len(e.queue) {
			return e.startJob(e.popNext())
		}
		return nil
	}
	for k := e.qHead; k < len(e.queue); k++ {
		if e.queue[k].id != id {
			continue
		}
		j := e.queue[k]
		done := 0.0
		if j.suspended {
			done = doneFrac(j.app, j.remCPU, j.remGPU)
		}
		e.jobCancels = append(e.jobCancels, JobCancel{
			ID: id, App: j.app.Name, AtS: e.TimeS(), DoneFrac: done,
		})
		copy(e.queue[k:], e.queue[k+1:])
		e.queue[len(e.queue)-1] = pendingJob{}
		e.queue = e.queue[:len(e.queue)-1]
		if e.qHead == len(e.queue) {
			e.queue = e.queue[:0]
			e.qHead = 0
		}
		return nil
	}
	return ErrJobNotActive
}

// ErrJobNotActive reports a CancelJob target that already finished or was
// already cancelled — a no-op departure, not a configuration error.
var ErrJobNotActive = errors.New("sim: job is not active")

// ErrAborted reports a run cancelled through Config.Done. Run returns it
// (wrapped with the abort time) instead of a Result; callers distinguish
// a cancelled simulation from a failed one with errors.Is.
var ErrAborted = errors.New("sim: run aborted")

// ErrPlatformNetMismatch reports a platform paired with a thermal network
// that cannot carry it: a cluster without a same-named node, or a network
// without the "pkg" node the board-baseline heat is injected into. Before
// the sentinel existed the mismatch surfaced only as ad-hoc construction
// errors (and a sensor for a missing node would read 0 °C forever if it
// got that far), so callers could not distinguish a wrong pairing from
// other configuration mistakes. Detect it with errors.Is.
var ErrPlatformNetMismatch = errors.New("sim: platform/thermal network mismatch")

// ResolveNodes maps a platform onto the thermal network that carries it:
// nodeOf[i] is the node of cluster i (its heat injection site and
// sensor, the node named like the cluster), and pkg is the "pkg" node
// that takes the DRAM and board-baseline heat. A cluster without a node,
// or a network without "pkg", is an error wrapping
// ErrPlatformNetMismatch. sim.New resolves its pair here, the platform
// catalog validates every bundle with it, and every site that turns a
// power breakdown into heat passes the map it returns to InjectHeat.
func ResolveNodes(p *soc.Platform, n *thermal.Network) (nodeOf []int, pkg int, err error) {
	if p == nil {
		return nil, 0, errors.New("sim: Config.Platform is required")
	}
	if n == nil {
		return nil, 0, errors.New("sim: Config.Net is required")
	}
	nodeOf = make([]int, len(p.Clusters))
	for i := range p.Clusters {
		if nodeOf[i] = n.NodeIndex(p.Clusters[i].Name); nodeOf[i] < 0 {
			return nil, 0, fmt.Errorf("%w: thermal network lacks a node for cluster %s", ErrPlatformNetMismatch, p.Clusters[i].Name)
		}
	}
	if pkg = n.NodeIndex("pkg"); pkg < 0 {
		return nil, 0, fmt.Errorf(`%w: thermal network lacks a "pkg" node`, ErrPlatformNetMismatch)
	}
	return nodeOf, pkg, nil
}

// pkgBaselineShare is the fraction of the board baseline power
// (regulators, idle memory, peripherals) that heats the "pkg" node: the
// parts next to the SoC warm the package, the rest of the board warms no
// modelled node. The catalog's networks are calibrated with this split.
const pkgBaselineShare = 0.5

// InjectHeat writes the node heat of the power breakdown bd into inj,
// indexed like the network's nodes: each cluster's power on its node,
// and the DRAM power plus pkgBaselineShare of the board baseline on pkg.
// nodeOf and pkg come from ResolveNodes. It is the one place a power
// breakdown becomes heat, for the engine's ticks and steady states, the
// analytic evaluator and the catalog's full-load checks alike.
//
//teem:hotpath
func InjectHeat(inj []float64, bd *power.Breakdown, nodeOf []int, pkg int) {
	for i := range inj {
		inj[i] = 0
	}
	for i, n := range nodeOf {
		inj[n] += bd.ClusterW(i)
	}
	inj[pkg] += bd.DRAMW + pkgBaselineShare*bd.BaselineW
}

// liveDoneFrac is the executed fraction of the live job's work-items.
func (e *Engine) liveDoneFrac() float64 { return doneFrac(e.app, e.remCPU, e.remGPU) }

// doneFrac is the executed fraction of a job given its remaining work.
func doneFrac(app *workload.App, remCPU, remGPU float64) float64 {
	if app == nil || app.WorkItems <= 0 {
		return 0
	}
	return 1 - (remCPU+remGPU)/float64(app.WorkItems)
}

// startJob makes j the live workload: a fresh job's work-items are split
// by its partition, a suspended one resumes its remaining work intact.
func (e *Engine) startJob(j pendingJob) error {
	remCPU, remGPU := j.remCPU, j.remGPU
	if !j.suspended {
		total := float64(j.app.WorkItems)
		remCPU = float64(j.part.CPUItems(j.app.WorkItems))
		remGPU = total - remCPU
	}
	if remCPU > 0 && e.curMap.CPUCores() == 0 {
		return fmt.Errorf("sim: job %s sends work to the CPU but the mapping uses no CPU cores", j.app.Name)
	}
	if remGPU > 0 && !e.curMap.UseGPU {
		return fmt.Errorf("sim: job %s sends work to the GPU but the mapping does not use it", j.app.Name)
	}
	e.app = j.app
	e.curPart = j.part
	e.curJobID, e.curPrio, e.curSeq = j.id, j.prio, j.seq
	e.remCPU = remCPU
	e.remGPU = remGPU
	e.ratesDirty = true
	e.rebuildLoads()
	e.primeUtils()
	return nil
}

// primeUtils primes utilisation with the live job's pending load, so a
// utilisation-driven governor acting on its first tick sees the work
// about to run instead of dipping to minimum frequency for a period.
// Only clusters the mapping actually uses look busy — an unused cluster
// must read 0 or the governor pins idle silicon at maximum frequency.
func (e *Engine) primeUtils() {
	if e.remCPU > 0 {
		if e.curMap.Big > 0 {
			e.utils[e.bigIdx] = 1
		}
		if e.curMap.Little > 0 {
			e.utils[e.litIdx] = 1
		}
	}
	if e.remGPU > 0 {
		e.utils[e.gpuIdx] = 1
	}
}

// SetGovernor switches the DVFS policy mid-run (nil disables software
// control). During a run the new policy's Start is invoked immediately, as
// if the kernel had just swapped cpufreq governors.
func (e *Engine) SetGovernor(g Governor) error {
	e.cfg.Governor = g
	e.govPure = govIsPure(g)
	e.govStable = false
	if g == nil {
		e.govEvery, e.govQuiet = 0, nil
		return nil
	}
	every, err := periodTicks(g)
	if err != nil {
		return err
	}
	e.govEvery = every
	e.setQuietGov(g, every)
	if e.running {
		return g.Start(e)
	}
	return nil
}

// maxPeriodTicks caps a governor period's tick count. A period that long
// (2.9 million years of 10 ms ticks) acts only at t = 0 in any run, and
// the cap keeps the conversion of a huge finite period well defined.
const maxPeriodTicks = 1 << 53

// MaxRunS bounds a run's MinTimeS and MaxTimeS (New rejects either at or
// past it): maxPeriodTicks ticks, so a run's tick counts convert exactly.
// A scenario's timeline is checked against it too.
const MaxRunS = maxPeriodTicks * TickS

// periodTicks converts g's control period to whole ticks, at least one. The period must be a finite positive number of seconds: int() of
// NaN or ±Inf is implementation-defined, and on amd64 a NaN or infinite
// period made the governor act on every tick.
func periodTicks(g Governor) (int, error) {
	p := g.PeriodS()
	if !(p > 0) || math.IsInf(p, 1) {
		return 0, fmt.Errorf("sim: governor %s has period %g s, want a finite positive duration", g.Name(), p)
	}
	if t := p/TickS + 0.5; t < maxPeriodTicks {
		return max(int(t), 1), nil
	}
	return maxPeriodTicks, nil
}

// SetMapping switches the CPU/GPU mapping mid-run (e.g. a core is taken
// away by another tenant). The live job's remaining work must stay
// feasible on the new mapping.
func (e *Engine) SetMapping(m mapping.Mapping) error {
	big, lit := e.plat.Big(), e.plat.Little()
	if err := m.Validate(big.NumCores, lit.NumCores); err != nil {
		return err
	}
	if e.remCPU > 0 && m.CPUCores() == 0 {
		return errors.New("sim: new mapping uses no CPU cores but CPU work remains")
	}
	if e.remGPU > 0 && !m.UseGPU {
		return errors.New("sim: new mapping drops the GPU but GPU work remains")
	}
	e.curMap = m
	e.ratesDirty = true
	e.rebuildLoads()
	return nil
}

// SetPartition re-splits the live job's remaining work-items between CPU
// and GPU by the new partition (an online repartitioning decision).
func (e *Engine) SetPartition(p mapping.Partition) error {
	if err := p.Validate(); err != nil {
		return err
	}
	rem := e.remCPU + e.remGPU
	cpu := p.CPUFrac() * rem
	if cpu > 0 && e.curMap.CPUCores() == 0 {
		return errors.New("sim: partition sends work to the CPU but the mapping uses no CPU cores")
	}
	if rem-cpu > 0 && !e.curMap.UseGPU {
		return errors.New("sim: partition sends work to the GPU but the mapping does not use it")
	}
	e.curPart = p
	e.remCPU = cpu
	e.remGPU = rem - cpu
	e.ratesDirty = true
	return nil
}

// dispatchEvents fires every event due at the current tick. Kept out of
// tick so the steady-state path pays only the guarding compare.
func (e *Engine) dispatchEvents() error {
	for e.evIdx < len(e.events) && e.events[e.evIdx].tick <= e.timeTicks {
		ev := e.events[e.evIdx]
		e.evIdx++
		if err := ev.fn(e); err != nil {
			return fmt.Errorf("sim: event at t=%gs: %w", float64(ev.tick)*TickS, err)
		}
	}
	return nil
}

// --- run loop ---------------------------------------------------------------

// Run executes the configured workload — plus any queued arrivals and
// scheduled events — to completion (or MaxTimeS). An engine runs once;
// reusing it would replay the policy on exhausted work and duplicate trace
// samples, so a second Run is rejected.
func (e *Engine) Run() (*Result, error) {
	if e.running {
		return nil, errors.New("sim: Run called twice on one engine (build a new engine per run)")
	}
	e.running = true
	dt := TickS
	e.primeUtils()
	if err := e.SetGovernor(e.cfg.Governor); err != nil {
		return nil, err
	}
	e.recEvery = int(recordPeriodS/dt + 0.5)
	// Round like ScheduleAt and minTicks do: truncation would let a
	// horizon-clamped MaxTimeS end the loop one tick before a final
	// scheduled event, leaving it undelivered.
	maxTicks := int(e.cfg.MaxTimeS/dt + 0.5)
	minTicks := int(e.cfg.MinTimeS/dt + 0.5)

	for e.timeTicks < maxTicks {
		// Event-horizon fast path: replay a provably steady interval in
		// one exact affine application, or advance it in record segments
		// or walk it when a temperature guard refuses the jump. When
		// none advanced, the ordinary tick below runs.
		if advanced, err := e.superstep(dt, maxTicks, minTicks); err != nil {
			return nil, err
		} else if advanced {
			if e.drained() && e.timeTicks >= minTicks {
				break
			}
			continue
		}
		finishedAt, err := e.tick(dt)
		if err != nil {
			return nil, err
		}
		if finishedAt >= 0 {
			// The live job completed inside this tick; the next
			// pending job (highest priority first) starts on the
			// following tick.
			e.lastFinishS = float64(e.timeTicks)*dt + finishedAt
			e.jobFinishes = append(e.jobFinishes, JobFinish{ID: e.curJobID, App: e.app.Name, AtS: e.lastFinishS})
			e.app = nil
			e.ratesDirty = true
			e.rebuildLoads()
			if e.QueuedJobs() > 0 {
				if err := e.startJob(e.popNext()); err != nil {
					return nil, err
				}
			}
		}
		e.timeTicks++
		if e.drained() && e.timeTicks >= minTicks {
			break
		}
	}
	completed := e.drained()
	// ExecTimeS is the time workload execution last stopped: the final
	// job finish, or a later live-job cancellation (the engine executed
	// — and charged energy for — that job's work until the drop).
	execTime := e.lastFinishS
	if e.lastCancelS > execTime {
		execTime = e.lastCancelS
	}
	if !completed {
		execTime = float64(e.timeTicks) * dt
	} else if execTime == 0 && len(e.jobFinishes) == 0 {
		// A drained run with no workload activity at all — fully idle
		// under MinTimeS — has no "last stop" to report; its execution
		// time is the simulated horizon, not the zero value of the
		// bookkeeping.
		execTime = float64(e.timeTicks) * dt
	}
	// Final trace sample so metrics cover the full run. A drained engine
	// closes with a self-consistent idle sample (zero utilisation AND
	// idle power); an aborted one records the last tick's still-busy
	// state, which e.utils and e.bd already hold as a consistent pair.
	if completed {
		for i := range e.utils {
			e.utils[i] = 0
		}
		if err := e.evalPower(0, 0, 0, 0); err != nil {
			return nil, err
		}
	}
	if err := e.record(e.bd.TotalW()); err != nil {
		return nil, err
	}

	bigNode := e.nodeOf[e.bigIdx]
	res := &Result{
		Completed:       completed,
		ExecTimeS:       execTime,
		EnergyJ:         e.meter.EnergyJ(),
		AvgPowerW:       e.meter.AvgPowerW(),
		AvgTempC:        e.sum.avgTemp(bigNode),
		PeakTempC:       e.peakC[bigNode],
		PeakTempsC:      append([]float64(nil), e.peakC...),
		TempVarC2:       e.sum.tempVariance(),
		TempGradCps:     e.sum.tempGradient(),
		AvgBigFreqMHz:   e.sum.avgFreqMHz(),
		FreqTransitions: e.transitions,
		ThrottleEvents:  e.throttleEvents,
		JobFinishes:     e.jobFinishes,
		JobCancels:      e.jobCancels,
		Stats:           e.stats,
	}
	if !e.cfg.DiscardTrace {
		res.Trace = e.tr
	}
	return res, nil
}

// tick advances one simulation step of dt seconds: scheduled events,
// hardware protection, governor control, workload, power, thermal,
// metering and trace recording. It allocates nothing at steady state. A
// non-negative finishedAt is the in-tick offset at which the live job
// completed.
//
//teem:hotpath
func (e *Engine) tick(dt float64) (finishedAt float64, err error) {
	// Cancellation: one non-blocking receive per tick, so an abort is
	// observed within a single simulation step. The nil check keeps the
	// tick of a run that cannot be cancelled free of the call.
	if e.cfg.Done != nil {
		if err := e.aborted(); err != nil {
			return -1, err
		}
	}
	// Scheduled scenario events: one compare when none are due.
	if e.evIdx < len(e.events) && e.events[e.evIdx].tick <= e.timeTicks {
		if err := e.dispatchEvents(); err != nil {
			return -1, err
		}
	}
	// Hardware thermal protection (checked every tick, like the TMU
	// interrupt).
	e.hwProtect()
	// Flight recorder: one tick executed. Per-phase timing below reads
	// the pre-acquired clock only when the caller opted in (clk != nil);
	// the default run performs zero clock reads.
	e.stats.Ticks++
	clk := e.clock
	var t0 int64
	if clk != nil {
		t0 = clk()
	}
	// Governor control step. An epoch of a util-only policy that changed
	// no frequency is a fixed point: record the utilisations it saw so
	// supersteps may cross later epochs while they (and the frequencies,
	// guarded by setFreq) stay unchanged.
	if e.govEvery > 0 && e.timeTicks%e.govEvery == 0 {
		e.stats.GovernorEpochs++
		pre := e.transitions
		copy(e.govUtils, e.utils)
		if err := e.cfg.Governor.Act(e); err != nil {
			return -1, err
		}
		e.govStable = e.govPure && e.transitions == pre
	}
	if clk != nil {
		t1 := clk()
		e.stats.GovernorNanos += t1 - t0
		t0 = t1
	}
	// Advance workload.
	cpuBusy, gpuBusy, rateCPU, rateGPU, finishedAt := e.advanceWork(dt)
	bigBusy, litBusy := e.cpuUtils(cpuBusy)
	e.setUtils(bigBusy, litBusy, gpuBusy)
	if clk != nil {
		t1 := clk()
		e.stats.QueueNanos += t1 - t0
		t0 = t1
	}

	// Power and thermal.
	if err := e.evalPower(cpuBusy, gpuBusy, rateCPU, rateGPU); err != nil {
		return -1, err
	}
	if clk != nil {
		t1 := clk()
		e.stats.PowerNanos += t1 - t0
		t0 = t1
	}
	if err := e.stepThermal(dt); err != nil {
		return -1, err
	}
	if clk != nil {
		e.stats.ThermalNanos += clk() - t0
	}
	e.foldPeaks()
	total := e.bd.TotalW()
	if err := e.meter.Observe(e.TimeS(), total); err != nil {
		return -1, err
	}
	if e.timeTicks%e.recEvery == 0 {
		if err := e.record(total); err != nil {
			return -1, err
		}
	}
	return finishedAt, nil
}

// aborted returns the error a run ends with once Config.Done has closed,
// and nil before that or when the run is not cancellable: one
// non-blocking receive, so polling allocates nothing.
//
//teem:hotpath
func (e *Engine) aborted() error {
	if e.cfg.Done == nil {
		return nil
	}
	select {
	case <-e.cfg.Done:
		return fmt.Errorf("aborted at t=%gs: %w", e.TimeS(), ErrAborted)
	default:
		return nil
	}
}

// tmuFires reports that the firmware protection check of the tick about
// to run would change state: trip when unthrottled at or above TripC,
// release when throttled below TripReleaseC. Never with
// DisableHWProtect.
//
//teem:hotpath
func (e *Engine) tmuFires() bool {
	return e.tmuFiresAt(e.therm.Temp(e.nodeOf[e.bigIdx]))
}

// tmuFiresAt is tmuFires at big-node temperature t.
//
//teem:hotpath
func (e *Engine) tmuFiresAt(t float64) bool {
	if e.cfg.DisableHWProtect {
		return false
	}
	if e.throttled {
		return t < e.plat.TripReleaseC
	}
	return t >= e.plat.TripC
}

// hwProtect applies the firmware trip/release behaviour on the big cluster.
//
//teem:hotpath
func (e *Engine) hwProtect() {
	if !e.tmuFires() {
		return
	}
	if e.throttled {
		e.throttled = false
		e.stats.TMUReleases++
		if e.preThrottleMHz > e.freqs[e.bigIdx] {
			e.setFreq(e.bigIdx, e.preThrottleMHz)
			e.transitions++
		}
		return
	}
	e.throttled = true
	e.throttleEvents++
	e.stats.TMUTrips++
	e.preThrottleMHz = e.freqs[e.bigIdx]
	capMHz := e.plat.Clusters[e.bigIdx].FloorOPP(e.plat.TripCapMHz).FreqMHz
	if e.freqs[e.bigIdx] > capMHz {
		e.setFreq(e.bigIdx, capMHz)
		e.transitions++
	}
}

// cpuUtils is the utilisation the big and LITTLE clusters report for a
// CPU chunk busy fraction. Only clusters the live mapping uses report
// it: governors must see idle silicon as idle, not inherit the busy
// clusters' utilisation.
//
//teem:hotpath
func (e *Engine) cpuUtils(cpuBusy float64) (big, lit float64) {
	big, lit = cpuBusy, cpuBusy
	if e.curMap.Big == 0 {
		big = 0
	}
	if e.curMap.Little == 0 {
		lit = 0
	}
	return big, lit
}

// setUtils publishes the cluster utilisations of a tick.
//
//teem:hotpath
func (e *Engine) setUtils(bigBusy, litBusy, gpuBusy float64) {
	e.utils[e.bigIdx] = bigBusy
	e.utils[e.litIdx] = litBusy
	e.utils[e.gpuIdx] = gpuBusy
}

// foldPeaks folds the post-step state into every node's running maximum.
//
//teem:hotpath
func (e *Engine) foldPeaks() {
	for i := range e.peakC {
		if t := e.therm.Temp(i); t > e.peakC[i] {
			e.peakC[i] = t
		}
	}
}

// advanceWork moves the CPU and GPU chunks forward by up to dt and returns
// the busy fractions of the tick, the work-item rates in effect (for the
// memory-traffic model, avoiding a second roofline evaluation) plus, when
// everything finished inside the tick, the offset (< dt) at which the last
// chunk completed (-1 otherwise, including on idle ticks with no live
// job, so an idle engine does not report a completion every tick).
//
//teem:hotpath
func (e *Engine) advanceWork(dt float64) (cpuBusy, gpuBusy, rateCPU, rateGPU, finishedAt float64) {
	finishedAt = -1
	hadWork := e.remCPU > 0 || e.remGPU > 0
	cpuBusy = 0
	cpuDone := e.remCPU <= 0
	if !cpuDone {
		rateCPU, _ = e.rates()
		if rateCPU > 0 {
			need := e.remCPU / rateCPU
			if need >= dt {
				e.remCPU -= float64(rateCPU * dt)
				cpuBusy = 1
			} else {
				e.remCPU = 0
				cpuBusy = need / dt
			}
		}
	}
	gpuBusy = 0
	gpuDone := e.remGPU <= 0
	if !gpuDone {
		_, rateGPU = e.rates()
		if rateGPU > 0 {
			need := e.remGPU / rateGPU
			if need >= dt {
				e.remGPU -= float64(rateGPU * dt)
				gpuBusy = 1
			} else {
				e.remGPU = 0
				gpuBusy = need / dt
			}
		}
	}
	if hadWork && e.remCPU <= 0 && e.remGPU <= 0 {
		// Finished within this tick: the later chunk defines the
		// offset.
		off := cpuBusy * dt
		if g := gpuBusy * dt; g > off {
			off = g
		}
		finishedAt = off
	}
	return cpuBusy, gpuBusy, rateCPU, rateGPU, finishedAt
}

// evalPower builds per-cluster loads for the current tick and evaluates
// the board power into the engine-owned breakdown. rateCPU/rateGPU are the
// work-item rates advanceWork ran at (consulted only when the matching
// busy fraction is non-zero).
//
//teem:hotpath
func (e *Engine) evalPower(cpuBusy, gpuBusy, rateCPU, rateGPU float64) error {
	for i := range e.loads {
		e.setLoad(&e.loads[i], i, cpuBusy, gpuBusy, e.therm.Temp(e.nodeOf[i]))
	}
	return e.pow.EvaluateInto(&e.bd, e.loads, e.memGBs(cpuBusy, gpuBusy, rateCPU, rateGPU))
}

// setLoad refreshes the per-tick fields of l, cluster i's load, for the
// current frequencies, the given chunk busy fractions and junction
// temperature; a cluster running no cores reports idle. The
// configuration-static fields are left as they are.
//
//teem:hotpath
func (e *Engine) setLoad(l *power.ClusterLoad, i int, cpuBusy, gpuBusy, tempC float64) {
	l.FreqMHz = e.freqs[i]
	l.VoltV = e.volts[i]
	l.TempC = tempC
	var busy float64
	switch i {
	case e.bigIdx, e.litIdx:
		busy = cpuBusy
	case e.gpuIdx:
		busy = gpuBusy
	}
	if l.ActiveCores == 0 {
		busy = 0
	}
	l.Utilization = busy
}

// memGBs is the DRAM traffic of a tick: it follows the aggregate
// processing rate of the live app (an idle engine generates none).
// rateCPU/rateGPU are consulted only when the matching busy fraction is
// non-zero.
//
//teem:hotpath
func (e *Engine) memGBs(cpuBusy, gpuBusy, rateCPU, rateGPU float64) float64 {
	if e.app == nil {
		return 0
	}
	memRate := 0.0
	if cpuBusy > 0 {
		memRate += rateCPU * cpuBusy
	}
	if gpuBusy > 0 {
		memRate += rateGPU * gpuBusy
	}
	return e.app.MemGBs(memRate)
}

// stepThermal injects the power breakdown into the RC network for one
// tick of dt: the exact propagator, or substepped Euler for
// IntegratorEuler runs.
//
//teem:hotpath
func (e *Engine) stepThermal(dt float64) error {
	InjectHeat(e.inj, &e.bd, e.nodeOf, e.pkgNode)
	if e.stepper != nil {
		return e.stepper.Step(e.inj)
	}
	return e.therm.Step(e.inj, dt)
}

// record folds a sample into the run summaries and appends it to the
// trace; Append copies, so the engine's scratch buffers can be handed
// over directly.
//
//teem:hotpath
func (e *Engine) record(totalW float64) error {
	e.therm.CopyTemps(e.recTemps)
	return e.sample(e.timeTicks, totalW)
}

// sample records the sample of tick k with the state in e.recTemps, the
// state the tick leaves, and power totalW: record's work for a tick a
// jump crossed.
//
//teem:hotpath
func (e *Engine) sample(k int, totalW float64) error {
	if e.sum.n == 0 {
		e.beginRecording()
	}
	t := float64(k) * TickS
	e.sum.add(t, e.recTemps, e.freqs[e.bigIdx])
	if e.tr == nil {
		return nil
	}
	err := e.tr.Append(trace.Sample{
		TimeS:    t,
		TempsC:   e.recTemps,
		FreqsMHz: e.freqs,
		PowerW:   totalW,
		Utils:    e.utils,
	})
	if err != nil {
		return err
	}
	if e.cfg.OnSample != nil {
		// Hand the subscriber the appended sample: its slices are the
		// trace's arena-backed copies, stable for the trace's lifetime,
		// so streaming needs no second copy.
		e.cfg.OnSample(e.tr.Samples[len(e.tr.Samples)-1])
	}
	return nil
}

// maxHorizonSamples bounds the trace samples reserved for a scenario
// horizon: a jump records only the meter instants inside it, so a long
// horizon can span far more record periods than the run records (the
// trace bounds its arena blocks the same way).
const maxHorizonSamples = 1024

// sizing is how many trace samples this run is expected to record (0:
// unknown), from what the engine knows of its length instead of the
// MaxTimeS budget: a RunWarm measured run inherits its warm-up's count,
// a scenario run is sized for its horizon (MinTimeS), and anything else
// starts small and grows geometrically.
func (e *Engine) sizing() int {
	if e.inherit > 0 {
		return e.inherit
	}
	if h := e.cfg.MinTimeS; h > 0 {
		return min(int(h/recordPeriodS)+2, maxHorizonSamples)
	}
	return 0
}

// beginRecording allocates the recording state at the run's first
// sample, so an engine that never runs (WarmStartTemps) allocates none.
func (e *Engine) beginRecording() {
	n := e.sizing()
	e.sum.init(len(e.sys.net.Nodes), e.nodeOf[e.bigIdx], n, !e.warmUp)
	if e.cfg.DiscardTrace && e.cfg.OnSample == nil {
		// No caller reads the series; a subscriber still needs the
		// trace's arena-backed samples.
		return
	}
	nodeNames := make([]string, len(e.sys.net.Nodes))
	for i, nd := range e.sys.net.Nodes {
		nodeNames[i] = nd.Name
	}
	clusterNames := make([]string, len(e.plat.Clusters))
	for i := range e.plat.Clusters {
		clusterNames[i] = e.plat.Clusters[i].Name
	}
	e.tr = trace.NewWithCap(nodeNames, clusterNames, n)
}

// SteadyTemps computes the equilibrium temperatures of a hypothetical
// constant operating point — used by warm-start helpers and calibration.
func (e *Engine) SteadyTemps(cpuBusy, gpuBusy float64) ([]float64, error) {
	if e.app == nil {
		return nil, errors.New("sim: SteadyTemps needs a live app")
	}
	rateCPU, rateGPU := e.rates()
	if err := e.evalPower(cpuBusy, gpuBusy, rateCPU, rateGPU); err != nil {
		return nil, err
	}
	InjectHeat(e.inj, &e.bd, e.nodeOf, e.pkgNode)
	return e.therm.SteadyState(e.inj)
}

// warmStartFreq is the operating point of the warm start: a mid-level
// big frequency, as after back-to-back benchmark runs.
var warmStartFreq = mapping.FreqSetting{BigMHz: 1400, LittleMHz: 1400, GPUMHz: 600}

// warmStart sets e, an engine built at ambient that has not run, to
// the warm-start state: the steady temperatures of its job, fully busy,
// at warmStartFreq. It leaves e at its configured frequencies.
func (e *Engine) warmStart() error {
	e.setFreqs(warmStartFreq)
	t, err := e.SteadyTemps(1, 1)
	e.setFreqs(e.cfg.Freq)
	if err != nil {
		return err
	}
	if err := finiteTemps(t); err != nil {
		return err
	}
	return e.therm.SetTemps(t)
}

// WarmStartTemps returns a realistic pre-heated state: the steady
// temperatures of running the configured job at a mid-level big frequency
// (1400 MHz), as after back-to-back benchmark runs — the experimental
// protocol of the paper.
func WarmStartTemps(cfg Config) ([]float64, error) {
	cfg.InitialTempsC = nil
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.warmStart(); err != nil {
		return nil, err
	}
	return e.FinalTemps(), nil
}

// FinalTemps returns the node temperatures at the end of a run. Passed
// as the next engine's InitialTempsC, they continue the chip's trajectory
// across runs (see examples/campaign).
func (e *Engine) FinalTemps() []float64 { return e.therm.Temps() }

// SetAmbientC changes the ambient temperature mid-run — e.g. to model the
// device moving into direct sunlight while an online manager reacts.
func (e *Engine) SetAmbientC(t float64) { e.therm.SetAmbientC(t) }

// RunWarm reproduces the paper's measurement protocol: execute the job
// once as a discarded warm-up (starting from WarmStartTemps) so the
// package reaches its operating regime, then run again from the resulting
// temperatures and report that steady-regime run. The warm-up engine
// solves its own warm start before it runs, and its regime comes from a
// single run's summaries — engines run exactly once. The warm-up records
// no trace unless cfg.OnSample subscribes to its samples, and no series
// for a temperature variance nobody reads.
func RunWarm(cfg Config) (*Result, error) {
	warmUp := cfg
	warmUp.InitialTempsC, warmUp.DiscardTrace = nil, true
	e1, err := New(warmUp)
	if err != nil {
		return nil, err
	}
	if err := e1.warmStart(); err != nil {
		return nil, err
	}
	e1.warmUp = true
	if _, err := e1.Run(); err != nil {
		return nil, err
	}
	// Start the measured run at the warm-up's time-averaged node
	// temperatures: the thermal regime a continuous benchmarking
	// campaign sits in (mid-sawtooth for throttling governors).
	regime := make([]float64, len(cfg.Net.Nodes))
	for i := range regime {
		regime[i] = e1.sum.avgTemp(i)
	}
	cfg.InitialTempsC = regime
	e2, err := New(cfg)
	if err != nil {
		return nil, err
	}
	// The measured run repeats the warm-up's job, so it records about as
	// many samples.
	e2.inherit = e1.sum.n
	return e2.Run()
}
