package teem

import (
	"io"

	"teem/internal/baseline"
	"teem/internal/buildinfo"
	"teem/internal/core"
	"teem/internal/experiments"
	"teem/internal/governor"
	"teem/internal/mapping"
	"teem/internal/platform"
	"teem/internal/profile"
	"teem/internal/regress"
	"teem/internal/scenario"
	"teem/internal/service"
	"teem/internal/sim"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/trace"
	"teem/internal/workload"
)

// --- platform description (internal/soc) -------------------------------------

// Platform describes an MPSoC: clusters, OPP tables, thermal trip points.
type Platform = soc.Platform

// Cluster is one voltage/frequency island.
type Cluster = soc.Cluster

// OPP is an operating performance point (frequency + voltage).
type OPP = soc.OPP

// ClusterKind tags clusters as big CPU, LITTLE CPU or GPU.
type ClusterKind = soc.ClusterKind

// Cluster kinds.
const (
	BigCPU    = soc.BigCPU
	LittleCPU = soc.LittleCPU
	GPUKind   = soc.GPU
)

// Exynos5422 returns the Samsung Exynos 5422 (Odroid-XU4) platform model.
func Exynos5422() *Platform { return soc.Exynos5422() }

// Exynos5410 returns the Samsung Exynos 5410 (Odroid-XU) platform model —
// a second preset demonstrating platform independence.
func Exynos5410() *Platform { return soc.Exynos5410() }

// LoadPlatform reads a platform description from JSON (write one with
// Platform.Save).
func LoadPlatform(r io.Reader) (*Platform, error) { return soc.LoadPlatform(r) }

// --- thermal model (internal/thermal) ----------------------------------------

// ThermalNetwork is a lumped RC thermal topology.
type ThermalNetwork = thermal.Network

// ThermalNode is one thermal mass.
type ThermalNode = thermal.Node

// ThermalLink is a thermal resistance between nodes (or to Ambient).
type ThermalLink = thermal.Link

// Ambient is the boundary pseudo-node index for ThermalLink.B.
const Ambient = thermal.Ambient

// Exynos5422Thermal returns the calibrated RC network of the Exynos 5422
// as mounted on the Odroid-XU4.
func Exynos5422Thermal() *ThermalNetwork { return thermal.Exynos5422Network() }

// Exynos5410Thermal returns the calibrated RC network of the Exynos 5410
// as mounted on the original Odroid-XU.
func Exynos5410Thermal() *ThermalNetwork { return thermal.Exynos5410Network() }

// LoadThermalNetwork reads an RC topology from JSON (write one with
// ThermalNetwork.Save).
func LoadThermalNetwork(r io.Reader) (*ThermalNetwork, error) { return thermal.LoadNetwork(r) }

// --- platform catalog (internal/platform) --------------------------------------

// PlatformBundle is one hardware-catalog entry: a SoC description, the
// thermal network it is calibrated against, and catalog metadata
// (deployment class, accelerator slots), validated as a unit.
type PlatformBundle = platform.Bundle

// PlatformClass buckets platforms by deployment segment (edge, mobile,
// server).
type PlatformClass = platform.Class

// AcceleratorSlot is a fixed-function accelerator attached to a
// platform (NPU, DSP, ISP, ...).
type AcceleratorSlot = platform.AcceleratorSlot

// Deployment classes.
const (
	PlatformEdge   = platform.Edge
	PlatformMobile = platform.Mobile
	PlatformServer = platform.Server
)

// DefaultPlatformName is the catalog name of the default platform — the
// paper's Exynos 5422 evaluation board.
const DefaultPlatformName = platform.DefaultName

// PlatformNames lists the builtin platform catalog in sorted order.
func PlatformNames() []string { return platform.Names() }

// GetPlatform resolves a builtin platform by catalog name, returning a
// fresh copy.
func GetPlatform(name string) (*PlatformBundle, error) { return platform.Get(name) }

// DefaultPlatform returns the default catalog platform (exynos5422).
func DefaultPlatform() *PlatformBundle { return platform.Default() }

// ResolvePlatform interprets ref as a builtin catalog name first and a
// bundle JSON file path second.
func ResolvePlatform(ref string) (*PlatformBundle, error) { return platform.Resolve(ref) }

// LoadPlatformBundle reads and validates a platform bundle from JSON
// (write one with PlatformBundle.Save).
func LoadPlatformBundle(r io.Reader) (*PlatformBundle, error) { return platform.Load(r) }

// VerifyPlatform runs the catalog-wide validation suite over a bundle —
// OPP monotonicity, sensor-node resolution, network connectivity and
// stability, power-model sanity, trip-release viability — returning its
// findings (empty = known-good).
func VerifyPlatform(b *PlatformBundle) []string { return platform.Verify(b) }

// ThermalModel integrates node temperatures over time (substepped
// explicit Euler reference integrator plus a direct steady-state solver).
type ThermalModel = thermal.Model

// ThermalStepper advances a ThermalModel with the precomputed exact
// discrete-time propagator — the zero-allocation fixed-step integrator
// behind every simulation tick. Build one with ThermalModel.NewStepper.
type ThermalStepper = thermal.Stepper

// NewThermalModel builds an RC thermal model with every node starting at
// the ambient temperature.
func NewThermalModel(net *ThermalNetwork, ambientC float64) (*ThermalModel, error) {
	return thermal.NewModel(net, ambientC)
}

// --- workloads (internal/workload) -------------------------------------------

// App models one OpenCL application's execution characteristics.
type App = workload.App

// Kernel is a runnable, row-partitionable Polybench kernel port.
type Kernel = workload.Kernel

// Apps returns the paper's eight Polybench applications.
func Apps() []*App { return workload.Apps() }

// AppByShort resolves a paper code (2D, CV, GM/GE, 2M, MV, S2, SR, CR).
func AppByShort(code string) (*App, error) { return workload.ByShort(code) }

// AppByName resolves a Polybench name (e.g. "COVARIANCE").
func AppByName(name string) (*App, error) { return workload.ByName(name) }

// Covariance returns the Fig. 1 motivation application.
func Covariance() *App { return workload.Covariance() }

// NewKernel builds the real kernel for an app name with problem size n.
func NewKernel(appName string, n int) (Kernel, error) { return workload.NewKernel(appName, n) }

// RunPartitioned executes a kernel with cpuFrac of each phase on nCPU
// concurrent workers and the rest on a throughput worker, mimicking
// OpenCL work-item partitioning.
func RunPartitioned(k Kernel, cpuFrac float64, nCPU int) error {
	return workload.RunPartitioned(k, cpuFrac, nCPU)
}

// --- design points (internal/mapping) ----------------------------------------

// Mapping selects CPU cores (and GPU use) for an application.
type Mapping = mapping.Mapping

// Partition splits work-items between CPU and GPU.
type Partition = mapping.Partition

// FreqSetting is a cluster-wise DVFS choice.
type FreqSetting = mapping.FreqSetting

// DesignPoint is a mapping × frequency × partition triple.
type DesignPoint = mapping.DesignPoint

// Space enumerates a platform's design space (Eqs. 1–2).
type Space = mapping.Space

// NewSpace builds the design space of a platform.
func NewSpace(p *Platform) (*Space, error) { return mapping.NewSpace(p) }

// Partitions returns the paper's nine work-item partition grains.
func Partitions() []Partition { return mapping.Partitions() }

// NearestPartition snaps a CPU fraction to the closest grain.
func NearestPartition(cpuFrac float64) Partition { return mapping.NearestPartition(cpuFrac) }

// --- simulation (internal/sim) ------------------------------------------------

// SimConfig assembles a co-simulation run.
type SimConfig = sim.Config

// Integrator selects the thermal stepping scheme of a run (SimConfig
// field): the exact precomputed propagator (default) or the substepped
// explicit-Euler reference.
type Integrator = sim.Integrator

// Integrator choices for SimConfig.Integrator.
const (
	IntegratorExact = sim.IntegratorExact
	IntegratorEuler = sim.IntegratorEuler
)

// SimResult summarises a run (execution time, energy, temperatures,
// effective frequency, trace).
type SimResult = sim.Result

// Machine is the restricted hardware view governors drive.
type Machine = sim.Machine

// Governor is a DVFS policy plugged into the engine.
type Governor = sim.Governor

// Engine executes one configured run.
type Engine = sim.Engine

// Trace is a recorded simulation time series.
type Trace = trace.Trace

// NewEngine validates a configuration and builds an engine.
func NewEngine(cfg SimConfig) (*Engine, error) { return sim.New(cfg) }

// RunWarm executes a run with the paper's steady-regime measurement
// protocol (discarded warm-up, then the measured run).
func RunWarm(cfg SimConfig) (*SimResult, error) { return sim.RunWarm(cfg) }

// WarmStartTemps returns the pre-heated thermal state of back-to-back
// benchmarking (steady state of a mid-frequency run of the same job).
func WarmStartTemps(cfg SimConfig) ([]float64, error) { return sim.WarmStartTemps(cfg) }

// --- scenarios (internal/scenario) --------------------------------------------

// Scenario is a declarative dynamic-workload description: application
// arrivals with priorities and deadlines (a higher-priority arrival
// preempts the live job, which resumes with its remaining work intact),
// departures that cancel a queued or live job, ambient steps and ramps,
// mid-run governor / partition / mapping switches, and assertions — the
// online situations an adaptive manager must survive.
type Scenario = scenario.Scenario

// ScenarioEvent is one timeline entry of a Scenario.
type ScenarioEvent = scenario.Event

// ScenarioBuilder assembles a Scenario fluently (NewScenario).
type ScenarioBuilder = scenario.Builder

// ScenarioConfig parameterises scenario execution (platform, integrator,
// governor override, custom governor registry).
type ScenarioConfig = scenario.Config

// ScenarioResult is one executed scenario × governor cell;
// ScenarioGridResult a whole platform × scenario × governor grid (nil
// Platforms when it ran on the configured hardware).
type (
	ScenarioResult     = scenario.Result
	ScenarioGridResult = scenario.PlatformGridResult
)

// GovernorFactory builds a fresh governor per scenario run.
type GovernorFactory = scenario.GovernorFactory

// JobFinish records one application completion inside a run; JobCancel
// one job dropped mid-run by a departure (CancelJob), charged only the
// work it had done.
type (
	JobFinish = sim.JobFinish
	JobCancel = sim.JobCancel
)

// ArrivalTrace is a recorded arrival log (who arrived when, at what
// priority, with what deadline, how long the tenant stayed); TraceRecord
// is one of its entries. CompileArrivalTrace turns one into a Scenario —
// trace-driven replay.
type (
	ArrivalTrace = scenario.ArrivalTrace
	TraceRecord  = scenario.TraceRecord
)

// NewScenario starts a scenario builder with the default 2L+4B+GPU
// mapping.
func NewScenario(name string) *ScenarioBuilder { return scenario.New(name) }

// LoadScenario reads a scenario from JSON (write one with Scenario.Save).
func LoadScenario(r io.Reader) (*Scenario, error) { return scenario.Load(r) }

// RunScenario executes one scenario deterministically.
func RunScenario(sc *Scenario, rc ScenarioConfig) (*ScenarioResult, error) {
	return scenario.Run(sc, rc)
}

// RunScenarioGrid fans a scenario × governor matrix out across a bounded
// worker pool (workers: 0 = one per CPU, 1 = serial); output is
// byte-identical either way.
func RunScenarioGrid(scs []*Scenario, governors []string, rc ScenarioConfig, workers int) (*ScenarioGridResult, error) {
	return scenario.RunGrid(scs, governors, rc, workers)
}

// RunScenarioPlatformGrid fans a scenario × governor matrix out across
// every named catalog platform — the hardware axis of the grid. Output
// is byte-identical serial vs parallel, like RunScenarioGrid.
func RunScenarioPlatformGrid(platforms []string, scs []*Scenario, governors []string, rc ScenarioConfig, workers int) (*ScenarioGridResult, error) {
	return scenario.RunPlatformGrid(platforms, scs, governors, rc, workers)
}

// LoadArrivalTrace reads a recorded arrival log from JSON.
func LoadArrivalTrace(r io.Reader) (*ArrivalTrace, error) { return scenario.LoadTrace(r) }

// CompileArrivalTrace compiles a recorded arrival log into a
// deterministic replay Scenario (arrivals with priorities and deadlines;
// holds become departures).
func CompileArrivalTrace(tr *ArrivalTrace) (*Scenario, error) { return scenario.FromTrace(tr) }

// ScenarioPresets returns the built-in scenario corpus (sunlight,
// rush-hour, core-loss, preempt-storm, tenant-churn, replay-sample).
func ScenarioPresets() []*Scenario { return scenario.Presets() }

// ScenarioGovernors lists the stock governor registry names.
func ScenarioGovernors() []string { return scenario.GovernorNames() }

// --- governors (internal/governor) ---------------------------------------------

// NewOndemand returns the Linux ondemand governor with kernel defaults —
// the paper's Fig. 1(a) baseline when combined with the TMU.
func NewOndemand() Governor { return governor.NewOndemand() }

// NewPerformance returns the performance governor (max frequency).
func NewPerformance() Governor { return governor.Performance{} }

// NewPowersave returns the powersave governor (min frequency).
func NewPowersave() Governor { return governor.Powersave{} }

// NewConservative returns the conservative governor.
func NewConservative() Governor { return governor.NewConservative() }

// NewUserspace returns a governor pinning the given frequencies (zero
// fields mean cluster maximum).
func NewUserspace(bigMHz, littleMHz, gpuMHz int) Governor {
	return &governor.Userspace{BigMHz: bigMHz, LittleMHz: littleMHz, GPUMHz: gpuMHz}
}

// --- TEEM (internal/core) -------------------------------------------------------

// Params are the TEEM controller knobs (threshold, δ, floor, period).
type Params = core.Params

// Manager owns offline profiles and makes online decisions.
type Manager = core.Manager

// AppModel is a fitted per-application model (Eq. 6 + stored ETGPU).
type AppModel = core.AppModel

// Decision is an online design-point selection.
type Decision = core.Decision

// Controller is the online thermal regulator (a Governor).
type Controller = core.Controller

// DefaultParams returns the paper's configuration: 85 °C threshold,
// 200 MHz steps, 1400 MHz floor.
func DefaultParams() Params { return core.DefaultParams() }

// NewManager builds a TEEM manager for a platform and thermal network.
func NewManager(p *Platform, n *ThermalNetwork, params Params) (*Manager, error) {
	return core.NewManager(p, n, params)
}

// NewController returns a standalone TEEM controller for use as a
// Governor.
func NewController(params Params) *Controller { return core.NewController(params) }

// Store is the persistent runtime-model set (see paper section V.D:
// coefficients + ETGPU per app); StoredModel one entry.
type (
	Store       = core.Store
	StoredModel = core.StoredModel
)

// LoadStore reads a runtime-model store from JSON (write one with
// Manager.Export + Store.Save, or teemreport profile -save).
func LoadStore(r io.Reader) (*Store, error) { return core.LoadStore(r) }

// --- baselines (internal/baseline) ----------------------------------------------

// EEMP is the energy-efficient mapping/partitioning baseline [15].
type EEMP = baseline.EEMP

// RMP is the reliable (temperature-aware) mapping baseline [9].
type RMP = baseline.RMP

// NewEEMP builds the EEMP baseline for a CPU mapping.
func NewEEMP(p *Platform, n *ThermalNetwork, m Mapping) (*EEMP, error) {
	return baseline.NewEEMP(p, n, m)
}

// NewRMP builds the RMP baseline for a CPU mapping.
func NewRMP(p *Platform, n *ThermalNetwork, m Mapping) (*RMP, error) {
	return baseline.NewRMP(p, n, m)
}

// --- profiling and regression ----------------------------------------------------

// Evaluator predicts design-point behaviour (analytic or simulated).
type Evaluator = profile.Evaluator

// PointEval is one design-point evaluation.
type PointEval = profile.PointEval

// NewEvaluator builds a design-point evaluator.
func NewEvaluator(p *Platform, n *ThermalNetwork) (*Evaluator, error) {
	return profile.NewEvaluator(p, n)
}

// Dataset is a named regression dataset.
type Dataset = regress.Dataset

// RegressionModel is a fitted OLS model with the full R-style summary.
type RegressionModel = regress.Model

// FitRegression performs OLS with an intercept.
func FitRegression(d *Dataset) (*RegressionModel, error) { return regress.Fit(d) }

// --- experiments -------------------------------------------------------------------

// Experiments regenerates the paper's tables and figures. It is a
// parallel experiment engine: Fig. 5 rows, sweep points and design-space
// enumeration fan out across a bounded worker pool, with caches that are
// single-flight (concurrent callers of the same experiment share one
// computation) and output byte-identical to a serial run.
type Experiments = experiments.Env

// ExperimentOptions configure the engine (worker-pool bound).
type ExperimentOptions = experiments.Options

// Fig1Result, Fig5Result and ModelResult carry experiment outputs.
type (
	Fig1Result  = experiments.Fig1Result
	Fig5Result  = experiments.Fig5Result
	ModelResult = experiments.ModelResult
)

// NewExperiments builds the default experiment environment (Exynos 5422,
// paper parameters, one worker per CPU).
func NewExperiments() (*Experiments, error) { return experiments.NewEnv() }

// NewExperimentsWith builds the experiment environment with explicit
// options (e.g. Workers: 1 for the serial path).
func NewExperimentsWith(o ExperimentOptions) (*Experiments, error) {
	return experiments.NewEnvWith(o)
}

// --- service (internal/service) ------------------------------------------------

// Service hosts simulations as managed jobs behind an HTTP/JSON API —
// the teemd daemon's engine. Jobs (single scenarios, scenario × governor
// grids, Fig. 5 experiments) run on a bounded worker pool, are
// cancellable within one simulation tick, stream live NDJSON telemetry
// through the sim trace-subscriber hook, and collapse identical requests
// onto one execution through a request-hash single-flight cache.
type Service = service.Service

// ServiceOptions configure a Service: worker-pool size, queued-job
// admission bound, the shared experiment environment, how many finished
// jobs stay queryable, the write-ahead journal path, per-tenant quotas,
// the transient-failure retry policy, and fault injection.
type ServiceOptions = service.Options

// TenantQuota bounds one tenant's admission: sustained submissions per
// second (token bucket), burst, and a cap on queued+running jobs.
type TenantQuota = service.TenantQuota

// QuotaConfig is a Service's per-tenant admission policy: a default
// quota plus per-tenant overrides.
type QuotaConfig = service.QuotaConfig

// RetryPolicy governs how transient job failures (recovered worker
// panics) are re-executed: attempt budget, backoff base and cap.
type RetryPolicy = service.RetryPolicy

// FaultConfig injects deterministic failures into a Service for soak
// and chaos testing: forced worker panics, dropped journal appends and
// slowed grid cells.
type FaultConfig = service.FaultConfig

// RetryError is an admission rejection carrying a backoff hint; the
// HTTP layer renders it as 429 with a Retry-After header.
type RetryError = service.RetryError

// ServiceJob is one managed simulation inside a Service: poll it with
// Snapshot, read a finished run with Result, follow live telemetry with
// Stream, and abort it with RequestCancel.
type ServiceJob = service.Job

// JobRequest describes one unit of simulation work submitted to a
// Service: an inline scenario, a recorded arrival trace, a preset name,
// a preset grid, or a Fig. 5 mapping, plus governors and integrator.
type JobRequest = service.JobRequest

// JobStatus is the wire snapshot of a managed job: id, kind, lifecycle
// state, timestamps, latency, error and result summary.
type JobStatus = service.JobStatus

// JobState is a managed job's lifecycle state (queued, running, done,
// failed, cancelled).
type JobState = service.Status

// Managed-job lifecycle states.
const (
	JobQueued    = service.StatusQueued
	JobRunning   = service.StatusRunning
	JobDone      = service.StatusDone
	JobFailed    = service.StatusFailed
	JobCancelled = service.StatusCancelled
)

// Managed-job kinds for JobRequest.Kind.
const (
	JobKindScenario = service.KindScenario
	JobKindGrid     = service.KindGrid
	JobKindFig5     = service.KindFig5
)

// JobResultSummary is the machine-readable half of a finished job
// (cells, Fig. 5 rows, assertion violations).
type JobResultSummary = service.ResultSummary

// ServiceMetrics is the read-only view of a Service's operational
// counters: jobs queued/running/done/failed/cancelled/shed/retried,
// request-cache hits, quota, journal and recovery counters, and
// job-latency p50/p99 — lifetime estimates from the latency histogram.
type ServiceMetrics = service.Metrics

// NewService builds a simulation service and starts its worker pool.
// Serve its HTTP API with Service.Handler; shut it down with
// Service.Drain (graceful) or Service.Close (immediate).
func NewService(o ServiceOptions) (*Service, error) { return service.New(o) }

// VersionString renders the build-identity banner (version, commit,
// date, Go toolchain) every cmd/* binary prints for -version.
func VersionString(binary string) string { return buildinfo.String(binary) }
