package teem

import (
	"teem/internal/core"
	"teem/internal/governor"
	"teem/internal/mapping"
	"teem/internal/profile"
	"teem/internal/scenario"
	"teem/internal/service"
	"teem/internal/sim"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

// --- platform description (internal/soc) -------------------------------------

// Platform describes an MPSoC: clusters, OPP tables, thermal trip points.
type Platform = soc.Platform

// Cluster is one voltage/frequency island.
type Cluster = soc.Cluster

// OPP is an operating performance point (frequency + voltage).
type OPP = soc.OPP

// Cluster kinds for Cluster.Kind: big CPU, LITTLE CPU or GPU.
const (
	BigCPU    = soc.BigCPU
	LittleCPU = soc.LittleCPU
	GPUKind   = soc.GPU
)

// Exynos5422 returns the Samsung Exynos 5422 (Odroid-XU4) platform model.
func Exynos5422() *Platform { return soc.Exynos5422() }

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

// --- workloads (internal/workload) -------------------------------------------

// App models one OpenCL application's execution characteristics.
type App = workload.App

// Kernel is a runnable, row-partitionable Polybench kernel port.
type Kernel = workload.Kernel

// Apps returns the paper's eight Polybench applications.
func Apps() []*App { return workload.Apps() }

// AppByShort resolves a paper code (2D, CV, GM/GE, 2M, MV, S2, SR, CR).
func AppByShort(code string) (*App, error) { return workload.ByShort(code) }

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

// Space enumerates a platform's design space (Eqs. 1–2).
type Space = mapping.Space

// NewSpace builds the design space of a platform.
func NewSpace(p *Platform) (*Space, error) { return mapping.NewSpace(p) }

// NearestPartition snaps a CPU fraction to the closest grain.
func NearestPartition(cpuFrac float64) Partition { return mapping.NearestPartition(cpuFrac) }

// --- simulation (internal/sim) ------------------------------------------------

// SimConfig assembles a co-simulation run.
type SimConfig = sim.Config

// SimResult summarises a run (execution time, energy, temperatures,
// effective frequency, trace).
type SimResult = sim.Result

// Governor is a DVFS policy plugged into the engine.
type Governor = sim.Governor

// Engine executes one configured run.
type Engine = sim.Engine

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

// NewScenario starts a scenario builder with the default 2L+4B+GPU
// mapping.
func NewScenario(name string) *ScenarioBuilder { return scenario.New(name) }

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

// --- governors (internal/governor) ---------------------------------------------

// NewOndemand returns the Linux ondemand governor with kernel defaults —
// the paper's Fig. 1(a) baseline when combined with the TMU.
func NewOndemand() Governor { return governor.NewOndemand() }

// NewPerformance returns the performance governor (max frequency).
func NewPerformance() Governor { return governor.Performance{} }

// --- TEEM (internal/core) -------------------------------------------------------

// Params are the TEEM controller knobs (threshold, δ, floor, period).
type Params = core.Params

// Manager owns offline profiles and makes online decisions.
type Manager = core.Manager

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

// --- profiling (internal/profile) ------------------------------------------------

// Evaluator predicts design-point behaviour (analytic or simulated).
type Evaluator = profile.Evaluator

// PointEval is one design-point evaluation.
type PointEval = profile.PointEval

// NewEvaluator builds a design-point evaluator.
func NewEvaluator(p *Platform, n *ThermalNetwork) (*Evaluator, error) {
	return profile.NewEvaluator(p, n)
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

// JobRequest describes one unit of simulation work submitted to a
// Service: an inline scenario, a recorded arrival trace, a preset name,
// a preset grid, or a Fig. 5 mapping, plus governors and integrator.
type JobRequest = service.JobRequest

// NewService builds a simulation service and starts its worker pool.
// Serve its HTTP API with Service.Handler; shut it down with
// Service.Drain (graceful) or Service.Close (immediate).
func NewService(o ServiceOptions) (*Service, error) { return service.New(o) }
