// Package teem is a Go implementation of TEEM — online thermal- and
// energy-efficiency management for CPU-GPU MPSoCs (Isuwa, Dey, Singh,
// McDonald-Maier, DATE 2019) — together with every substrate the paper's
// evaluation depends on: an Exynos 5422 platform model with cluster-wise
// DVFS, a lumped-RC thermal simulator with TMU-style hardware protection,
// a CMOS power model, analytic and real Polybench workloads, the Linux
// ondemand governor, the EEMP and RMP comparison baselines, an R-style
// linear-regression engine, and a harness that regenerates each table and
// figure of the paper.
//
// # Quick start
//
//	plat := teem.Exynos5422()
//	net := teem.Exynos5422Thermal()
//	mgr, err := teem.NewManager(plat, net, teem.DefaultParams())
//	if err != nil { ... }
//	app := teem.Covariance()
//	model, err := mgr.Profile(app)             // offline phase
//	res, dec, err := mgr.Run(app, 35.0, 85.0)  // TREQ = 35 s, AT = 85 °C
//	fmt.Println(res.ExecTimeS, res.EnergyJ, res.AvgTempC, dec.Part)
//
// The offline phase profiles the application across CPU mappings, fits
// the paper's log-linear mapping model (Eq. 6) and stores it with the
// measured ETGPU — two items instead of a 128-entry design-point table
// (§V.D). The online phase selects the design point for a (TREQ, AT)
// requirement, partitions work-items by Eq. (9), launches at maximum
// frequency and regulates the A15 cluster around the 85 °C threshold in
// 200 MHz steps with a 1400 MHz floor (Fig. 2).
//
// # Reproducing the paper
//
// cmd/teemreport regenerates every table and figure on the parallel
// experiment engine (internal/experiments):
//
//	go run ./cmd/teemreport                  # paper-vs-measured Markdown report
//	go run ./cmd/teemreport eval -only fig5  # one experiment's own render
//
// # The platform catalog
//
// Hardware is a first-class axis: a bundle (internal/platform) packages
// a SoC description, the thermal network it is calibrated against and
// catalog metadata (deployment class, accelerator slots) under one
// name, validated as a unit. Six builtin platforms ship embedded in the
// binary: teemscenario -list names them, -platform runs on one and
// -platforms all sweeps the whole catalog, and ScenarioConfig.PlatformName
// selects one for RunScenario. Custom platforms are plain data:
// describe one in a bundle JSON file (or wire a Platform and a
// ThermalNetwork directly) and every governor, baseline and the TEEM
// manager run unchanged (see examples/customplatform and
// docs/platforms.md).
//
// # Architecture
//
// The repository is layered; each layer drives only the one below it,
// and every surface (this facade, the CLIs, the teemd daemon) is a thin
// shell over the same engines, so batch and served results are
// byte-identical:
//
//	core      offline profiling (Manager.Profile fits the Eq. 6 mapping
//	          model) and the online Controller, a sim.Governor that
//	          regulates frequency around the ambient threshold
//	sim       the co-simulation engine: a 10 ms tick loop over workload
//	          progress, power and temperature, with DVFS governors, TMU
//	          hardware protection, a preemptive job queue, ScheduleAt
//	          hooks — and an event-horizon superstep scheduler that jumps
//	          provably steady intervals in one propagator application
//	          (see docs/integrators.md for the integrator contract)
//	soc, thermal, power, workload
//	          the platform substrate: cluster/OPP descriptions, the
//	          lumped-RC network with exact and Euler integrators plus
//	          affine superstep jump maps, the CMOS power model, analytic
//	          and Polybench workload models
//	scenario  declarative event timelines (arrivals, departures, ambient
//	          ramps, governor switches) compiled onto the sim hooks, with
//	          presets, trace replay and one grid fan-out filling a
//	          platform × scenario × governor cube (ScenarioGridResult)
//	service   simulations as managed jobs: bounded worker pool, request
//	          cache, cancellation, NDJSON telemetry — served by cmd/teemd
//	obs       the observability layer the others report through: the
//	          engine's zero-allocation flight recorder (sim.Result.Stats),
//	          job trace ids and lifecycle spans, and the Prometheus text
//	          exposition writer + validator behind teemd's /metrics
//
// Package teem re-exports the part of these internal packages that the
// examples use, as type aliases and constructor wrappers; the commands
// call the internal packages directly, and go doc on each of them
// documents its layer in depth.
//
// The invariants the layers rely on — determinism in the simulation
// core, zero-allocation //teem:hotpath functions, //teem:guards mutex
// discipline, errors.Is for sentinels — are statically enforced by the
// in-tree analysis suite (internal/analysis, run as `make lint` via
// cmd/teemvet); docs/static-analysis.md catalogues the analyzers and
// their waiver annotations.
package teem
