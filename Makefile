# Targets mirror .github/workflows/ci.yml one-to-one so local runs and CI
# are the same invocations. `make ci` is the full gate.

GO ?= go

.PHONY: build vet lint vulncheck fmt test race bench bench-json perfbench-check perfbench-layout loc scenario-gate integrator-gate platform-gate repro-gate repro-golden serve-smoke soak-gate obs-gate ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Domain lint gate (docs/static-analysis.md): the four teemvet analyzers
# — determinism, hotpath, guards, apicontract — over every production
# package. The tool is this module's own cmd/teemvet, pinned via the
# go.mod `tool` directive, so the gate needs no external dependency and
# always runs the in-tree analyzer version.
lint:
	$(GO) tool teemvet ./...

# Known-vulnerability scan. Non-gating: govulncheck is not vendored, so
# the target is a no-op where the binary is absent, and CI runs it with
# continue-on-error — advisories inform, they do not block.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (non-gating)"; \
	fi

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One pass through every benchmark — a smoke run that keeps the perf
# trajectory compiling and executable, not a measurement.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Measured snapshot of the core benchmarks (sim tick/run, engine
# construction, the steady walk and record segments, the RunWarm
# protocol, Fig. 5 serial/parallel, the offline profiling phase, scenario
# engine, thermal stepping and superstep jumps, power evaluation, one
# analytic design point) as BENCH_<date>.json. Each benchmark runs 5 times;
# benchjson records the median ns/op, B/op and allocs/op with the ns/op
# min and max, and the median of every custom b.ReportMetric unit.
# CI uploads it as a non-gating artifact so the perf trajectory is tracked
# across PRs.
BENCH_DATE := $(shell date -u +%Y-%m-%d)
BENCH_CORE := 'BenchmarkSimRun|BenchmarkEngineNew|BenchmarkSteadyWalk|BenchmarkSteadySegments|BenchmarkRunWarmCovariance|BenchmarkInstrumentedTick|BenchmarkEngineSecond|BenchmarkFig5Serial|BenchmarkFig5Parallel|BenchmarkOfflineProfile|BenchmarkScenarioRun|BenchmarkScenarioPreempt|BenchmarkScenarioGrid|BenchmarkScenarioGridPlatforms|BenchmarkScenarioSweepSerial|BenchmarkScenarioReplaySparse|BenchmarkStep$$|BenchmarkStepperStep|BenchmarkSuperstepJump|BenchmarkEvaluateInto|BenchmarkEvaluatorPoint|BenchmarkServiceSubmit|BenchmarkServiceStream|BenchmarkServiceSoak|BenchmarkJournalReplay|BenchmarkPromExposition'
bench-json:
	$(GO) test -run='^$$' -bench=$(BENCH_CORE) -benchmem -count 5 ./internal/sim ./internal/scenario ./internal/thermal ./internal/power ./internal/profile ./internal/service . \
		| $(GO) run ./cmd/benchjson -out BENCH_$(BENCH_DATE).json

# Benchmark-harness compile gate: perfbench/ (BENCHMARK.json) is its own
# Go module, so ./... above never builds it. Vet and test it here so an
# API change that breaks the harness fails CI instead of the benchmark.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Benchmark layout report (ROADMAP item 5): perfbench scales every time
# by main.refKernel, whose speed depends on its address mod 64 and, for
# the single-lane paper-repro kernel, mod 128 (it read slower at ≡ 64
# mod 128), so a change that moves the kernel moves every scaled time.
# This builds perfbench as perfbench/run.sh does (cgo off) but without
# VCS stamping, so two checkouts of the same code print the same report,
# then prints the kernel's address, that address mod 64 and mod 128 and
# a SHA-256 of the binary's .text section (read with binutils' objcopy).
# Run it on the parent and on the change: equal hashes mean the gated
# binary's code did not move.
LAYOUT_BIN := $(CURDIR)/.bench_build/layout/perfbench
perfbench-layout:
	cd perfbench && CGO_ENABLED=0 GOFLAGS=-buildvcs=false GOWORK=off $(GO) build -o $(LAYOUT_BIN) .
	@addr=$$($(GO) tool nm $(LAYOUT_BIN) | awk '$$3 == "main.refKernel" { print $$1 }'); \
	echo "main.refKernel  0x$$addr"; \
	echo "address mod 64  $$((0x$$addr % 64))"; \
	echo "address mod 128 $$((0x$$addr % 128))"; \
	echo ".text sha256    $$(objcopy -O binary --only-section=.text $(LAYOUT_BIN) /dev/stdout | sha256sum | cut -d' ' -f1)"

# Production size (ROADMAP's headline number): lines of the non-test Go
# files outside perfbench/ (the benchmark module), testdata/ and
# .bench_build/. Quote it parent -> change when a change adds or removes
# code. Informational only; CI prints it.
loc:
	@find . \( -path ./.git -o -path ./perfbench -o -path ./.bench_build -o -name testdata \) -prune \
		-o -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l

# Curated scenario-corpus regression gate: every preset (hand-authored
# and trace-replayed, preemption and departures included) under the
# ondemand baseline and the TEEM controller. teemscenario exits non-zero
# on any assertion violation or cell error, failing the gate. The
# scenario decoder is then fuzzed for 10 s (FuzzScenarioLoad, seeded with
# every preset): Load must not panic, and what it accepts must save to a
# canonical form, which teemd hashes for its cache key.
scenario-gate:
	$(GO) run ./cmd/teemscenario -govs ondemand,teem
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioLoad$$' -fuzztime 10s ./internal/scenario

# Integrator-agreement gate (docs/integrators.md): the superstep
# agreement suites must hold uncached, the contract fuzzer must find no
# counterexample in 10 s beyond its preset × catalog seeds, the record
# segments' monotonicity certificate and the closed-form work drain must
# each survive 10 s of fuzzing, and the preset corpus must keep its
# assertions under both -integrator modes — euler here, exact above in
# scenario-gate (where supersteps are live by default).
integrator-gate:
	$(GO) test -count=1 -run 'TestSuperstep' ./internal/thermal ./internal/sim ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzSuperstepContract$$' -fuzztime 10s ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzSuperstepSegment$$' -fuzztime 10s ./internal/thermal
	$(GO) test -run '^$$' -fuzz '^FuzzDrain$$' -fuzztime 10s ./internal/sim
	$(GO) run ./cmd/teemscenario -govs ondemand,teem -integrator euler

# Platform-catalog gate (docs/platforms.md): the catalog validation
# suite (JSON round-trips, physics checks, constructor equivalence) must
# pass uncached, the bundle decoder must survive 10 s of fuzzing
# (FuzzPlatformLoad, seeded with the catalog: Load must not panic, and
# what it accepts must save, reload deep-equal and save to the same
# bytes), and every builtin platform must keep the whole preset corpus's
# assertions under both integrators — the hardware axis of the
# regression matrix. An input grown from a whole catalog file can take
# the default 60 s to minimize, which would use up the 10 s run, so new
# inputs are minimized for at most 1 s.
platform-gate:
	$(GO) test -count=1 ./internal/platform
	$(GO) test -run '^$$' -fuzz '^FuzzPlatformLoad$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/platform
	$(GO) run ./cmd/teemscenario -platforms all -govs ondemand,teem
	$(GO) run ./cmd/teemscenario -platforms all -govs ondemand,teem -integrator euler

# Reproduction-output gate: testdata/repro.sh regenerates the outputs of
# teemcal (every catalog platform), teemscenario (the corpus on one
# platform, on the whole catalog under both integrators, on merlin-m3),
# teemsim (CSV and charts) and the campaign, multiapp, adaptation,
# motivation, quickstart, designspace and customplatform examples into a
# temporary directory, and the gate requires them byte-identical to the
# goldens in testdata/repro/. A change that moves an output on purpose
# regenerates them with `make repro-golden` and commits the diff for
# review.
repro-gate:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		bash testdata/repro.sh "$$tmp" && diff -r testdata/repro "$$tmp" && \
		echo "repro-gate: outputs identical to testdata/repro"

repro-golden:
	rm -rf testdata/repro
	bash testdata/repro.sh testdata/repro

# Serving-path smoke gate: boot teemd on a random port, hit /healthz,
# submit a preset scenario, stream its NDJSON telemetry, verify the
# result is byte-identical to the teemscenario CLI, cancel a long run,
# drain on SIGTERM — plus the teemd load generator against a live
# daemon. Runs the process-level tests in cmd/teemd under the race
# detector (the test harness itself exercises concurrent clients).
serve-smoke:
	$(GO) test -race ./cmd/teemd -run 'TestServeSmoke|TestLoadSubcommand' -count=1 -v

# Durability and SLO soak gate (docs/operations.md): SIGKILL a daemon
# mid-load and require the restart to re-run every acknowledged job from
# the write-ahead journal to byte-identical results with no duplicated
# completions, then hold the soak SLOs against a daemon running with
# fault injection (worker panics, dropped journal appends) and
# per-tenant quotas.
soak-gate:
	$(GO) test ./cmd/teemd -run 'TestSoakGate|TestLoadSoak' -count=1 -v

# Observability gate (docs/observability.md): boot teemd with the pprof
# listener on, run a job, and verify the whole observability surface —
# /metrics JSON unchanged, Prometheus text exposition format-valid under
# content negotiation, lifecycle spans with the job's trace id on /trace
# and the telemetry stream, and pprof answering on its own port only.
# The metrics goldens pin the JSON document, the exposition and the
# teemd.* expvar names byte for byte for a fixed counter state, and the
# obs package tests cover the exposition writer, its validator and the
# histogram quantile behind the latency percentiles. The
# instrumented-tick alloc proof rides along: the engine flight recorder
# must cost zero allocations even with wall clocks enabled.
obs-gate:
	$(GO) test ./cmd/teemd -run TestObsGate -count=1 -v
	$(GO) test ./internal/sim -run 'TestInstrumentedTickZeroAllocs|TestRunStatsConsistent' -count=1
	$(GO) test ./internal/service -run 'TestMetricsPromExposition|TestTrace|Golden|TestExpvar' -count=1
	$(GO) test ./internal/obs -count=1

ci: build vet lint fmt perfbench-check test race bench scenario-gate integrator-gate platform-gate repro-gate serve-smoke soak-gate obs-gate vulncheck
