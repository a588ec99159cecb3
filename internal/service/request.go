package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"teem/internal/mapping"
	"teem/internal/platform"
	"teem/internal/scenario"
	"teem/internal/sim"
)

// Job kinds.
const (
	// KindScenario runs one scenario — inline JSON, preset name, or
	// arrival-trace replay — under one or more governors. With exactly
	// one scenario × governor cell the job streams per-sample telemetry.
	KindScenario = "scenario"
	// KindGrid runs a scenario × governor matrix over named presets
	// (all of them when none are named), streaming per-cell progress.
	KindGrid = "grid"
	// KindFig5 runs the paper's three-approach comparison at a CPU
	// mapping.
	KindFig5 = "fig5"
)

// JobRequest describes one unit of simulation work. Exactly one scenario
// source — Scenario, Trace, or Preset — selects the work of a
// KindScenario job; KindGrid uses Presets; KindFig5 uses Map.
type JobRequest struct {
	// Kind selects the job type: "scenario" (default), "grid", "fig5".
	Kind string `json:"kind,omitempty"`

	// Scenario is an inline scenario document (the teemscenario JSON
	// schema).
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// Trace is an inline recorded arrival log, compiled to a replay
	// scenario exactly like `teemscenario -replay`.
	Trace json.RawMessage `json:"trace,omitempty"`
	// Preset names one built-in scenario (`teemscenario -preset`).
	Preset string `json:"preset,omitempty"`
	// Presets names the grid's scenarios (KindGrid; empty = the whole
	// preset corpus).
	Presets []string `json:"presets,omitempty"`

	// Governors are the grid columns (default: scenario.DefaultGovernors
	// of the selected scenarios, as in teemscenario).
	Governors []string `json:"governors,omitempty"`
	// Integrator selects the thermal stepping scheme: "exact" (default)
	// or "euler".
	Integrator string `json:"integrator,omitempty"`
	// Platform names the builtin catalog platform to simulate on
	// (default "exynos5422", the paper's board). The service boundary
	// accepts catalog names only — never file paths — and validates them
	// at submission. The platform is part of the request hash: the same
	// scenario on different hardware is different work.
	Platform string `json:"platform,omitempty"`
	// Workers bounds the job's own grid fan-out (0 = one per CPU,
	// 1 = serial). Output is byte-identical either way, so Workers does
	// not participate in the request hash.
	Workers int `json:"workers,omitempty"`

	// Map is the Fig. 5 CPU mapping (KindFig5; zero value = the
	// paper's 2L+4B headline mapping).
	Map *mapping.Mapping `json:"map,omitempty"`

	// Tenant names the submitting client for quota accounting and
	// admission control ("" = "default"). Tenants do not share cache
	// entries: the same scenario submitted by two tenants runs twice, so
	// cancellation and accounting stay per-tenant.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders the job queue (higher first; 0 default). A full
	// queue admits a submission only by shedding a strictly
	// lower-priority queued job — cross-tenant, lowest first. Like
	// Workers, Priority only changes scheduling and does not participate
	// in the request hash.
	Priority int `json:"priority,omitempty"`
}

// validTenant bounds tenant names to a metrics- and log-safe charset.
func validTenant(t string) bool {
	if len(t) > 64 {
		return false
	}
	for _, r := range t {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// jobPlan is a request's resolved work — scenarios and governor columns
// parsed once at submission, so execution never re-decodes inline JSON
// and the two code paths cannot drift.
type jobPlan struct {
	scs  []*scenario.Scenario
	govs []string
}

// normalize validates a request, fills defaults, resolves its work plan
// and derives the request-hash cache key: two requests that would
// produce byte-identical results hash alike (Workers is excluded — it
// only changes scheduling).
func (s *Service) normalize(req *JobRequest) (*JobRequest, string, *jobPlan, error) {
	if req == nil {
		return nil, "", nil, fmt.Errorf("service: nil request")
	}
	n := *req // shallow copy; slices are treated as read-only
	if n.Kind == "" {
		n.Kind = KindScenario
	}
	switch n.Kind {
	case KindScenario, KindGrid, KindFig5:
	default:
		return nil, "", nil, fmt.Errorf("service: unknown job kind %q", n.Kind)
	}
	switch n.Integrator {
	case "":
		n.Integrator = "exact"
	case "exact", "euler":
	default:
		return nil, "", nil, fmt.Errorf("service: unknown integrator %q (want exact or euler)", n.Integrator)
	}
	if n.Tenant == "" {
		n.Tenant = "default"
	}
	if !validTenant(n.Tenant) {
		return nil, "", nil, fmt.Errorf("service: invalid tenant %q (want ≤64 chars of [A-Za-z0-9._-])", req.Tenant)
	}
	if n.Platform == "" {
		n.Platform = platform.DefaultName
	}
	if !platform.Has(n.Platform) {
		return nil, "", nil, fmt.Errorf("service: unknown platform %q (builtin: %s)",
			n.Platform, strings.Join(platform.Names(), ", "))
	}

	// Validate the scenario source now so submission — not execution —
	// reports malformed requests, and so the cache key covers the
	// resolved work.
	switch n.Kind {
	case KindScenario:
		sources := 0
		if len(n.Scenario) > 0 {
			sources++
		}
		if len(n.Trace) > 0 {
			sources++
		}
		if n.Preset != "" {
			sources++
		}
		if sources != 1 {
			return nil, "", nil, fmt.Errorf("service: a scenario job needs exactly one of scenario, trace or preset")
		}
		if len(n.Presets) > 0 {
			return nil, "", nil, fmt.Errorf("service: presets is a grid-job field; use preset")
		}
	case KindGrid:
		if len(n.Scenario) > 0 || len(n.Trace) > 0 || n.Preset != "" {
			return nil, "", nil, fmt.Errorf("service: a grid job selects work with presets only")
		}
		for _, p := range n.Presets {
			if scenario.PresetByName(p) == nil {
				return nil, "", nil, fmt.Errorf("service: unknown preset %q", p)
			}
		}
	case KindFig5:
		if len(n.Scenario) > 0 || len(n.Trace) > 0 || n.Preset != "" || len(n.Presets) > 0 {
			return nil, "", nil, fmt.Errorf("service: a fig5 job takes only map, not scenario sources")
		}
		if req.Integrator == "euler" {
			// The Fig. 5 evaluation runs the paper's protocol on the
			// exact integrator; accepting (and hashing) a no-op
			// integrator choice would return mislabelled results.
			return nil, "", nil, fmt.Errorf("service: fig5 jobs run the exact integrator only")
		}
		if n.Platform != platform.DefaultName {
			// Fig. 5 reproduces the paper's measurements, which exist on
			// the Exynos 5422 only — other hardware would be mislabelled.
			return nil, "", nil, fmt.Errorf("service: fig5 jobs run on %s only", platform.DefaultName)
		}
		if n.Map == nil {
			n.Map = &mapping.Mapping{Big: 4, Little: 2, UseGPU: true}
		}
		// The evaluation builds EEMP and RMP on this mapping, and both
		// need it to fit the platform with at least one CPU core.
		big, lit := s.env.Plat.Big(), s.env.Plat.Little()
		if err := n.Map.Validate(big.NumCores, lit.NumCores); err != nil {
			return nil, "", nil, fmt.Errorf("service: fig5 map: %w", err)
		}
		if n.Map.CPUCores() == 0 {
			return nil, "", nil, fmt.Errorf("service: fig5 map %s uses no CPU cores", n.Map)
		}
	}
	scs, govs, err := s.planFor(&n)
	if err != nil {
		return nil, "", nil, err
	}
	if n.Kind == KindScenario {
		if err := checkMaps(scs[0], n.Platform); err != nil {
			return nil, "", nil, err
		}
	}
	n.Governors = govs

	// The cache key hashes the resolved plan: tenant, kind, integrator,
	// platform, the scenarios' canonical JSON, the governor list, and the
	// mapping. Workers and Priority are excluded — they only change
	// scheduling, never bytes.
	h := sha256.New()
	fmt.Fprintf(h, "tenant=%s\nkind=%s\nintegrator=%s\nplatform=%s\n", n.Tenant, n.Kind, n.Integrator, n.Platform)
	for _, sc := range scs {
		var b bytes.Buffer
		if err := sc.Save(&b); err != nil {
			return nil, "", nil, err
		}
		h.Write(b.Bytes())
	}
	fmt.Fprintf(h, "governors=%s\n", strings.Join(govs, ","))
	if n.Map != nil {
		fmt.Fprintf(h, "map=%s\n", n.Map.String())
	}
	return &n, hex.EncodeToString(h.Sum(nil)), &jobPlan{scs: scs, govs: govs}, nil
}

// checkMaps checks a scenario job's mappings — the initial one and each
// mapping event's — against the core counts of the job's platform, as
// the fig5 map is checked above, so that an out-of-range one is refused
// at submission instead of failing the cell at run time.
func checkMaps(sc *scenario.Scenario, platformName string) error {
	b, err := platform.Get(platformName)
	if err != nil {
		return err
	}
	big, lit := b.SoC.Big().NumCores, b.SoC.Little().NumCores
	if err := sc.Map.Validate(big, lit); err != nil {
		return fmt.Errorf("service: scenario %s map: %w", sc.Name, err)
	}
	for i, ev := range sc.Events {
		if ev.Kind != scenario.KindMapping {
			continue
		}
		if err := ev.Map.Validate(big, lit); err != nil {
			return fmt.Errorf("service: scenario %s: event %d: %w", sc.Name, i, err)
		}
	}
	return nil
}

// planFor resolves the request's scenarios and governor columns — the
// same defaulting teemscenario applies, so the service's rendered output
// is byte-identical to the CLI's.
func (s *Service) planFor(req *JobRequest) ([]*scenario.Scenario, []string, error) {
	var scs []*scenario.Scenario
	switch req.Kind {
	case KindFig5:
		return nil, nil, nil
	case KindScenario:
		switch {
		case len(req.Scenario) > 0:
			sc, err := scenario.Load(bytes.NewReader(req.Scenario))
			if err != nil {
				return nil, nil, err
			}
			scs = append(scs, sc)
		case len(req.Trace) > 0:
			tr, err := scenario.LoadTrace(bytes.NewReader(req.Trace))
			if err != nil {
				return nil, nil, err
			}
			sc, err := scenario.FromTrace(tr)
			if err != nil {
				return nil, nil, err
			}
			scs = append(scs, sc)
		default:
			sc := scenario.PresetByName(req.Preset)
			if sc == nil {
				return nil, nil, fmt.Errorf("service: unknown preset %q", req.Preset)
			}
			scs = append(scs, sc)
		}
	case KindGrid:
		if len(req.Presets) == 0 {
			scs = scenario.Presets()
		} else {
			for _, p := range req.Presets {
				sc := scenario.PresetByName(p)
				if sc == nil {
					return nil, nil, fmt.Errorf("service: unknown preset %q", p)
				}
				scs = append(scs, sc)
			}
		}
	}
	govs := append([]string(nil), req.Governors...)
	if len(govs) == 0 {
		govs = scenario.DefaultGovernors(scs)
	}
	known := map[string]bool{}
	for _, g := range scenario.GovernorNames() {
		known[g] = true
	}
	for _, g := range govs {
		if !known[g] {
			names := scenario.GovernorNames()
			sort.Strings(names)
			return nil, nil, fmt.Errorf("service: unknown governor %q (have %s)", g, strings.Join(names, ", "))
		}
	}
	return scs, govs, nil
}

// execute runs the job's work under ctx, returning the rendered result
// text (byte-identical to the equivalent CLI invocation) and a summary.
func (s *Service) execute(ctx context.Context, j *Job) (string, *ResultSummary, error) {
	req := j.Req
	integ := sim.IntegratorExact
	if req.Integrator == "euler" {
		integ = sim.IntegratorEuler
	}
	switch req.Kind {
	case KindFig5:
		res, err := s.env.Fig5Ctx(ctx, *req.Map)
		if err != nil {
			return "", nil, err
		}
		text := res.RenderEnergy() + res.RenderTemperature() + res.RenderPerformance()
		return text, &ResultSummary{Rows: len(res.Rows)}, nil
	default:
		// The plan was resolved and validated at submission; execution
		// never re-decodes the request.
		scs, govs := j.plan.scs, j.plan.govs
		onCell := j.publishCell
		if d := s.faults.slowCell(); d > 0 {
			onCell = func(r *scenario.Result) {
				time.Sleep(d)
				j.publishCell(r)
			}
		}
		rc := scenario.Config{
			PlatformName: req.Platform,
			Integrator:   integ,
			OnCell:       onCell,
		}
		if len(scs)*len(govs) == 1 {
			// A single cell has an unambiguous telemetry stream:
			// publish every trace sample live. Multi-cell jobs stream
			// per-cell progress instead — interleaved samples from
			// concurrent cells would be unattributable.
			rc.OnSample = j.publishSample
		}
		grid, err := scenario.RunGridCtx(ctx, scs, govs, rc, req.Workers)
		if err != nil {
			return "", nil, err
		}
		return grid.Render(), summarizeGrid(grid), nil
	}
}

// ResultSummary is the machine-readable half of a finished job.
type ResultSummary struct {
	// Cells counts completed scenario × governor cells (grid and
	// scenario jobs); Rows counts Fig. 5 application rows.
	Cells int `json:"cells,omitempty"`
	Rows  int `json:"rows,omitempty"`
	// Violations counts failed assertions across the grid — the number
	// the teemscenario exit code is built on.
	Violations int `json:"violations,omitempty"`
}

func summarizeGrid(g *scenario.PlatformGridResult) *ResultSummary {
	sum := &ResultSummary{Violations: g.Violations()}
	for _, plane := range g.Cells {
		for _, row := range plane {
			for _, c := range row {
				if c != nil {
					sum.Cells++
				}
			}
		}
	}
	return sum
}
