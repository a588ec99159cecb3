package scenario

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"teem/internal/core"
	"teem/internal/governor"
	"teem/internal/par"
	"teem/internal/platform"
	"teem/internal/report"
	"teem/internal/sim"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/trace"
)

// GovernorFactory builds a fresh governor instance per run — governors are
// stateful, so grid cells never share one.
type GovernorFactory func() sim.Governor

// stockGovernors is the stock policy registry: the Linux baselines plus
// the TEEM controller at paper parameters.
var stockGovernors = map[string]GovernorFactory{
	"ondemand":     func() sim.Governor { return governor.NewOndemand() },
	"conservative": func() sim.Governor { return governor.NewConservative() },
	"performance":  func() sim.Governor { return governor.Performance{} },
	"powersave":    func() sim.Governor { return governor.Powersave{} },
	"teem":         func() sim.Governor { return core.NewController(core.DefaultParams()) },
}

// registry is the governor registry of one call: the stock policies plus
// extra's, an extra entry replacing the stock one of its name.
func registry(extra map[string]GovernorFactory) map[string]GovernorFactory {
	if len(extra) == 0 {
		return stockGovernors
	}
	r := maps.Clone(stockGovernors)
	maps.Copy(r, extra)
	return r
}

// GovernorNames lists the stock registry in stable order.
func GovernorNames() []string {
	return []string{"ondemand", "conservative", "performance", "powersave", "teem"}
}

// DefaultGovernors returns the governor columns of a grid over scs when
// the caller names none: the union of the scenarios' initial policies
// (ondemand for a scenario that sets none), in first-seen order.
func DefaultGovernors(scs []*Scenario) []string {
	var govs []string
	for _, sc := range scs {
		if name := sc.initialGovernor(); !slices.Contains(govs, name) {
			govs = append(govs, name)
		}
	}
	return govs
}

// Config parameterises scenario execution. The zero value runs on the
// default catalog platform (the Exynos 5422) with the exact integrator.
// Every run steps on the engine's fixed sim.TickS and lasts until one
// tick past Scenario.EndS (sim.Config.MinTimeS).
type Config struct {
	// PlatformName selects the hardware by catalog name or bundle-file
	// path (platform.Resolve). It is mutually exclusive with the explicit
	// Platform/Net pair below; when all three are empty the default
	// catalog platform runs.
	PlatformName string
	// Platform and Net override the hardware explicitly. They must be
	// set together — a half-specified pair is rejected rather than
	// silently completed with a preset that may not match.
	Platform *soc.Platform
	Net      *thermal.Network
	// Governor overrides the scenario's initial policy (grid columns).
	Governor string
	// Governors adds custom policies to the registry by name.
	Governors map[string]GovernorFactory
	// Integrator selects the thermal stepping scheme.
	Integrator sim.Integrator
	// DisableSuperstep forces the classic tick-by-tick loop instead of
	// the event-horizon fast path (see sim.Config.DisableSuperstep) —
	// mainly for reference timings and debugging; results agree to
	// floating-point rounding either way.
	DisableSuperstep bool
	// InitialTempsC presets the chip state (default: ambient).
	InitialTempsC []float64
	// OnSample, when non-nil, receives every trace sample as the engine
	// records it (the sim trace-subscriber hook) — live telemetry
	// instead of a post-hoc trace copy. In a grid run the hook fires
	// for every cell, possibly from concurrent worker goroutines.
	OnSample func(s trace.Sample)
	// OnCell, when non-nil, is invoked by every grid run (RunGrid,
	// RunGridCtx, RunPlatformGrid) once per completed cell, from the
	// worker goroutine that ran it (calls may be concurrent) — the grid
	// progress hook.
	OnCell func(r *Result)
	// Clock, when non-nil, enables per-phase wall timing in the engine
	// flight recorder (see sim.Config.Clock; pass obs.Nanotime). Nil
	// keeps the hot loop free of clock reads.
	Clock func() int64
}

// Result is one executed scenario × governor cell.
type Result struct {
	// Scenario and Governor identify the cell; Platform names the
	// hardware it ran on (catalog name, bundle name, or SoC name for an
	// explicit Platform/Net pair).
	Scenario string
	Governor string
	Platform string
	// Sim is the underlying run result. Run and RunCtx keep its trace;
	// grid cells carry none (see PlatformGridResult).
	Sim *sim.Result
	// Violations lists failed assertions in event order (empty = pass).
	Violations []string
}

// Passed reports whether every assertion held.
func (r *Result) Passed() bool { return len(r.Violations) == 0 }

// ambientRampStepS is the discretisation of ambient ramps: fine enough to
// look continuous next to thermal time constants, coarse enough that a
// ramp stays a sparse event sequence.
const ambientRampStepS = 0.1

// maxRampSteps caps the ambient-ramp steps one scenario compiles to
// (Validate): 10,000 s of ramps. The presets compile 50.
const maxRampSteps = 100_000

// Run executes one scenario. The timeline is compiled to engine events
// before the run starts, so execution is fully deterministic: same
// scenario, same config, same output.
func Run(sc *Scenario, rc Config) (*Result, error) {
	return RunCtx(context.Background(), sc, rc)
}

// RunCtx is Run under a context: cancelling ctx aborts the simulation
// within one engine tick and RunCtx returns an error wrapping
// sim.ErrAborted (and ctx.Err()). The background context reproduces Run
// exactly — the cancellation poll costs one non-blocking channel receive
// per tick and no allocations.
func RunCtx(ctx context.Context, sc *Scenario, rc Config) (*Result, error) {
	if sc == nil {
		return nil, errors.New("scenario: nil scenario")
	}
	p, err := compile(sc, registry(rc.Governors))
	if err != nil {
		return nil, err
	}
	hw, err := resolveHardware(rc)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	return p.bind(hw).run(ctx, rc, false)
}

// hardware is a resolved platform selection: the SoC/network pair a run
// simulates and the name its results report under.
type hardware struct {
	plat *soc.Platform
	net  *thermal.Network
	name string
}

// bundleHardware is the hardware a catalog bundle describes.
func bundleHardware(b *platform.Bundle) hardware {
	return hardware{plat: b.SoC, net: b.Net, name: b.Name}
}

// resolveHardware turns a Config's platform selection into concrete
// hardware. Exactly one of three shapes is accepted: a catalog
// reference, an explicit pair, or nothing (→ the default catalog
// platform). A half-specified pair is an error — completing it with a
// preset is exactly the silent-mismatch trap the catalog removes.
func resolveHardware(rc Config) (hardware, error) {
	if rc.PlatformName != "" {
		if rc.Platform != nil || rc.Net != nil {
			return hardware{}, errors.New("scenario: PlatformName and an explicit Platform/Net are mutually exclusive")
		}
		b, err := platform.Resolve(rc.PlatformName)
		if err != nil {
			return hardware{}, err
		}
		return bundleHardware(b), nil
	}
	if (rc.Platform == nil) != (rc.Net == nil) {
		return hardware{}, errors.New("scenario: Platform and Net must be set together (or select a catalog platform by name)")
	}
	if rc.Platform != nil {
		return hardware{plat: rc.Platform, net: rc.Net, name: rc.Platform.Name}, nil
	}
	return bundleHardware(platform.Default()), nil
}

// Node aliases resolve when a scenario binds to a platform, so one
// scenario file asserts on "the big cluster" of whatever hardware the
// grid hands it.
const (
	NodeBig    = "@big"
	NodeLittle = "@little"
	NodeGPU    = "@gpu"
	NodePkg    = "@pkg"
)

// resolveNode maps the @-aliases to the platform's actual node names;
// any other name passes through verbatim.
func resolveNode(p *soc.Platform, name string) string {
	switch name {
	case NodeBig:
		if c := p.Big(); c != nil {
			return c.Name
		}
	case NodeLittle:
		if c := p.Little(); c != nil {
			return c.Name
		}
	case NodeGPU:
		if c := p.GPU(); c != nil {
			return c.Name
		}
	case NodePkg:
		return "pkg"
	}
	return name
}

// --- grids --------------------------------------------------------------------

// PlatformGridResult is the one grid result type: a platform × scenario
// × governor result cube in input order. A grid run on the hardware its
// Config names (RunGrid) has nil Platforms and a single plane, addressed
// by the empty platform name; a platform sweep (RunPlatformGrid) lists
// the catalog names it resolved.
//
// A grid is reduced to one table row per cell, so cells carry no time
// series: every cell's Sim.Trace is nil, and its other fields are those
// of the same scenario under Run. A caller that wants the samples
// subscribes through Config.OnSample, as teemd does to stream them.
type PlatformGridResult struct {
	Platforms []string
	Scenarios []string
	Governors []string
	// Cells is indexed [platform][scenario][governor].
	Cells [][][]*Result
}

// RunGrid executes every scenario under every named governor on the
// hardware rc names, across a bounded worker pool (workers: 0 = one per
// CPU, 1 = serial). Cells are assembled by index, so parallel output is
// byte-identical to serial output; every cell builds its own engine and
// governor instance and only reads the hardware it shares with the other
// cells, so the grid is race-free by construction.
//
// A cell whose run fails does not abort the grid: the error is captured
// as that cell's violation (Sim stays nil) so every other cell still
// runs and the grid — and the teemscenario exit-code gate built on
// Violations — reports the full picture. Only structural misuse (an
// empty or nil-bearing grid) returns an error. Cells carry no trace;
// rc.OnSample streams their samples (see PlatformGridResult).
func RunGrid(scs []*Scenario, governors []string, rc Config, workers int) (*PlatformGridResult, error) {
	return runGrid(context.Background(), nil, scs, governors, rc, workers)
}

// RunGridCtx is RunGrid under a context. Cancelling ctx stops the
// scheduling of new cells and aborts in-flight simulations within one
// engine tick; RunGridCtx then returns the partial grid — every cell
// completed before the cancellation, nil for the rest — together with an
// error wrapping ctx.Err(), rather than running the matrix to
// completion. rc.OnCell, when set, observes each cell as it completes.
func RunGridCtx(ctx context.Context, scs []*Scenario, governors []string, rc Config, workers int) (*PlatformGridResult, error) {
	return runGrid(ctx, nil, scs, governors, rc, workers)
}

// RunPlatformGrid is RunGrid with a platform axis: every scenario under
// every governor on every named platform, in one worker pool. Platform
// references resolve through the catalog (name or bundle-file path) up
// front, so an unknown platform fails the whole grid before any cell
// runs; each platform is decoded once, and the cells of its plane share
// that one bundle read-only. rc must leave the hardware unset.
func RunPlatformGrid(platforms []string, scs []*Scenario, governors []string, rc Config, workers int) (*PlatformGridResult, error) {
	if len(platforms) == 0 {
		return nil, errors.New("scenario: empty grid (no platforms)")
	}
	return runGrid(context.Background(), platforms, scs, governors, rc, workers)
}

// runGrid is the one fan-out behind every grid entry point. A nil
// platforms runs a single plane on rc's hardware; otherwise the grid
// owns the platform axis. Hardware resolves once per plane, each
// scenario compiles once and binds once per plane, and the plane's
// cells share what it bound (a cell only reads it). Cells are assembled
// by flat index.
func runGrid(ctx context.Context, platforms []string, scs []*Scenario, governors []string, rc Config, workers int) (*PlatformGridResult, error) {
	if len(scs) == 0 {
		return nil, errors.New("scenario: empty grid (no scenarios)")
	}
	if len(governors) == 0 {
		return nil, errors.New("scenario: empty grid (no governors)")
	}
	out := &PlatformGridResult{Governors: append([]string(nil), governors...)}
	var planes []hardware
	// hwErr fails every cell of a single-plane grid whose hardware does
	// not resolve; each cell reports it after its own validation, as
	// RunCtx would.
	var hwErr error
	if platforms != nil {
		if rc.PlatformName != "" || rc.Platform != nil || rc.Net != nil {
			return nil, errors.New("scenario: platform grid owns the platform axis; leave Config.PlatformName/Platform/Net empty")
		}
		for _, ref := range platforms {
			b, err := platform.Resolve(ref)
			if err != nil {
				return nil, err
			}
			out.Platforms = append(out.Platforms, b.Name)
			planes = append(planes, bundleHardware(b))
		}
	} else {
		hw, err := resolveHardware(rc)
		planes, hwErr = []hardware{hw}, err
	}
	for _, sc := range scs {
		if sc == nil {
			return nil, errors.New("scenario: nil scenario in grid")
		}
		out.Scenarios = append(out.Scenarios, sc.Name)
	}
	np, ns, ng := max(len(platforms), 1), len(scs), len(governors)
	// Each scenario compiles once and binds once per plane. A scenario
	// that fails validation, or every scenario when the hardware does
	// not resolve, leaves its cells that error to record, validation
	// first, as RunCtx reports them.
	govs := registry(rc.Governors)
	bounds, errs := make([]*bound, np*ns), make([]error, ns)
	for si, sc := range scs {
		p, err := compile(sc, govs)
		if err == nil && hwErr != nil {
			err = fmt.Errorf("scenario %s: %w", sc.Name, hwErr)
		}
		if errs[si] = err; err != nil {
			continue
		}
		for pi, hw := range planes {
			bounds[pi*ns+si] = p.bind(hw)
		}
	}
	out.Cells = make([][][]*Result, np)
	for pi := range out.Cells {
		out.Cells[pi] = make([][]*Result, ns)
		for si := range out.Cells[pi] {
			out.Cells[pi][si] = make([]*Result, ng)
		}
	}
	n := np * ns * ng
	err := par.ForEachCtx(ctx, workers, n, func(i int) error {
		pi, si, gi := i/(ns*ng), i/ng%ns, i%ng
		sc := scs[si]
		cfg := rc
		cfg.Governor = governors[gi]
		var r *Result
		err := errs[si]
		if err == nil {
			r, err = bounds[pi*ns+si].run(ctx, cfg, true)
		}
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, sim.ErrAborted) {
				// A cancelled cell is not a cell failure: abort the
				// fan-out instead of recording it as a violation.
				return err
			}
			r = &Result{
				Scenario:   sc.Name,
				Governor:   governors[gi],
				Violations: []string{fmt.Sprintf("error: %v", err)},
			}
			if platforms != nil {
				r.Platform = out.Platforms[pi]
			}
		}
		out.Cells[pi][si][gi] = r
		if rc.OnCell != nil {
			rc.OnCell(r)
		}
		return nil
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			done := 0
			for _, plane := range out.Cells {
				for _, row := range plane {
					for _, c := range row {
						if c != nil {
							done++
						}
					}
				}
			}
			return out, fmt.Errorf("scenario: grid cancelled with %d of %d cells complete: %w", done, n, cerr)
		}
		return nil, err
	}
	return out, nil
}

// Render formats the grid as a metrics table: one row per cell, plus an
// assertion column, then one line per violation. A platform sweep adds
// the platform column and prefixes violations with "platform/"; a grid
// with nil Platforms prints neither. Render reads exported fields only.
func (g *PlatformGridResult) Render() string {
	// Rows are built with the platform cell first and sliced from off, so
	// both shapes cost one slice per row.
	off, title := 1, "scenario × governor grid"
	if g.Platforms != nil {
		off, title = 0, "platform × scenario × governor grid"
	}
	t := &report.Table{
		Title: title,
		Headers: []string{"platform", "scenario", "governor", "ET (s)", "energy (J)",
			"avg T (°C)", "peak T (°C)", "trips", "jobs", "asserts"}[off:],
	}
	for pi := range g.Cells {
		plat := ""
		if g.Platforms != nil {
			plat = g.Platforms[pi]
		}
		for si := range g.Cells[pi] {
			for gi := range g.Cells[pi][si] {
				r := g.Cells[pi][si][gi]
				if r == nil {
					// A cancelled grid leaves unfinished cells nil.
					t.AddRow([]string{plat, g.Scenarios[si], g.Governors[gi],
						"-", "-", "-", "-", "-", "-", "cancelled"}[off:]...)
					continue
				}
				status := "pass"
				if !r.Passed() {
					status = fmt.Sprintf("FAIL (%d)", len(r.Violations))
				}
				if r.Sim == nil {
					// The cell errored out before producing a result; its
					// violation carries the error below the table.
					t.AddRow([]string{r.Platform, r.Scenario, r.Governor,
						"-", "-", "-", "-", "-", "-", status}[off:]...)
					continue
				}
				t.AddRow([]string{r.Platform, r.Scenario, r.Governor,
					fmt.Sprintf("%.1f", r.Sim.ExecTimeS),
					fmt.Sprintf("%.0f", r.Sim.EnergyJ),
					fmt.Sprintf("%.1f", r.Sim.AvgTempC),
					fmt.Sprintf("%.1f", r.Sim.PeakTempC),
					fmt.Sprintf("%d", r.Sim.ThrottleEvents),
					fmt.Sprintf("%d", len(r.Sim.JobFinishes)),
					status}[off:]...)
			}
		}
	}
	var b strings.Builder
	b.WriteString(t.Render())
	for _, plane := range g.Cells {
		for _, row := range plane {
			for _, r := range row {
				if r == nil {
					continue
				}
				for _, v := range r.Violations {
					if g.Platforms != nil {
						fmt.Fprintf(&b, "  %s/%s under %s: %s\n", r.Platform, r.Scenario, r.Governor, v)
					} else {
						fmt.Fprintf(&b, "  %s under %s: %s\n", r.Scenario, r.Governor, v)
					}
				}
			}
		}
	}
	return b.String()
}

// Violations counts failed assertions across the grid (nil cells of a
// cancelled partial grid count zero).
func (g *PlatformGridResult) Violations() int {
	n := 0
	for _, plane := range g.Cells {
		for _, row := range plane {
			for _, c := range row {
				if c != nil {
					n += len(c.Violations)
				}
			}
		}
	}
	return n
}

// Cell returns the result for a platform/scenario/governor triple (nil
// if absent). A grid with nil Platforms answers to the empty platform
// name.
func (g *PlatformGridResult) Cell(plat, scenario, gov string) *Result {
	pi := 0
	if g.Platforms != nil || plat != "" {
		pi = slices.Index(g.Platforms, plat)
	}
	si, gi := slices.Index(g.Scenarios, scenario), slices.Index(g.Governors, gov)
	if pi < 0 || si < 0 || gi < 0 || pi >= len(g.Cells) {
		return nil
	}
	return g.Cells[pi][si][gi]
}
