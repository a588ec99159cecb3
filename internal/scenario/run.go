package scenario

import (
	"context"
	"errors"
	"fmt"
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
	"teem/internal/workload"
)

// GovernorFactory builds a fresh governor instance per run — governors are
// stateful, so grid cells never share one.
type GovernorFactory func() sim.Governor

// builtinGovernors is the stock policy registry: the Linux baselines plus
// the TEEM controller at paper parameters.
func builtinGovernors() map[string]GovernorFactory {
	return map[string]GovernorFactory{
		"ondemand":     func() sim.Governor { return governor.NewOndemand() },
		"conservative": func() sim.Governor { return governor.NewConservative() },
		"performance":  func() sim.Governor { return governor.Performance{} },
		"powersave":    func() sim.Governor { return governor.Powersave{} },
		"teem":         func() sim.Governor { return core.NewController(core.DefaultParams()) },
	}
}

// GovernorNames lists the stock registry in stable order.
func GovernorNames() []string {
	return []string{"ondemand", "conservative", "performance", "powersave", "teem"}
}

// Config parameterises scenario execution. The zero value runs on the
// default catalog platform (the Exynos 5422) with the exact integrator.
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
	// TickS and MaxTimeS default like sim.Config (MaxTimeS is raised to
	// cover the scenario horizon when needed).
	TickS    float64
	MaxTimeS float64
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
	if err := sc.Validate(rc.Governors); err != nil {
		return nil, err
	}
	hw, err := resolveHardware(rc)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	return runOn(ctx, sc, rc, hw, false)
}

// runOn executes a validated scenario on resolved hardware, ignoring
// rc's hardware fields. It only reads hw, so concurrent runs may share
// one decoded platform. discardTrace sets sim.Config.DiscardTrace: the
// result's Sim.Trace is nil.
func runOn(ctx context.Context, sc *Scenario, rc Config, hw hardware, discardTrace bool) (*Result, error) {
	plat, net := hw.plat, hw.net
	registry := builtinGovernors()
	//teem:order-insensitive map-to-map merge: the resulting registry is the same set whatever the iteration order
	for name, f := range rc.Governors {
		registry[name] = f
	}
	govName := sc.Governor
	if rc.Governor != "" {
		govName = rc.Governor
	}
	if govName == "" {
		govName = "ondemand"
	}
	mk, ok := registry[govName]
	if !ok {
		return nil, fmt.Errorf("scenario %s: unknown governor %q", sc.Name, govName)
	}

	tick := rc.TickS
	if tick == 0 {
		tick = 0.01
	}
	horizon := sc.EndS() + tick
	maxTime := rc.MaxTimeS
	if maxTime == 0 {
		maxTime = 900
	}
	if maxTime < horizon {
		maxTime = horizon
	}
	cfg := sim.Config{
		Platform:         plat,
		Net:              net,
		Map:              sc.Map,
		Governor:         mk(),
		TickS:            tick,
		MaxTimeS:         maxTime,
		MinTimeS:         horizon,
		Integrator:       rc.Integrator,
		DisableSuperstep: rc.DisableSuperstep,
		InitialTempsC:    rc.InitialTempsC,
		Done:             ctx.Done(),
		OnSample:         rc.OnSample,
		Clock:            rc.Clock,
		DiscardTrace:     discardTrace,
	}
	e, err := sim.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}

	res := &Result{Scenario: sc.Name, Governor: govName, Platform: hw.name}
	ambient := plat.AmbientC
	// Job-handle bookkeeping for departures and deadlines. Events
	// dispatch in timeline order on the single run goroutine, so the
	// closures below share these maps without synchronisation: an
	// arrival appends the id the engine minted under its app name (and
	// under app+job when tagged), a departure pops the oldest pending
	// id of its key. Ids cancelled through one key are skipped under
	// the other (CancelJob reports them not active).
	pendingIDs := map[string][]int{}
	subKey := func(app, job string) string {
		if job == "" {
			return app
		}
		return app + "\x00" + job
	}
	type deadlineCheck struct {
		app string
		id  int
		byS float64
	}
	var deadlines []deadlineCheck
	for _, ev := range sc.sortedEvents() {
		ev := ev
		switch ev.Kind {
		case KindArrival:
			app, err := workload.ByName(ev.App)
			if err != nil {
				return nil, err
			}
			part := defaultPart(sc.Map)
			if ev.Part != nil {
				part = *ev.Part
			}
			err = e.ScheduleAt(ev.AtS, func(e *sim.Engine) error {
				id, err := e.EnqueueAppPriority(app, part, ev.Priority)
				if err != nil {
					return err
				}
				pendingIDs[app.Name] = append(pendingIDs[app.Name], id)
				if ev.Job != "" {
					k := subKey(app.Name, ev.Job)
					pendingIDs[k] = append(pendingIDs[k], id)
				}
				if ev.DeadlineS > 0 {
					deadlines = append(deadlines, deadlineCheck{app: app.Name, id: id, byS: ev.AtS + ev.DeadlineS})
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		case KindDeparture:
			key := subKey(ev.App, ev.Job)
			err := e.ScheduleAt(ev.AtS, func(e *sim.Engine) error {
				ids := pendingIDs[key]
				if len(ids) == 0 {
					res.Violations = append(res.Violations,
						fmt.Sprintf("t=%gs: departure of %s with no submitted job", ev.AtS, ev.App))
					return nil
				}
				// Cancel the oldest still-pending submission under this
				// key (the exact tagged instance, or name-FIFO for
				// untagged departures): ids that already finished or
				// were cancelled through the other key are skipped, so
				// a departure is not swallowed by an earlier same-app
				// job that drained.
				for len(ids) > 0 {
					id := ids[0]
					ids = ids[1:]
					pendingIDs[key] = ids
					err := e.CancelJob(id)
					if err == nil {
						return nil
					}
					if !errors.Is(err, sim.ErrJobNotActive) {
						return err
					}
				}
				// Every submission finished before the tenant left —
				// nothing to drop.
				return nil
			})
			if err != nil {
				return nil, err
			}
		case KindAmbient:
			if err := scheduleAmbient(e, &ambient, ev); err != nil {
				return nil, err
			}
		case KindGovernor:
			mk, ok := registry[ev.Governor]
			if !ok {
				return nil, fmt.Errorf("scenario %s: unknown governor %q", sc.Name, ev.Governor)
			}
			err := e.ScheduleAt(ev.AtS, func(e *sim.Engine) error {
				return e.SetGovernor(mk())
			})
			if err != nil {
				return nil, err
			}
		case KindPartition:
			p := *ev.Part
			if err := e.ScheduleAt(ev.AtS, func(e *sim.Engine) error { return e.SetPartition(p) }); err != nil {
				return nil, err
			}
		case KindMapping:
			m := *ev.Map
			if err := e.ScheduleAt(ev.AtS, func(e *sim.Engine) error { return e.SetMapping(m) }); err != nil {
				return nil, err
			}
		case KindAssert:
			// Aliases (@big, @little, @gpu, @pkg) bind to the resolved
			// platform here, at compile time, so messages print the real
			// node name. An unknown node would read 0 °C and green-light
			// the assertion forever; flag the typo instead.
			node := resolveNode(plat, ev.Node)
			if net.NodeIndex(node) < 0 {
				res.Violations = append(res.Violations,
					fmt.Sprintf("t=%gs: assertion on unknown node %q", ev.AtS, node))
				continue
			}
			err := e.ScheduleAt(ev.AtS, func(e *sim.Engine) error {
				if t := e.SensorC(node); t > ev.MaxC {
					res.Violations = append(res.Violations,
						fmt.Sprintf("t=%gs: %s at %.2f °C exceeds %.2f °C", ev.AtS, node, t, ev.MaxC))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}

	sr, err := e.Run()
	if err != nil {
		return nil, fmt.Errorf("scenario %s under %s: %w", sc.Name, govName, err)
	}
	res.Sim = sr

	// Deadline checks: an arrival with deadline_s must have finished in
	// time. A job that departed *before its deadline* is exempt — its
	// deadline left the system with it; one cancelled after the deadline
	// had already passed still missed it.
	for _, dc := range deadlines {
		exempt := false
		for _, c := range sr.JobCancels {
			if c.ID == dc.id && c.AtS <= dc.byS {
				exempt = true
				break
			}
		}
		if exempt {
			continue
		}
		finished := false
		for _, jf := range sr.JobFinishes {
			if jf.ID != dc.id {
				continue
			}
			finished = true
			if jf.AtS > dc.byS {
				res.Violations = append(res.Violations,
					fmt.Sprintf("deadline: %s finished at %.2f s, after its %.2f s deadline", dc.app, jf.AtS, dc.byS))
			}
			break
		}
		if !finished {
			res.Violations = append(res.Violations,
				fmt.Sprintf("deadline: %s never finished (deadline %.2f s)", dc.app, dc.byS))
		}
	}

	for _, fc := range sc.Final {
		if fc.Node != "" && fc.PeakMaxC > 0 {
			node := resolveNode(plat, fc.Node)
			n := net.NodeIndex(node)
			if n < 0 {
				res.Violations = append(res.Violations, fmt.Sprintf("final: unknown node %q", node))
				continue
			}
			// Exact per-tick peak (trace samples coarsen inside
			// superstepped intervals; see docs/integrators.md).
			if peak := sr.PeakTempsC[n]; peak > fc.PeakMaxC {
				res.Violations = append(res.Violations,
					fmt.Sprintf("final: %s peak %.2f °C exceeds %.2f °C", node, peak, fc.PeakMaxC))
			}
		}
		if fc.Completed && !sr.Completed {
			res.Violations = append(res.Violations, "final: run did not complete all submitted work")
		}
		if fc.MaxExecS > 0 && sr.ExecTimeS > fc.MaxExecS {
			res.Violations = append(res.Violations,
				fmt.Sprintf("final: execution time %.2f s exceeds %.2f s", sr.ExecTimeS, fc.MaxExecS))
		}
	}
	return res, nil
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

// Node aliases resolve per platform at scenario compile time, so one
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

// scheduleAmbient compiles a step (or a discretised linear ramp) to engine
// events. ambient tracks the compile-time ambient so chained ramps start
// from where the previous one ended.
func scheduleAmbient(e *sim.Engine, ambient *float64, ev Event) error {
	from, to := *ambient, ev.ToC
	*ambient = to
	if ev.RampS <= 0 || from == to {
		return e.ScheduleAt(ev.AtS, func(e *sim.Engine) error {
			e.SetAmbientC(to)
			return nil
		})
	}
	steps := int(ev.RampS/ambientRampStepS + 0.5)
	if steps < 1 {
		steps = 1
	}
	for k := 1; k <= steps; k++ {
		v := from + (to-from)*float64(k)/float64(steps)
		err := e.ScheduleAt(ev.AtS+ev.RampS*float64(k)/float64(steps), func(e *sim.Engine) error {
			e.SetAmbientC(v)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
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
// owns the platform axis. Hardware resolves once per plane and the
// plane's cells share it (runOn only reads it). Cells are assembled by
// flat index.
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
		cell := rc
		cell.Governor = governors[gi]
		var r *Result
		err := sc.Validate(rc.Governors)
		if err == nil && hwErr != nil {
			err = fmt.Errorf("scenario %s: %w", sc.Name, hwErr)
		}
		if err == nil {
			r, err = runOn(ctx, sc, cell, planes[pi], true)
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
