package scenario

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"teem/internal/mapping"
	"teem/internal/sim"
	"teem/internal/workload"
)

// plan is a compiled scenario: what every run of it shares, whatever the
// platform and governor. It is immutable once compile returns it, so any
// number of cells read one plan at once.
type plan struct {
	sc   *Scenario
	govs map[string]GovernorFactory
	endS float64
	// steps is the timeline in dispatch order: by time, then list index.
	steps []step
	// Departure key k owns slots keyOff[k] to keyOff[k+1] of a cell's
	// pending ids, one per arrival submitted under it.
	keyOff []int
	// deadlines counts the arrivals with a deadline; events bounds the
	// engine events a binding schedules (each ramp step one).
	deadlines, events int
}

// step is one compiled timeline event.
type step struct {
	ev *Event
	// An arrival submits app with part and pushes its job id under key
	// (its app) and jobKey (its app and job tag); -1 is a key no
	// departure pops. deadline is its ordinal among the arrivals with a
	// deadline, in dispatch order (-1 without one). A departure pops key.
	app         *workload.App
	part        mapping.Partition
	key, jobKey int
	deadline    int
	// gov builds a governor switch's policy.
	gov GovernorFactory
}

// compile checks s against the workload catalog and the governor
// registry govs, and compiles it into the plan its runs execute.
// Validate is compile with the plan discarded, so every scenario that
// validates compiles.
func compile(s *Scenario, govs map[string]GovernorFactory) (*plan, error) {
	if s.Name == "" {
		return nil, errors.New("scenario: empty name")
	}
	knownGov := func(name string) bool {
		_, ok := govs[name]
		return ok || name == ""
	}
	if !knownGov(s.Governor) {
		return nil, fmt.Errorf("scenario %s: unknown governor %q", s.Name, s.Governor)
	}
	// NaN and ±Inf pass every ordered comparison below unnoticed: a NaN
	// bound never fires and an infinite horizon runs no ticks at all.
	if f, bad := nonFinite(numField{"horizon_s", s.HorizonS}); bad {
		return nil, fmt.Errorf("scenario %s: non-finite %s %g", s.Name, f.name, f.v)
	}
	if s.HorizonS < 0 {
		return nil, fmt.Errorf("scenario %s: negative horizon", s.Name)
	}
	p := &plan{sc: s, govs: govs, steps: make([]step, len(s.Events)), keyOff: []int{0}, events: len(s.Events)}
	arrivals, rampSteps := 0, 0.0
	arrCount := map[string]int{}
	depCount := map[string]int{}
	for i := range s.Events {
		ev := &s.Events[i]
		st := &p.steps[i]
		*st = step{ev: ev, key: -1, jobKey: -1, deadline: -1}
		if f, bad := nonFinite(numField{"at_s", ev.AtS}, numField{"ramp_s", ev.RampS}, numField{"to_c", ev.ToC},
			numField{"max_c", ev.MaxC}, numField{"deadline_s", ev.DeadlineS}); bad {
			return nil, fmt.Errorf("scenario %s: event %d: non-finite %s %g", s.Name, i, f.name, f.v)
		}
		if ev.AtS < 0 {
			return nil, fmt.Errorf("scenario %s: event %d at t=%g before the run starts", s.Name, i, ev.AtS)
		}
		switch ev.Kind {
		case KindArrival:
			app, err := workload.ByName(ev.App)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: event %d: %w", s.Name, i, err)
			}
			st.app, st.part = app, defaultPart(s.Map)
			if ev.Part != nil {
				if err := ev.Part.Validate(); err != nil {
					return nil, fmt.Errorf("scenario %s: event %d: %w", s.Name, i, err)
				}
				st.part = *ev.Part
			}
			if ev.DeadlineS < 0 {
				return nil, fmt.Errorf("scenario %s: event %d: negative deadline", s.Name, i)
			}
			arrivals++
			arrCount[ev.App]++
			if ev.Job != "" {
				arrCount[jobKey(ev.App, ev.Job)]++
			}
		case KindDeparture:
			if ev.App == "" {
				return nil, fmt.Errorf("scenario %s: event %d: departure without an app", s.Name, i)
			}
			// The matching arrival — same app, and same job tag when the
			// departure carries one — must dispatch before the
			// departure: strictly earlier in time, or on the same tick
			// but earlier in the event list (the plan's timeline is
			// stable, so same-time events keep list order at run time).
			matched := false
			for j := range s.Events {
				arr := &s.Events[j]
				if arr.Kind != KindArrival || arr.App != ev.App {
					continue
				}
				if ev.Job != "" && arr.Job != ev.Job {
					continue
				}
				if arr.AtS < ev.AtS || (arr.AtS == ev.AtS && j < i) {
					matched = true
					break
				}
			}
			if !matched {
				return nil, fmt.Errorf("scenario %s: event %d: departure of %q with no earlier arrival", s.Name, i, ev.App)
			}
			depCount[ev.App]++
			if ev.Job != "" {
				depCount[jobKey(ev.App, ev.Job)]++
			}
		case KindAmbient:
			if ev.RampS < 0 {
				return nil, fmt.Errorf("scenario %s: event %d: negative ramp", s.Name, i)
			}
			// A ramp compiles to one engine event per ambientRampStepS.
			if rampSteps += ev.RampS / ambientRampStepS; rampSteps > maxRampSteps {
				return nil, fmt.Errorf("scenario %s: event %d: ambient ramps compile to over %d steps", s.Name, i, maxRampSteps)
			}
			if ev.RampS > 0 {
				p.events += rampEvents(ev.RampS) - 1
			}
		case KindGovernor:
			if ev.Governor == "" || !knownGov(ev.Governor) {
				return nil, fmt.Errorf("scenario %s: event %d: unknown governor %q", s.Name, i, ev.Governor)
			}
			st.gov = govs[ev.Governor]
		case KindPartition:
			if ev.Part == nil {
				return nil, fmt.Errorf("scenario %s: event %d: partition switch without a partition", s.Name, i)
			}
			if err := ev.Part.Validate(); err != nil {
				return nil, fmt.Errorf("scenario %s: event %d: %w", s.Name, i, err)
			}
		case KindMapping:
			if ev.Map == nil {
				return nil, fmt.Errorf("scenario %s: event %d: mapping switch without a mapping", s.Name, i)
			}
		case KindAssert:
			if ev.Node == "" {
				return nil, fmt.Errorf("scenario %s: event %d: assertion without a node", s.Name, i)
			}
			if ev.MaxC <= 0 {
				return nil, fmt.Errorf("scenario %s: event %d: assertion without a max_c bound", s.Name, i)
			}
		default:
			return nil, fmt.Errorf("scenario %s: event %d: unknown kind %q", s.Name, i, ev.Kind)
		}
	}
	if arrivals == 0 {
		return nil, fmt.Errorf("scenario %s: no application arrivals", s.Name)
	}
	// A run lasts one tick past EndS (Run), and the engine refuses one
	// that reaches sim.MaxRunS.
	if p.endS = s.EndS(); p.endS+sim.TickS >= sim.MaxRunS {
		return nil, fmt.Errorf("scenario %s: timeline ends at %g s, past the engine's %g s limit", s.Name, p.endS, sim.MaxRunS)
	}
	// Each departure consumes one submission: more departures than
	// arrivals of an app (or of one tagged instance) can never all
	// resolve — catch the authoring error statically instead of
	// flagging the surplus departure as a runtime violation. Keys are
	// checked in sorted order so a scenario with several surplus
	// departures always reports the same one. Each key is interned to
	// its index here, with one slot per arrival under it.
	keys := map[string]int{}
	for ki, key := range slices.Sorted(maps.Keys(depCount)) {
		n := depCount[key]
		if n > arrCount[key] {
			app := key
			if k := strings.IndexByte(key, 0); k >= 0 {
				app = key[:k] + " (job " + key[k+1:] + ")"
			}
			return nil, fmt.Errorf("scenario %s: %d departures of %s but only %d arrivals", s.Name, n, app, arrCount[key])
		}
		keys[key] = ki
		p.keyOff = append(p.keyOff, p.keyOff[ki]+arrCount[key])
	}
	for i, fc := range s.Final {
		if f, bad := nonFinite(numField{"peak_max_c", fc.PeakMaxC}, numField{"max_exec_s", fc.MaxExecS}); bad {
			return nil, fmt.Errorf("scenario %s: final check %d: non-finite %s %g", s.Name, i, f.name, f.v)
		}
		if fc.Node == "" && fc.PeakMaxC > 0 {
			return nil, fmt.Errorf("scenario %s: final check %d: peak bound without a node", s.Name, i)
		}
	}

	keyOf := func(app, job string) int {
		if job != "" {
			app = jobKey(app, job)
		}
		if k, ok := keys[app]; ok {
			return k
		}
		return -1
	}
	for i := range p.steps {
		switch st, ev := &p.steps[i], p.steps[i].ev; ev.Kind {
		case KindArrival:
			st.key = keyOf(ev.App, "")
			if ev.Job != "" {
				st.jobKey = keyOf(ev.App, ev.Job)
			}
		case KindDeparture:
			st.key = keyOf(ev.App, ev.Job)
		}
	}
	slices.SortStableFunc(p.steps, func(a, b step) int { return cmp.Compare(a.ev.AtS, b.ev.AtS) })
	for i := range p.steps {
		if st := &p.steps[i]; st.ev.Kind == KindArrival && st.ev.DeadlineS > 0 {
			st.deadline = p.deadlines
			p.deadlines++
		}
	}
	return p, nil
}

// jobKey is the departure key of one tagged submission.
func jobKey(app, job string) string { return app + "\x00" + job }

// rampEvents is how many engine events a ramp over rampS seconds
// compiles to: one per ambientRampStepS, at least one.
func rampEvents(rampS float64) int {
	return max(int(rampS/ambientRampStepS+0.5), 1)
}

// bound is a plan resolved on one platform: what depends on the hardware,
// computed once for every cell of the platform's plane to read.
type bound struct {
	*plan
	hw hardware
	// entries are the engine events in firing order: the timeline with
	// each ambient change expanded at its event (ramps chain from the
	// platform's idle ambient, so a ramp to it is one event), stably
	// sorted by tick as sim.Engine.ScheduleAt keeps them.
	entries []entry
	// unknown holds the violations of the assertions on nodes the
	// platform lacks, in timeline order; they schedule no event.
	unknown []string
}

// entry is one engine event of a bound plan. ambientC is the ambient an
// ambient event sets and node the sensor an assertion reads.
type entry struct {
	st       *step
	tS       float64
	tick     int
	ambientC float64
	node     string
}

// bind resolves p on hw.
func (p *plan) bind(hw hardware) *bound {
	b := &bound{plan: p, hw: hw, entries: make([]entry, 0, p.events)}
	ambient := hw.plat.AmbientC
	for i := range p.steps {
		st := &p.steps[i]
		switch ev := st.ev; ev.Kind {
		case KindAmbient:
			from, to := ambient, ev.ToC
			ambient = to
			if ev.RampS <= 0 || from == to {
				b.entries = append(b.entries, entry{st: st, tS: ev.AtS, ambientC: to})
				continue
			}
			steps := rampEvents(ev.RampS)
			for k := 1; k <= steps; k++ {
				b.entries = append(b.entries, entry{st: st, tS: ev.AtS + ev.RampS*float64(k)/float64(steps), ambientC: from + (to-from)*float64(k)/float64(steps)})
			}
		case KindAssert:
			// An unknown node would read 0 °C and green-light the
			// assertion forever; flag the typo instead.
			node := resolveNode(hw.plat, ev.Node)
			if hw.net.NodeIndex(node) < 0 {
				b.unknown = append(b.unknown, fmt.Sprintf("t=%gs: assertion on unknown node %q", ev.AtS, node))
				continue
			}
			b.entries = append(b.entries, entry{st: st, tS: ev.AtS, node: node})
		default:
			b.entries = append(b.entries, entry{st: st, tS: ev.AtS})
		}
	}
	for i := range b.entries {
		// sim.Engine.ScheduleAt's rounding to the tick.
		b.entries[i].tick = int(b.entries[i].tS/sim.TickS + 0.5)
	}
	slices.SortStableFunc(b.entries, func(x, y entry) int { return cmp.Compare(x.tick, y.tick) })
	return b
}

// cell is one run of a bound plan: the state its timeline keeps. next is
// the entry the engine fires next, and built tells an engine that ran
// from one that failed to build. pending holds the job ids submitted
// under each departure key in arrival order, key k's in its slots from
// keyOff[k]: head[k] is the next to pop and tail[k] the next free.
// deadlineIDs holds the job id of each arrival with a deadline, by its
// ordinal (0 until it arrives).
type cell struct {
	*bound
	res                              *Result
	next                             int
	built                            bool
	pending, head, tail, deadlineIDs []int
}

// run executes one cell of b under rc.Governor (the scenario's initial
// policy when empty), ignoring rc's hardware fields. discardTrace sets
// sim.Config.DiscardTrace: the result's Sim.Trace is nil.
func (b *bound) run(ctx context.Context, rc Config, discardTrace bool) (*Result, error) {
	sc := b.sc
	govName := rc.Governor
	if govName == "" {
		govName = sc.initialGovernor()
	}
	mk, ok := b.govs[govName]
	if !ok {
		return nil, fmt.Errorf("scenario %s: unknown governor %q", sc.Name, govName)
	}
	// The horizon ends one tick past the scenario; sim.New raises its
	// default 900 s MaxTimeS to cover a longer one.
	cfg := sim.Config{
		Platform:         b.hw.plat,
		Net:              b.hw.net,
		Map:              sc.Map,
		Governor:         mk(),
		MinTimeS:         b.endS + sim.TickS,
		Integrator:       rc.Integrator,
		DisableSuperstep: rc.DisableSuperstep,
		InitialTempsC:    rc.InitialTempsC,
		Done:             ctx.Done(),
		OnSample:         rc.OnSample,
		Clock:            rc.Clock,
		DiscardTrace:     discardTrace,
	}
	res := &Result{Scenario: sc.Name, Governor: govName, Platform: b.hw.name}
	res.Violations = append(res.Violations, b.unknown...)
	c := &cell{bound: b, res: res}
	keys := len(b.keyOff) - 1
	if slots := b.keyOff[keys]; slots+b.deadlines > 0 {
		ids := make([]int, slots+2*keys+b.deadlines)
		c.pending, c.head, c.tail, c.deadlineIDs = ids[:slots], ids[slots:slots+keys], ids[slots+keys:slots+2*keys], ids[slots+2*keys:]
		copy(c.head, b.keyOff)
		copy(c.tail, b.keyOff)
	}
	sr, err := sim.RunWith(cfg, c.schedule)
	switch {
	case err == nil:
	case !c.built:
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	default:
		return nil, fmt.Errorf("scenario %s under %s: %w", sc.Name, govName, err)
	}
	res.Sim = sr

	// Deadline checks: an arrival with deadline_s must have finished in
	// time. A job that departed *before its deadline* is exempt — its
	// deadline left the system with it; one cancelled after the deadline
	// had already passed still missed it.
	for i := range b.steps {
		st := &b.steps[i]
		if st.deadline < 0 || c.deadlineIDs[st.deadline] == 0 {
			continue
		}
		id, byS := c.deadlineIDs[st.deadline], st.ev.AtS+st.ev.DeadlineS
		exempt := false
		for _, jc := range sr.JobCancels {
			if jc.ID == id && jc.AtS <= byS {
				exempt = true
				break
			}
		}
		if exempt {
			continue
		}
		finished := false
		for _, jf := range sr.JobFinishes {
			if jf.ID != id {
				continue
			}
			finished = true
			if jf.AtS > byS {
				res.Violations = append(res.Violations,
					fmt.Sprintf("deadline: %s finished at %.2f s, after its %.2f s deadline", st.app.Name, jf.AtS, byS))
			}
			break
		}
		if !finished {
			res.Violations = append(res.Violations,
				fmt.Sprintf("deadline: %s never finished (deadline %.2f s)", st.app.Name, byS))
		}
	}

	for _, fc := range sc.Final {
		if fc.Node != "" && fc.PeakMaxC > 0 {
			node := resolveNode(b.hw.plat, fc.Node)
			n := b.hw.net.NodeIndex(node)
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

// schedule registers the cell's timeline on e, a new engine: fire once
// per entry, in firing order, so that the engine calls fire for the
// entries in turn.
func (c *cell) schedule(e *sim.Engine) error {
	c.built = true
	fire := c.fire
	for i := range c.entries {
		if err := e.ScheduleAt(c.entries[i].tS, fire); err != nil {
			return err
		}
	}
	return nil
}

// fire runs the cell's next timeline entry.
func (c *cell) fire(e *sim.Engine) error {
	en := &c.entries[c.next]
	c.next++
	st, ev := en.st, en.st.ev
	switch ev.Kind {
	case KindArrival:
		id, err := e.EnqueueAppPriority(st.app, st.part, ev.Priority)
		if err != nil {
			return err
		}
		c.push(st.key, id)
		c.push(st.jobKey, id)
		if st.deadline >= 0 {
			c.deadlineIDs[st.deadline] = id
		}
	case KindDeparture:
		return c.depart(e, st)
	case KindAmbient:
		e.SetAmbientC(en.ambientC)
	case KindGovernor:
		return e.SetGovernor(st.gov())
	case KindPartition:
		return e.SetPartition(*ev.Part)
	case KindMapping:
		return e.SetMapping(*ev.Map)
	case KindAssert:
		if t := e.SensorC(en.node); t > ev.MaxC {
			c.res.Violations = append(c.res.Violations,
				fmt.Sprintf("t=%gs: %s at %.2f °C exceeds %.2f °C", ev.AtS, en.node, t, ev.MaxC))
		}
	}
	return nil
}

// push records job id as submitted under key k (none for k < 0).
func (c *cell) push(k, id int) {
	if k >= 0 {
		c.pending[c.tail[k]] = id
		c.tail[k]++
	}
}

// depart cancels the oldest still-pending submission under the
// departure's key: the exact tagged instance, or name-FIFO for an
// untagged departure. Ids that already finished or were cancelled
// through the other key are skipped, so a departure is not swallowed by
// an earlier same-app job that drained; when every submission finished
// before the tenant left, there is nothing to drop.
func (c *cell) depart(e *sim.Engine, st *step) error {
	k := st.key
	if c.head[k] == c.tail[k] {
		c.res.Violations = append(c.res.Violations,
			fmt.Sprintf("t=%gs: departure of %s with no submitted job", st.ev.AtS, st.ev.App))
		return nil
	}
	for c.head[k] < c.tail[k] {
		id := c.pending[c.head[k]]
		c.head[k]++
		if err := e.CancelJob(id); err == nil || !errors.Is(err, sim.ErrJobNotActive) {
			return err
		}
	}
	return nil
}
