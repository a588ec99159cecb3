// Package scenario is the online half of "online thermal- and
// energy-efficiency management": a declarative, deterministic event-timeline
// engine that drives a simulation through dynamic situations — application
// arrivals with priorities and deadlines (higher-priority arrivals preempt
// the live job, which later resumes with its remaining work intact),
// departures that cancel a queued or live job mid-run, ambient-temperature
// steps and ramps ("the device moves into sunlight"), and mid-run
// governor/partition/mapping switches — with per-event and end-of-run
// assertions (e.g. "peak ≤ trip").
//
// A Scenario is plain data: build one with the fluent Builder, write it as
// JSON (Save) or read it back (Load), or compile one from a recorded
// arrival log (FromTrace — trace-driven replay). Run executes a scenario
// against the sim engine's scheduling hooks. RunGrid fans a scenario ×
// governor matrix out across the bounded worker pool on the configured
// hardware, RunPlatformGrid across a list of catalog platforms too; both
// fill the one grid type, PlatformGridResult, with
// byte-identical-to-serial output. A grid decodes each platform once and
// every cell on it shares that decoded hardware read-only.
//
// The JSON schema is one object per scenario:
//
//	{
//	  "name": "sunlight",
//	  "map": {"Big": 4, "Little": 2, "UseGPU": true},
//	  "governor": "ondemand",
//	  "horizon_s": 60,
//	  "events": [
//	    {"at_s": 0,  "kind": "arrival", "app": "COVARIANCE", "part": {"Num": 4, "Den": 8}},
//	    {"at_s": 6,  "kind": "arrival", "app": "MVT", "priority": 2, "deadline_s": 25},
//	    {"at_s": 12, "kind": "ambient", "to_c": 43, "ramp_s": 5},
//	    {"at_s": 20, "kind": "departure", "app": "COVARIANCE"},
//	    {"at_s": 30, "kind": "governor", "governor": "powersave"},
//	    {"at_s": 40, "kind": "assert", "node": "A15", "max_c": 95}
//	  ],
//	  "final": [{"node": "A15", "peak_max_c": 96, "completed": true}]
//	}
//
// Assertion nodes may name a sensor directly ("A15") or use one of the
// platform-independent aliases "@big", "@little", "@gpu", "@pkg", which
// bind to the resolved platform's actual node names at run time — the
// form every builtin preset uses, so the same scenario asserts on "the
// big cluster" of whatever catalog platform (see internal/platform) the
// grid hands it.
package scenario

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"

	"teem/internal/mapping"
	"teem/internal/sim"
	"teem/internal/workload"
)

// Kind tags the event types of a scenario timeline.
type Kind string

// Event kinds.
const (
	// KindArrival submits an application to the engine's job queue: it
	// starts immediately on an idle engine, preempts the live job when
	// its Priority is strictly higher, and otherwise queues behind its
	// priority class (equal priorities run FIFO — overlapping arrivals).
	KindArrival Kind = "arrival"
	// KindDeparture cancels the named application's oldest still-pending
	// submission — queued or live — charging only the work already done
	// (a tenant leaving the system). Departing a job that already
	// finished is a tolerated no-op.
	KindDeparture Kind = "departure"
	// KindAmbient steps (or, with RampS, linearly ramps) the ambient
	// temperature to ToC.
	KindAmbient Kind = "ambient"
	// KindGovernor switches the DVFS policy to the named governor.
	KindGovernor Kind = "governor"
	// KindPartition re-splits the live job's remaining work-items.
	KindPartition Kind = "partition"
	// KindMapping switches the CPU/GPU mapping.
	KindMapping Kind = "mapping"
	// KindAssert checks an instantaneous condition at the event time;
	// violations are collected, not fatal.
	KindAssert Kind = "assert"
)

// Event is one timeline entry. Only the fields of its Kind are read.
type Event struct {
	// AtS is the simulated event time in seconds (snapped to a tick).
	AtS float64 `json:"at_s"`
	// Kind selects the event type.
	Kind Kind `json:"kind"`

	// App names the arriving (KindArrival) or departing (KindDeparture)
	// application, resolved through the workload catalog (e.g.
	// "COVARIANCE").
	App string `json:"app,omitempty"`
	// Part is the work-item split of an arrival or a partition switch.
	// A nil arrival partition defaults to the scenario mapping's
	// natural split: 4/8 with CPU and GPU mapped, 8/8 CPU-only, 0/8
	// GPU-only.
	Part *mapping.Partition `json:"part,omitempty"`
	// Priority is the arrival's scheduling priority (KindArrival):
	// higher runs first and a strictly higher arrival preempts the live
	// job. The default 0 is the classic FIFO class.
	Priority int `json:"priority,omitempty"`
	// DeadlineS, when positive, requires the arriving job to finish
	// within that many seconds of its arrival; a miss is recorded as a
	// violation (KindArrival). A job that departs before its deadline
	// is exempt.
	DeadlineS float64 `json:"deadline_s,omitempty"`
	// Job optionally tags a submission so a departure can target that
	// specific arrival instead of the app's oldest still-pending one
	// (KindArrival, KindDeparture). FromTrace tags every held record,
	// so replayed logs with overlapping same-app tenants cancel exactly
	// the recorded instance.
	Job string `json:"job,omitempty"`

	// ToC is the ambient target (KindAmbient); RampS, when positive,
	// spreads the change linearly over that many seconds (discretised
	// at 100 ms) instead of stepping instantaneously.
	ToC   float64 `json:"to_c,omitempty"`
	RampS float64 `json:"ramp_s,omitempty"`

	// Governor names the policy to switch to (KindGovernor).
	Governor string `json:"governor,omitempty"`

	// Map is the new mapping (KindMapping).
	Map *mapping.Mapping `json:"map,omitempty"`

	// Node and MaxC express an instantaneous assertion (KindAssert):
	// the named sensor (or @big/@little/@gpu/@pkg alias) must read at
	// most MaxC at AtS.
	Node string  `json:"node,omitempty"`
	MaxC float64 `json:"max_c,omitempty"`
}

// FinalCheck is an end-of-run assertion evaluated on the finished result.
type FinalCheck struct {
	// Node + PeakMaxC: the node's (or @-alias's) peak temperature over
	// the whole run must stay at or below PeakMaxC.
	Node     string  `json:"node,omitempty"`
	PeakMaxC float64 `json:"peak_max_c,omitempty"`
	// Completed requires every submitted job to have finished.
	Completed bool `json:"completed,omitempty"`
	// MaxExecS bounds the execution time (0 = unchecked).
	MaxExecS float64 `json:"max_exec_s,omitempty"`
}

// Scenario is a declarative dynamic-workload description.
type Scenario struct {
	// Name identifies the scenario in grids and reports.
	Name string `json:"name"`
	// Map is the initial CPU/GPU mapping.
	Map mapping.Mapping `json:"map"`
	// Governor is the initial DVFS policy name (default "ondemand").
	// Grid runs override it per column.
	Governor string `json:"governor,omitempty"`
	// HorizonS keeps the simulation alive until this time even when all
	// work has drained (0: run ends after the last event and job).
	HorizonS float64 `json:"horizon_s,omitempty"`
	// Events is the timeline; it is sorted by time at run.
	Events []Event `json:"events"`
	// Final holds the end-of-run assertions.
	Final []FinalCheck `json:"final,omitempty"`
}

// Validate checks the scenario against the workload catalog and the
// governor registry (extra holds additional accepted governor names; the
// built-ins are always accepted).
func (s *Scenario) Validate(extra map[string]GovernorFactory) error {
	if s.Name == "" {
		return errors.New("scenario: empty name")
	}
	knownGov := func(name string) bool {
		if name == "" {
			return true
		}
		if _, ok := builtinGovernors()[name]; ok {
			return true
		}
		_, ok := extra[name]
		return ok
	}
	if !knownGov(s.Governor) {
		return fmt.Errorf("scenario %s: unknown governor %q", s.Name, s.Governor)
	}
	// NaN and ±Inf pass every ordered comparison below unnoticed: a NaN
	// bound never fires and an infinite horizon runs no ticks at all.
	if f, bad := nonFinite(numField{"horizon_s", s.HorizonS}); bad {
		return fmt.Errorf("scenario %s: non-finite %s %g", s.Name, f.name, f.v)
	}
	if s.HorizonS < 0 {
		return fmt.Errorf("scenario %s: negative horizon", s.Name)
	}
	arrivals, rampSteps := 0, 0.0
	arrCount := map[string]int{}
	depCount := map[string]int{}
	for i := range s.Events {
		ev := &s.Events[i]
		if f, bad := nonFinite(numField{"at_s", ev.AtS}, numField{"ramp_s", ev.RampS}, numField{"to_c", ev.ToC},
			numField{"max_c", ev.MaxC}, numField{"deadline_s", ev.DeadlineS}); bad {
			return fmt.Errorf("scenario %s: event %d: non-finite %s %g", s.Name, i, f.name, f.v)
		}
		if ev.AtS < 0 {
			return fmt.Errorf("scenario %s: event %d at t=%g before the run starts", s.Name, i, ev.AtS)
		}
		switch ev.Kind {
		case KindArrival:
			if _, err := workload.ByName(ev.App); err != nil {
				return fmt.Errorf("scenario %s: event %d: %w", s.Name, i, err)
			}
			if ev.Part != nil {
				if err := ev.Part.Validate(); err != nil {
					return fmt.Errorf("scenario %s: event %d: %w", s.Name, i, err)
				}
			}
			if ev.DeadlineS < 0 {
				return fmt.Errorf("scenario %s: event %d: negative deadline", s.Name, i)
			}
			arrivals++
			arrCount[ev.App]++
			if ev.Job != "" {
				arrCount[ev.App+"\x00"+ev.Job]++
			}
		case KindDeparture:
			if ev.App == "" {
				return fmt.Errorf("scenario %s: event %d: departure without an app", s.Name, i)
			}
			// The matching arrival — same app, and same job tag when the
			// departure carries one — must dispatch before the
			// departure: strictly earlier in time, or on the same tick
			// but earlier in the event list (sortedEvents is stable, so
			// same-time events keep list order at run time).
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
				return fmt.Errorf("scenario %s: event %d: departure of %q with no earlier arrival", s.Name, i, ev.App)
			}
			depCount[ev.App]++
			if ev.Job != "" {
				depCount[ev.App+"\x00"+ev.Job]++
			}
		case KindAmbient:
			if ev.RampS < 0 {
				return fmt.Errorf("scenario %s: event %d: negative ramp", s.Name, i)
			}
			// A ramp compiles to one engine event per ambientRampStepS.
			if rampSteps += ev.RampS / ambientRampStepS; rampSteps > maxRampSteps {
				return fmt.Errorf("scenario %s: event %d: ambient ramps compile to over %d steps", s.Name, i, maxRampSteps)
			}
		case KindGovernor:
			if ev.Governor == "" || !knownGov(ev.Governor) {
				return fmt.Errorf("scenario %s: event %d: unknown governor %q", s.Name, i, ev.Governor)
			}
		case KindPartition:
			if ev.Part == nil {
				return fmt.Errorf("scenario %s: event %d: partition switch without a partition", s.Name, i)
			}
			if err := ev.Part.Validate(); err != nil {
				return fmt.Errorf("scenario %s: event %d: %w", s.Name, i, err)
			}
		case KindMapping:
			if ev.Map == nil {
				return fmt.Errorf("scenario %s: event %d: mapping switch without a mapping", s.Name, i)
			}
		case KindAssert:
			if ev.Node == "" {
				return fmt.Errorf("scenario %s: event %d: assertion without a node", s.Name, i)
			}
			if ev.MaxC <= 0 {
				return fmt.Errorf("scenario %s: event %d: assertion without a max_c bound", s.Name, i)
			}
		default:
			return fmt.Errorf("scenario %s: event %d: unknown kind %q", s.Name, i, ev.Kind)
		}
	}
	if arrivals == 0 {
		return fmt.Errorf("scenario %s: no application arrivals", s.Name)
	}
	// A run lasts one tick past EndS (Run), and the engine refuses one
	// that reaches sim.MaxRunS.
	if end := s.EndS(); end+sim.TickS >= sim.MaxRunS {
		return fmt.Errorf("scenario %s: timeline ends at %g s, past the engine's %g s limit", s.Name, end, sim.MaxRunS)
	}
	// Each departure consumes one submission: more departures than
	// arrivals of an app (or of one tagged instance) can never all
	// resolve — catch the authoring error statically instead of
	// flagging the surplus departure as a runtime violation. Keys are
	// checked in sorted order so a scenario with several surplus
	// departures always reports the same one.
	for _, key := range slices.Sorted(maps.Keys(depCount)) {
		n := depCount[key]
		if n > arrCount[key] {
			app := key
			if k := strings.IndexByte(key, 0); k >= 0 {
				app = key[:k] + " (job " + key[k+1:] + ")"
			}
			return fmt.Errorf("scenario %s: %d departures of %s but only %d arrivals", s.Name, n, app, arrCount[key])
		}
	}
	for i, fc := range s.Final {
		if f, bad := nonFinite(numField{"peak_max_c", fc.PeakMaxC}, numField{"max_exec_s", fc.MaxExecS}); bad {
			return fmt.Errorf("scenario %s: final check %d: non-finite %s %g", s.Name, i, f.name, f.v)
		}
		if fc.Node == "" && fc.PeakMaxC > 0 {
			return fmt.Errorf("scenario %s: final check %d: peak bound without a node", s.Name, i)
		}
	}
	return nil
}

// numField is a numeric schema field under its JSON name.
type numField struct {
	name string
	v    float64
}

// nonFinite returns the first of fs that is NaN or ±Inf.
func nonFinite(fs ...numField) (numField, bool) {
	for _, f := range fs {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return f, true
		}
	}
	return numField{}, false
}

// EndS returns the time of the last timeline entry (ramp tails included).
func (s *Scenario) EndS() float64 {
	end := s.HorizonS
	for i := range s.Events {
		t := s.Events[i].AtS + s.Events[i].RampS
		if t > end {
			end = t
		}
	}
	return end
}

// initialGovernor is the policy the scenario starts under: Governor, or
// ondemand when it names none.
func (s *Scenario) initialGovernor() string {
	if s.Governor == "" {
		return "ondemand"
	}
	return s.Governor
}

// sortedEvents returns the timeline ordered by (time, index) — a stable
// copy, so identical scenarios always replay identically.
func (s *Scenario) sortedEvents() []Event {
	evs := append([]Event(nil), s.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].AtS < evs[j].AtS })
	return evs
}

// defaultPart is the arrival split implied by a mapping: an even 4/8 when
// both CPU cores and the GPU are available, everything on the one side
// otherwise.
func defaultPart(m mapping.Mapping) mapping.Partition {
	switch {
	case m.CPUCores() > 0 && m.UseGPU:
		return mapping.Partition{Num: 4, Den: 8}
	case m.UseGPU:
		return mapping.Partition{Num: 0, Den: 8}
	default:
		return mapping.Partition{Num: 8, Den: 8}
	}
}

// --- builder ------------------------------------------------------------------

// Builder assembles a Scenario fluently; Build validates the result.
type Builder struct {
	s Scenario
}

// New starts a scenario with the paper's default 2L+4B+GPU mapping.
func New(name string) *Builder {
	return &Builder{s: Scenario{
		Name: name,
		Map:  mapping.Mapping{Big: 4, Little: 2, UseGPU: true},
	}}
}

// Horizon keeps the run alive until tS even when all work has drained.
func (b *Builder) Horizon(tS float64) *Builder {
	b.s.HorizonS = tS
	return b
}

// Arrive submits an application at tS with the given work-item split.
func (b *Builder) Arrive(tS float64, app string, part mapping.Partition) *Builder {
	b.s.Events = append(b.s.Events, Event{AtS: tS, Kind: KindArrival, App: app, Part: &part})
	return b
}

// ArriveDefault submits an application at tS with the mapping's natural
// split.
func (b *Builder) ArriveDefault(tS float64, app string) *Builder {
	b.s.Events = append(b.s.Events, Event{AtS: tS, Kind: KindArrival, App: app})
	return b
}

// ArrivePriority submits an application at tS in the given priority class
// (higher preempts lower; the mapping's natural split).
func (b *Builder) ArrivePriority(tS float64, app string, priority int) *Builder {
	b.s.Events = append(b.s.Events, Event{AtS: tS, Kind: KindArrival, App: app, Priority: priority})
	return b
}

// Depart cancels the named application's oldest pending submission at tS
// — queued or live — charging only the work already done.
func (b *Builder) Depart(tS float64, app string) *Builder {
	b.s.Events = append(b.s.Events, Event{AtS: tS, Kind: KindDeparture, App: app})
	return b
}

// AmbientStep jumps the ambient temperature to toC at tS.
func (b *Builder) AmbientStep(tS, toC float64) *Builder {
	b.s.Events = append(b.s.Events, Event{AtS: tS, Kind: KindAmbient, ToC: toC})
	return b
}

// AmbientRamp moves the ambient linearly to toC over durS seconds
// starting at tS.
func (b *Builder) AmbientRamp(tS, durS, toC float64) *Builder {
	b.s.Events = append(b.s.Events, Event{AtS: tS, Kind: KindAmbient, ToC: toC, RampS: durS})
	return b
}

// SwitchGovernor swaps the DVFS policy at tS.
func (b *Builder) SwitchGovernor(tS float64, name string) *Builder {
	b.s.Events = append(b.s.Events, Event{AtS: tS, Kind: KindGovernor, Governor: name})
	return b
}

// SwitchPartition re-splits the remaining work at tS.
func (b *Builder) SwitchPartition(tS float64, p mapping.Partition) *Builder {
	b.s.Events = append(b.s.Events, Event{AtS: tS, Kind: KindPartition, Part: &p})
	return b
}

// SwitchMapping changes the CPU/GPU mapping at tS.
func (b *Builder) SwitchMapping(tS float64, m mapping.Mapping) *Builder {
	b.s.Events = append(b.s.Events, Event{AtS: tS, Kind: KindMapping, Map: &m})
	return b
}

// AssertTempBelow requires the named sensor to read at most maxC at tS.
func (b *Builder) AssertTempBelow(tS float64, node string, maxC float64) *Builder {
	b.s.Events = append(b.s.Events, Event{AtS: tS, Kind: KindAssert, Node: node, MaxC: maxC})
	return b
}

// AssertPeakBelow requires the named node's whole-run peak to stay at or
// below maxC.
func (b *Builder) AssertPeakBelow(node string, maxC float64) *Builder {
	b.s.Final = append(b.s.Final, FinalCheck{Node: node, PeakMaxC: maxC})
	return b
}

// RequireCompletion requires every submitted job to finish.
func (b *Builder) RequireCompletion() *Builder {
	b.s.Final = append(b.s.Final, FinalCheck{Completed: true})
	return b
}

// Build validates and returns the scenario.
func (b *Builder) Build() (*Scenario, error) {
	s := b.s
	if err := s.Validate(nil); err != nil {
		return nil, err
	}
	return &s, nil
}
