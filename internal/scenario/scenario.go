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
// byte-identical-to-serial output.
//
// Execution has three steps. Compiling a scenario validates it (Validate
// is the compile step with its result discarded) and yields an immutable
// plan: the timeline in dispatch order, each arrival's application built,
// departure keys interned and governor factories resolved. Binding the
// plan to a platform resolves what depends on the hardware: node
// aliases, assertions on nodes the platform lacks, and ambient ramps,
// which chain from the platform's idle ambient. A cell then runs the
// bound plan under one governor, walking it with one engine callback.
// A grid decodes each platform once, compiles each scenario once and
// binds it once per platform, and every cell of a platform's plane reads
// that decoded hardware and bound plan without copying them.
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
// bind to the resolved platform's actual node names — the
// form every builtin preset uses, so the same scenario asserts on "the
// big cluster" of whatever catalog platform (see internal/platform) the
// grid hands it.
package scenario

import (
	"math"

	"teem/internal/mapping"
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
	// Events is the timeline; it is sorted by time at compile.
	Events []Event `json:"events"`
	// Final holds the end-of-run assertions.
	Final []FinalCheck `json:"final,omitempty"`
}

// Validate checks the scenario against the workload catalog and the
// governor registry (extra holds additional accepted governor names; the
// built-ins are always accepted).
func (s *Scenario) Validate(extra map[string]GovernorFactory) error {
	_, err := compile(s, registry(extra))
	return err
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
