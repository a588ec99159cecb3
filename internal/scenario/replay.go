package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"teem/internal/mapping"
)

// Trace-driven arrival replay: a recorded arrival log — who arrived when,
// at what priority, with what deadline, and how long the tenant stayed —
// compiles into an ordinary deterministic Scenario, so measured device
// traces run through the same engine, grids and CI gates as hand-authored
// timelines.
//
// The log JSON is one object:
//
//	{
//	  "name": "tuesday-afternoon",
//	  "map": {"Big": 4, "Little": 2, "UseGPU": true},
//	  "governor": "ondemand",
//	  "records": [
//	    {"app": "COVARIANCE", "at_s": 0},
//	    {"app": "MVT", "at_s": 6, "priority": 2, "deadline_s": 30},
//	    {"app": "GEMM", "at_s": 9, "hold_s": 8}
//	  ]
//	}
//
// A record with hold_s leaves (departs, cancelling any unfinished work)
// that many seconds after arriving; one with deadline_s must finish
// within that many seconds of arriving or the replay records a violation.

// TraceRecord is one recorded arrival.
type TraceRecord struct {
	// App is the workload-catalog application name.
	App string `json:"app"`
	// AtS is the recorded arrival time in seconds.
	AtS float64 `json:"at_s"`
	// Priority is the job's scheduling class (higher preempts lower).
	Priority int `json:"priority,omitempty"`
	// DeadlineS, when positive, bounds the job's completion to that many
	// seconds after arrival.
	DeadlineS float64 `json:"deadline_s,omitempty"`
	// HoldS, when positive, is how long the tenant stayed: the job
	// departs (cancelling unfinished work) at AtS+HoldS.
	HoldS float64 `json:"hold_s,omitempty"`
	// Part overrides the mapping's natural work-item split.
	Part *mapping.Partition `json:"part,omitempty"`
}

// ArrivalTrace is a recorded arrival log plus the platform context it
// was captured under.
type ArrivalTrace struct {
	// Name identifies the replay scenario built from the log.
	Name string `json:"name"`
	// Map is the initial CPU/GPU mapping (default: 2L+4B+GPU).
	Map *mapping.Mapping `json:"map,omitempty"`
	// Governor is the initial DVFS policy name (grid runs override it).
	Governor string `json:"governor,omitempty"`
	// HorizonS keeps the replay alive until this time even when the
	// queue drains early (0: until the last event and job).
	HorizonS float64 `json:"horizon_s,omitempty"`
	// Records is the arrival log; it is sorted by time at compile.
	Records []TraceRecord `json:"records"`
}

// LoadTrace reads an arrival log from JSON (strict fields, no
// validation beyond decoding — FromTrace validates the compiled result).
func LoadTrace(r io.Reader) (*ArrivalTrace, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var tr ArrivalTrace
	if err := dec.Decode(&tr); err != nil {
		return nil, fmt.Errorf("scenario: decoding arrival trace: %w", err)
	}
	return &tr, nil
}

// Save writes the arrival log as indented JSON.
func (tr *ArrivalTrace) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tr)
}

// FromTrace compiles a recorded arrival log into a deterministic,
// validated Scenario: each record becomes an arrival event (priority,
// deadline and partition carried over) and each positive hold becomes the
// matching departure. The compiled scenario requires completion of the
// surviving work, so replays slot straight into grids and the CI gate.
func FromTrace(tr *ArrivalTrace) (*Scenario, error) {
	if tr == nil {
		return nil, errors.New("scenario: nil arrival trace")
	}
	if len(tr.Records) == 0 {
		return nil, fmt.Errorf("scenario: arrival trace %q has no records", tr.Name)
	}
	// NaN passes every ordered check below (a NaN hold_s silently drops
	// its departure), so reject non-finite values up front, and negative
	// holds with them, naming the record by its position in the log.
	if f, bad := nonFinite(numField{"horizon_s", tr.HorizonS}); bad {
		return nil, fmt.Errorf("scenario: arrival trace %q: non-finite %s %g", tr.Name, f.name, f.v)
	}
	for i, r := range tr.Records {
		if f, bad := nonFinite(numField{"at_s", r.AtS}, numField{"hold_s", r.HoldS}, numField{"deadline_s", r.DeadlineS}); bad {
			return nil, fmt.Errorf("scenario: arrival trace %q: record %d: non-finite %s %g", tr.Name, i, f.name, f.v)
		}
		if r.HoldS < 0 {
			return nil, fmt.Errorf("scenario: arrival trace %q: record %d has a negative hold", tr.Name, i)
		}
	}
	m := mapping.Mapping{Big: 4, Little: 2, UseGPU: true}
	if tr.Map != nil {
		m = *tr.Map
	}
	s := &Scenario{
		Name:     tr.Name,
		Map:      m,
		Governor: tr.Governor,
		HorizonS: tr.HorizonS,
		Final:    []FinalCheck{{Completed: true}},
	}
	recs := append([]TraceRecord(nil), tr.Records...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].AtS < recs[j].AtS })
	for i := range recs {
		r := &recs[i]
		// A held record's departure is bound to this exact submission
		// by a job tag: overlapping same-app tenants with non-FIFO
		// holds must cancel the recorded instance, not whichever
		// same-name job is oldest when the hold expires.
		job := ""
		if r.HoldS > 0 {
			job = fmt.Sprintf("t%d", i)
		}
		s.Events = append(s.Events, Event{
			AtS: r.AtS, Kind: KindArrival, App: r.App,
			Part: r.Part, Priority: r.Priority, DeadlineS: r.DeadlineS, Job: job,
		})
		if r.HoldS > 0 {
			s.Events = append(s.Events, Event{AtS: r.AtS + r.HoldS, Kind: KindDeparture, App: r.App, Job: job})
		}
	}
	// Departures were interleaved by record; restore global time order so
	// the timeline reads (and replays) chronologically.
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].AtS < s.Events[j].AtS })
	if err := s.Validate(nil); err != nil {
		return nil, fmt.Errorf("scenario: compiling arrival trace %q: %w", tr.Name, err)
	}
	return s, nil
}
