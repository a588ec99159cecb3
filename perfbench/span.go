package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"teem/internal/obs"
)

// span is one timed call the benchmark made into a layer: its name
// (layer.call), interval, the span that caused it, and the operation
// (pass or request) it belongs to. Start and End are offsets from the
// recorder's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, at exit.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(r.spans)
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a daemon
// lifecycle span, a wait between two client events).
func (r *recorder) add(name string, parent, op int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return len(r.spans)
}

// snapshot returns a copy of every recorded span.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes the spans as NDJSON.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its children cover. Children are clipped to the
// parent's interval and overlapping children count once, so for a span
// whose children run in sequence the self times of the span and its
// subtree add up to the span's duration exactly.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// layerTimes aggregates spans by name: count, summed duration and the
// individual durations.
type layerTimes struct {
	n    int
	dur  time.Duration
	durs []float64 // per-span durations in ms
}

func byName(spans []span) map[string]*layerTimes {
	out := map[string]*layerTimes{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Name] = lt
		}
		lt.n++
		lt.dur += s.dur()
		lt.durs = append(lt.durs, ms(s.dur()))
	}
	return out
}

// jobTimeline is one daemon job's lifecycle as its /trace spans tell it.
type jobTimeline struct {
	queue, run, journal, terminal time.Time
	phase                         string // terminal phase
	spans                         int
}

// joinJobSpans groups the daemon's lifecycle spans by job id, keeping
// only the jobs the caller names. A retried job keeps its first run
// span; the terminal span is the last of done, failed or cancelled.
func joinJobSpans(ds []obs.Span, want map[string]bool) map[string]*jobTimeline {
	out := map[string]*jobTimeline{}
	for _, s := range ds {
		if !want[s.Job] {
			continue
		}
		jt := out[s.Job]
		if jt == nil {
			jt = &jobTimeline{}
			out[s.Job] = jt
		}
		jt.spans++
		switch s.Phase {
		case "queue":
			jt.queue = s.At
		case "run":
			if jt.run.IsZero() {
				jt.run = s.At
			}
		case "journal-commit":
			jt.journal = s.At
		case "done", "failed", "cancelled":
			jt.terminal = s.At
			jt.phase = s.Phase
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
