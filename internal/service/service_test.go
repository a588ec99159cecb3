package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"teem/internal/scenario"
	"teem/internal/trace"
)

// tinyScenarioJSON builds a short inline scenario document with the
// given name — distinct names defeat the request cache when a test needs
// real concurrent work.
func tinyScenarioJSON(t *testing.T, name string) json.RawMessage {
	t.Helper()
	sc, err := scenario.New(name).
		ArriveDefault(0, "MVT").
		Horizon(5).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := sc.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// longScenarioJSON is a scenario whose idle horizon keeps the engine
// ticking long enough for a test to cancel it mid-run.
func longScenarioJSON(t *testing.T) json.RawMessage {
	t.Helper()
	sc, err := scenario.New("long-haul").
		ArriveDefault(0, "COVARIANCE").
		Horizon(100000).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := sc.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func newTestService(t *testing.T, o Options) *Service {
	t.Helper()
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func waitTerminal(t *testing.T, j *Job, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		js := j.Snapshot()
		if js.Terminal() {
			return js
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", j.ID, js.Status, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A preset scenario job must produce exactly the bytes the teemscenario
// code path renders for the same work.
func TestSubmitPresetMatchesCLIRender(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	j, cached, err := s.Submit(&JobRequest{Preset: "sunlight", Governors: []string{"ondemand"}})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first submission reported cached")
	}
	js := waitTerminal(t, j, 30*time.Second)
	if js.Status != StatusDone {
		t.Fatalf("job ended %s: %s", js.Status, js.Error)
	}
	text, sum, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := scenario.RunGrid([]*scenario.Scenario{scenario.Sunlight()}, []string{"ondemand"}, scenario.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if text != grid.Render() {
		t.Errorf("service result differs from the CLI render:\nservice:\n%s\ncli:\n%s", text, grid.Render())
	}
	if sum.Cells != 1 {
		t.Errorf("summary cells = %d, want 1", sum.Cells)
	}
}

// A repeated identical request must be served from the single-flight
// cache: same job, no second simulation, cache-hit counter incremented.
func TestRepeatedRequestServedFromCache(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	req := &JobRequest{Preset: "sunlight", Governors: []string{"powersave"}}
	j1, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1, 30*time.Second)
	j2, cached, err := s.Submit(&JobRequest{Preset: "sunlight", Governors: []string{"powersave"}})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("identical repeat not reported cached")
	}
	if j1.ID != j2.ID {
		t.Errorf("repeat created a new job: %s vs %s", j1.ID, j2.ID)
	}
	if got := s.Metrics().CacheHits(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	// Workers only changes scheduling, never bytes — it must not split
	// the cache.
	_, cached, err = s.Submit(&JobRequest{Preset: "sunlight", Governors: []string{"powersave"}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("worker-count variation split the request cache")
	}
}

// A failed or cancelled job must be forgotten so a retry re-executes.
func TestCancelledJobForgotten(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	j1, _, err := s.Submit(&JobRequest{Scenario: longScenarioJSON(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, j1)
	if err := s.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	js := waitTerminal(t, j1, 10*time.Second)
	if js.Status != StatusCancelled {
		t.Fatalf("job ended %s, want cancelled", js.Status)
	}
	j2, cached, err := s.Submit(&JobRequest{Scenario: longScenarioJSON(t)})
	if err != nil {
		t.Fatal(err)
	}
	if cached || j2.ID == j1.ID {
		t.Error("cancelled job still answered from the cache")
	}
	_ = s.Cancel(j2.ID)
}

func waitRunning(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		js := j.Snapshot()
		if js.Status == StatusRunning {
			return
		}
		if js.Terminal() {
			t.Fatalf("job %s ended %s before running", j.ID, js.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", j.ID)
		}
		time.Sleep(time.Millisecond)
	}
}

// Cancelling a running simulation must come back promptly — the abort
// is observed within one sim tick, so end-to-end cancellation latency is
// bounded by scheduling, not by the remaining simulated horizon.
func TestCancelRunningJobReturnsPromptly(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	j, _, err := s.Submit(&JobRequest{Scenario: longScenarioJSON(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, j)
	start := time.Now()
	if err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	js := waitTerminal(t, j, 5*time.Second)
	if js.Status != StatusCancelled {
		t.Fatalf("job ended %s, want cancelled", js.Status)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancellation took %v", d)
	}
	if _, _, err := j.Result(); err == nil {
		t.Error("cancelled job served a result")
	}
}

// A queued job cancelled before a worker picks it up must never start.
func TestCancelQueuedJobNeverStarts(t *testing.T) {
	s := newTestService(t, Options{Workers: 1, QueueDepth: 8})
	// Occupy the only worker.
	blocker, _, err := s.Submit(&JobRequest{Scenario: longScenarioJSON(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, blocker)
	queued, _, err := s.Submit(&JobRequest{Preset: "sunlight"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	// The cancellation is visible immediately — not only once a worker
	// would have dequeued the job — and the doomed job no longer
	// answers identical submissions from the cache.
	js := queued.Snapshot()
	if js.Status != StatusCancelled {
		t.Fatalf("queued job reports %s right after cancel, want cancelled", js.Status)
	}
	if js.StartedAt != nil {
		t.Error("cancelled queued job reports a start time")
	}
	fresh, cached, err := s.Submit(&JobRequest{Preset: "sunlight"})
	if err != nil {
		t.Fatal(err)
	}
	if cached || fresh.ID == queued.ID {
		t.Error("identical submission was served the cancelled queued job")
	}
	if err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, fresh, 30*time.Second)
}

// The acceptance hammer: ≥64 concurrent submissions (a mix of unique
// requests and duplicates) must be race-clean and every job must reach a
// terminal state with the right result.
func TestConcurrentSubmissionsHammer(t *testing.T) {
	s := newTestService(t, Options{Workers: 4, QueueDepth: 256})
	const clients = 64
	var wg sync.WaitGroup
	jobs := make([]*Job, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var req *JobRequest
			if c%4 == 0 {
				// Every fourth client repeats one shared request —
				// the duplicates must collapse onto one job.
				req = &JobRequest{Preset: "sunlight", Governors: []string{"ondemand"}}
			} else {
				req = &JobRequest{Scenario: tinyScenarioJSON(t, fmt.Sprintf("hammer-%d", c))}
			}
			j, _, err := s.Submit(req)
			if err != nil {
				errs[c] = err
				return
			}
			jobs[c] = j
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	shared := map[string]bool{}
	for c, j := range jobs {
		js := waitTerminal(t, j, 120*time.Second)
		if js.Status != StatusDone {
			t.Fatalf("client %d job %s ended %s: %s", c, j.ID, js.Status, js.Error)
		}
		if c%4 == 0 {
			shared[j.ID] = true
		}
	}
	if len(shared) != 1 {
		t.Errorf("duplicate requests landed on %d jobs, want 1", len(shared))
	}
	m := s.Metrics()
	if m.Done() == 0 || m.Queued() != 0 || m.Running() != 0 {
		t.Errorf("metrics after drain: %s", m.String())
	}
	if m.CacheHits() < 15 {
		t.Errorf("cache hits = %d, want ≥15 (16 duplicate clients share one execution)", m.CacheHits())
	}
	if m.LatencyP50() <= 0 || m.LatencyP99() < m.LatencyP50() {
		t.Errorf("latency percentiles inconsistent: p50=%g p99=%g", m.LatencyP50(), m.LatencyP99())
	}
}

// The stream must replay history for late subscribers, byte-identically
// to what a live subscriber saw, and its sample lines must match the
// result's recorded trace.
func TestStreamLiveAndReplayAgree(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	j, _, err := s.Submit(&JobRequest{Preset: "sunlight", Governors: []string{"ondemand"}})
	if err != nil {
		t.Fatal(err)
	}
	var live bytes.Buffer
	if err := j.Stream(context.Background(), func(line []byte) error {
		live.Write(line)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	js := j.Snapshot()
	if js.Status != StatusDone {
		t.Fatalf("job ended %s: %s", js.Status, js.Error)
	}
	var replay bytes.Buffer
	if err := j.Stream(context.Background(), func(line []byte) error {
		replay.Write(line)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), replay.Bytes()) {
		t.Error("late replay differs from the live stream")
	}
	// Count events.
	var samples, cells, starts, dones int
	for _, line := range strings.Split(strings.TrimSpace(live.String()), "\n") {
		var ev streamEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch ev.Type {
		case "sample":
			samples++
		case "cell":
			cells++
		case "start":
			starts++
		case "done":
			dones++
		}
	}
	if starts != 1 || dones != 1 || cells != 1 {
		t.Errorf("stream had %d start, %d cell, %d done events", starts, cells, dones)
	}
	// The single-cell job streams every recorded trace sample.
	want := 0
	rc := scenario.Config{OnSample: func(trace.Sample) { want++ }}
	if _, err := scenario.RunGrid([]*scenario.Scenario{scenario.Sunlight()}, []string{"ondemand"}, rc, 1); err != nil {
		t.Fatal(err)
	}
	if samples != want {
		t.Errorf("streamed %d samples, trace has %d", samples, want)
	}
}

// The wire format must carry legitimately zero values: the first sample
// of every run is at t=0 and its t_s field must be on the line.
func TestStreamSampleZeroFieldsOnWire(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	j, _, err := s.Submit(&JobRequest{Preset: "sunlight", Governors: []string{"ondemand"}})
	if err != nil {
		t.Fatal(err)
	}
	var firstSample string
	if err := j.Stream(context.Background(), func(line []byte) error {
		if firstSample == "" && strings.Contains(string(line), `"type":"sample"`) {
			firstSample = string(line)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if firstSample == "" {
		t.Fatal("no sample lines streamed")
	}
	for _, field := range []string{`"t_s":0`, `"power_w":`, `"temps_c":`, `"freqs_mhz":`, `"utils":`} {
		if !strings.Contains(firstSample, field) {
			t.Errorf("first sample line lacks %s: %s", field, firstSample)
		}
	}
}

// A cancelled stream subscriber must not wedge: a blocked waitFrom wakes
// on context cancellation.
func TestStreamSubscriberCancel(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	j, _, err := s.Submit(&JobRequest{Scenario: longScenarioJSON(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, j)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- j.Stream(ctx, func([]byte) error { return nil })
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled stream returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not unblock on subscriber cancellation")
	}
	_ = s.Cancel(j.ID)
}

// Admission control: a full queue sheds load with ErrBusy instead of
// queueing without bound.
func TestQueueFullShedsLoad(t *testing.T) {
	s := newTestService(t, Options{Workers: 1, QueueDepth: 1})
	blocker, _, err := s.Submit(&JobRequest{Scenario: longScenarioJSON(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, blocker)
	if _, _, err := s.Submit(&JobRequest{Preset: "sunlight"}); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Submit(&JobRequest{Preset: "rush-hour"})
	if err == nil {
		t.Fatal("third submission accepted with a full queue")
	}
	if !strings.Contains(err.Error(), "full") {
		t.Errorf("got %v, want ErrBusy", err)
	}
	_ = s.Cancel(blocker.ID)
}

// Drain rejects new work and cancels what outlives the deadline.
func TestDrainCancelsStragglers(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	j, _, err := s.Submit(&JobRequest{Scenario: longScenarioJSON(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, j)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Error("drain of a long job inside 50ms reported success")
	}
	js := j.Snapshot()
	if js.Status != StatusCancelled {
		t.Errorf("straggler ended %s, want cancelled", js.Status)
	}
	if _, _, err := s.Submit(&JobRequest{Preset: "sunlight"}); err == nil {
		t.Error("draining service accepted new work")
	}
}

// Malformed requests fail at submission, not execution.
func TestSubmitValidation(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	cases := []*JobRequest{
		nil,
		{Kind: "nope", Preset: "sunlight"},
		{},                         // no source
		{Preset: "no-such-preset"}, // unknown preset
		{Preset: "sunlight", Governors: []string{"no-such-gov"}},
		{Preset: "sunlight", Integrator: "rk4"},
		{Kind: KindGrid, Preset: "sunlight"},                     // wrong source field
		{Kind: KindFig5, Preset: "sunlight"},                     // fig5 takes no source
		{Scenario: json.RawMessage(`{"bad json`)},                // malformed inline
		{Preset: "sunlight", Scenario: tinyScenarioJSON(t, "x")}, // two sources
	}
	for i, req := range cases {
		if _, _, err := s.Submit(req); err == nil {
			t.Errorf("case %d accepted invalid request %+v", i, req)
		}
	}
	if q := s.Metrics().Queued(); q != 0 {
		t.Errorf("invalid submissions left %d queued", q)
	}
}

// The grid job streams one cell event per cell and summarizes
// violations like the CLI exit-code gate.
func TestGridJobStreamsCells(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	j, _, err := s.Submit(&JobRequest{
		Kind:      KindGrid,
		Presets:   []string{"sunlight", "core-loss"},
		Governors: []string{"ondemand", "powersave"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var cells int
	if err := j.Stream(context.Background(), func(line []byte) error {
		var ev streamEvent
		if err := json.Unmarshal(bytes.TrimSpace(line), &ev); err != nil {
			return err
		}
		if ev.Type == "cell" {
			cells++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if cells != 4 {
		t.Errorf("streamed %d cell events, want 4", cells)
	}
	js := j.Snapshot()
	if js.Status != StatusDone {
		t.Fatalf("grid job ended %s: %s", js.Status, js.Error)
	}
	if js.Summary == nil || js.Summary.Cells != 4 {
		t.Errorf("summary = %+v, want 4 cells", js.Summary)
	}
}
