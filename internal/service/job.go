package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"teem/internal/par"
	"teem/internal/scenario"
	"teem/internal/sim"
	"teem/internal/trace"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states.
const (
	// StatusQueued: accepted, waiting for a pool worker (also the state
	// of a job waiting out a transient-failure retry backoff).
	StatusQueued Status = "queued"
	// StatusRunning: a worker is simulating.
	StatusRunning Status = "running"
	// StatusDone: finished successfully; the result is available.
	StatusDone Status = "done"
	// StatusFailed: the run errored; Error carries the cause.
	StatusFailed Status = "failed"
	// StatusCancelled: cancelled before or during execution.
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the state is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Job is one managed simulation. All exported state is read through
// Snapshot / Result; mutation happens on the owning service's pool
// worker and through RequestCancel.
type Job struct {
	// ID is the service-assigned handle ("j1", "j2", ...).
	ID string
	// TraceID correlates the job's lifecycle spans across the submit
	// response, telemetry stream, journal and /trace — stable across a
	// daemon restart (recovery re-registers under the journalled id).
	TraceID string
	// Req is the normalized request the job runs.
	Req *JobRequest

	key    string
	svc    *Service
	stream *eventLog
	// plan is the resolved work (scenarios × governors), parsed once at
	// submission.
	plan *jobPlan

	mu              sync.Mutex
	status          Status             //teem:guards mu
	err             string             //teem:guards mu
	text            string             //teem:guards mu
	summary         *ResultSummary     //teem:guards mu
	cancel          context.CancelFunc //teem:guards mu
	cancelRequested bool               //teem:guards mu
	// retries counts transient-failure re-executions so far; retryTimer
	// is armed while the job waits out a backoff.
	retries    int         //teem:guards mu
	retryTimer *time.Timer //teem:guards mu
	// submittedAt is written once in newJob, before the job is shared.
	submittedAt time.Time
	startedAt   time.Time //teem:guards mu
	finishedAt  time.Time //teem:guards mu
}

func newJob(id, traceID string, req *JobRequest, key string, svc *Service) *Job {
	return &Job{
		ID:          id,
		TraceID:     traceID,
		Req:         req,
		key:         key,
		svc:         svc,
		stream:      newEventLog(0),
		status:      StatusQueued,
		submittedAt: now(),
	}
}

// JobStatus is the wire snapshot of a job.
type JobStatus struct {
	ID string `json:"id"`
	// TraceID is the job's lifecycle-trace correlation id (see /trace).
	TraceID string `json:"trace_id,omitempty"`
	Kind    string `json:"kind"`
	Status  Status `json:"status"`
	// Tenant and Priority echo the admission parameters the job was
	// accepted under.
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// Cached marks a submission answered by the request-hash cache
	// (set by the transport on duplicate submissions, not stored).
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Retries counts transient-failure re-executions so far.
	Retries int `json:"retries,omitempty"`
	// Summary is present once the job is done.
	Summary     *ResultSummary `json:"summary,omitempty"`
	SubmittedAt time.Time      `json:"submitted_at"`
	StartedAt   *time.Time     `json:"started_at,omitempty"`
	FinishedAt  *time.Time     `json:"finished_at,omitempty"`
	// LatencyS is submit→finish for terminal jobs.
	LatencyS float64 `json:"latency_s,omitempty"`
}

// Terminal reports whether the snapshot is final.
func (js JobStatus) Terminal() bool { return js.Status.Terminal() }

// Snapshot returns the job's current wire state.
func (j *Job) Snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	js := JobStatus{
		ID:          j.ID,
		TraceID:     j.TraceID,
		Kind:        j.Req.Kind,
		Status:      j.status,
		Tenant:      j.Req.Tenant,
		Priority:    j.Req.Priority,
		Error:       j.err,
		Retries:     j.retries,
		Summary:     j.summary,
		SubmittedAt: j.submittedAt,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		js.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		js.FinishedAt = &t
		js.LatencyS = j.finishedAt.Sub(j.submittedAt).Seconds()
	}
	return js
}

// Result returns the rendered result text of a done job (byte-identical
// to the equivalent CLI run) and its summary; ErrNotDone until then.
func (j *Job) Result() (string, *ResultSummary, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case StatusDone:
		return j.text, j.summary, nil
	case StatusFailed:
		return "", nil, fmt.Errorf("service: job %s failed: %s", j.ID, j.err)
	case StatusCancelled:
		return "", nil, fmt.Errorf("service: job %s was cancelled", j.ID)
	default:
		return "", nil, fmt.Errorf("%w (job %s is %s)", ErrNotDone, j.ID, j.status)
	}
}

// RequestCancel cancels the job: a queued job turns cancelled on the
// spot (it never starts, and the status is observable immediately — not
// only once a worker would have picked it up; a pending retry backoff is
// disarmed), a running job aborts within one simulation tick. Cancel is
// idempotent: repeating it on an already-cancelled job is a nil no-op.
// A job that ran to completion (done or failed) reports ErrAlreadyDone.
func (j *Job) RequestCancel() error {
	j.mu.Lock()
	if j.status == StatusCancelled {
		j.mu.Unlock()
		return nil
	}
	if j.status.Terminal() {
		st := j.status
		j.mu.Unlock()
		return fmt.Errorf("%w: job %s is %s", ErrAlreadyDone, j.ID, st)
	}
	j.cancelRequested = true
	j.mu.Unlock()
	if j.finishQueued(StatusCancelled, "cancelled while queued",
		func(m *metrics, _ *tenantStats) { m.cancelled.Add(1) }) {
		return nil
	}
	// The job is (or just became) running: kill its context. run() sets
	// status and cancel in one critical section, so seeing it past
	// queued means cancel is populated.
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return nil
}

// finishQueued finalizes a job that is not on a worker — waiting in the
// pool queue or waiting out a retry backoff — and settles its
// accounting: gauges, the caller's terminal counter, the request cache,
// the journal's finish record, and the telemetry stream. It reports
// false (and does nothing) once the job has left the queued state, so a
// concurrent start, cancel and shed race resolves to exactly one
// outcome.
func (j *Job) finishQueued(st Status, msg string, count func(*metrics, *tenantStats)) bool {
	s := j.svc
	j.mu.Lock()
	if j.status != StatusQueued {
		j.mu.Unlock()
		return false
	}
	if t := j.retryTimer; t != nil {
		t.Stop()
		j.retryTimer = nil
	}
	j.status = st
	j.err = msg
	j.finishedAt = now()
	j.mu.Unlock()
	s.metrics.queued.Add(-1)
	ts := s.metrics.tenant(j.Req.Tenant)
	ts.queued.Add(-1)
	count(s.metrics, ts)
	s.flight.Forget(j.key)
	s.journal.append(journalRecord{Op: opFinish, ID: j.ID, Status: st, Error: msg})
	s.span(j, string(st), msg, 0)
	j.publishDone(st)
	j.stream.close()
	return true
}

// shed is the pool's displacement hook: a strictly higher-priority
// submission arrived at a full queue and this job was the lowest-
// priority queued work. It fails immediately and observably — clients
// see a terminal status with a "shed:" cause and may resubmit — and is
// counted apart from execution failures.
func (j *Job) shed() {
	s := j.svc
	if j.finishQueued(StatusFailed, "shed: displaced from a full queue by a higher-priority submission",
		func(m *metrics, t *tenantStats) { m.shed.Add(1); t.shed.Add(1) }) {
		s.logf("job %s (tenant %s, priority %d): shed by a higher-priority submission",
			j.ID, j.Req.Tenant, j.Req.Priority)
	}
}

// run executes the job on a pool worker. poolCtx is the pool's lifetime
// context (cancelled by Service.Close); the job's own cancellation is
// layered on top. A transient failure re-queues the job with backoff
// instead of finishing it.
func (j *Job) run(poolCtx context.Context) {
	s := j.svc

	j.mu.Lock()
	if j.status.Terminal() {
		// Cancelled or shed while queued: already finalized; the
		// dequeued task is a no-op.
		j.mu.Unlock()
		return
	}
	requested := j.cancelRequested
	j.mu.Unlock()
	if requested || poolCtx.Err() != nil {
		// The pool is shutting down, or a cancel landed in the instant
		// between request and finalization: never start.
		j.finishQueued(StatusCancelled, "cancelled before start",
			func(m *metrics, _ *tenantStats) { m.cancelled.Add(1) })
		return
	}

	ctx, cancel := context.WithCancel(poolCtx)
	defer cancel()
	j.mu.Lock()
	if j.status != StatusQueued { // finalized in the window above
		j.mu.Unlock()
		return
	}
	first := j.retries == 0
	attempt := j.retries
	j.status = StatusRunning
	j.cancel = cancel
	if first {
		j.startedAt = now()
	}
	j.mu.Unlock()
	s.metrics.queued.Add(-1)
	s.metrics.running.Add(1)
	s.span(j, "run", "", attempt)
	if first {
		s.journal.append(journalRecord{Op: opStart, ID: j.ID})
		j.publishStart()
	}

	text, summary, err := s.executeGuarded(ctx, j)

	// Transient failures retry with backoff — unless the job was
	// cancelled (the context died) or the failure is deterministic, in
	// which case re-running would only reproduce it.
	if err != nil && ctx.Err() == nil && errors.Is(err, ErrTransient) && s.scheduleRetry(j, err) {
		return
	}

	j.mu.Lock()
	switch {
	case err == nil:
		j.status = StatusDone
		j.text = text
		j.summary = summary
	case ctx.Err() != nil || errors.Is(err, sim.ErrAborted):
		j.status = StatusCancelled
		j.err = err.Error()
	default:
		j.status = StatusFailed
		j.err = err.Error()
	}
	j.finishedAt = now()
	status := j.status
	errMsg := j.err
	latency := j.finishedAt.Sub(j.submittedAt)
	runtime := j.finishedAt.Sub(j.startedAt)
	j.mu.Unlock()

	s.metrics.running.Add(-1)
	s.metrics.observeLatency(latency)
	s.metrics.observeRun(runtime)
	ts := s.metrics.tenant(j.Req.Tenant)
	ts.queued.Add(-1)
	switch status {
	case StatusDone:
		s.metrics.done.Add(1)
		ts.done.Add(1)
	case StatusCancelled:
		s.metrics.cancelled.Add(1)
		s.flight.Forget(j.key)
	default:
		s.metrics.failed.Add(1)
		s.flight.Forget(j.key)
	}
	s.journal.append(journalRecord{Op: opFinish, ID: j.ID, Status: status, Error: errMsg})
	s.span(j, string(status), errMsg, 0)
	j.publishDone(status)
	j.stream.close()
}

// executeGuarded runs execute with the worker panic guard: a panicking
// job (a simulation bug, or an injected fault) fails transiently instead
// of killing the pool worker and the daemon with it. The stack goes to
// the log; the job error stays one line.
func (s *Service) executeGuarded(ctx context.Context, j *Job) (text string, summary *ResultSummary, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.logf("job %s: recovered worker panic: %v\n%s", j.ID, r, debug.Stack())
			text, summary = "", nil
			err = fmt.Errorf("%w: worker panic: %v", ErrTransient, r)
		}
	}()
	if s.faults.firePanic() {
		panic("injected worker panic (FaultConfig.PanicEvery)")
	}
	return s.execute(ctx, j)
}

// scheduleRetry re-queues a transiently failed job with exponential
// backoff and jitter. It refuses — returning false, leaving the job for
// normal finalization — when the service is draining, the job was
// cancelled, or the attempt budget is spent.
func (s *Service) scheduleRetry(j *Job, cause error) bool {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return false
	}
	j.mu.Lock()
	if j.cancelRequested || j.status.Terminal() || j.retries+1 >= s.retry.MaxAttempts {
		j.mu.Unlock()
		return false
	}
	j.retries++
	attempt := j.retries
	j.status = StatusQueued
	j.cancel = nil
	// Gauges flip inside the critical section so a concurrent cancel of
	// the now-queued job settles against consistent counts.
	s.metrics.running.Add(-1)
	s.metrics.queued.Add(1)
	delay := s.retryDelay(attempt)
	j.retryTimer = time.AfterFunc(delay, func() { s.resubmit(j) })
	j.mu.Unlock()

	s.metrics.retried.Add(1)
	s.journal.append(journalRecord{Op: opRetry, ID: j.ID, Attempt: attempt, Error: cause.Error()})
	s.span(j, "retry", cause.Error(), attempt)
	j.stream.publish(retryEvent{Type: "retry", Job: j.ID, Trace: j.TraceID, Attempt: attempt, DelayS: delay.Seconds(), Error: cause.Error()})
	s.logf("job %s: transient failure (attempt %d/%d), retrying in %s: %v",
		j.ID, attempt, s.retry.MaxAttempts, delay.Round(time.Millisecond), cause)
	return true
}

// scheduleResubmit arms a short backoff before feeding a queued job back
// into the pool — used when the pool queue is momentarily full (a
// recovery flood deeper than the queue).
func (s *Service) scheduleResubmit(j *Job) {
	j.mu.Lock()
	if j.status == StatusQueued && !j.cancelRequested {
		j.retryTimer = time.AfterFunc(s.retryDelay(1), func() { s.resubmit(j) })
	}
	j.mu.Unlock()
}

// resubmit puts a backoff-expired job back on the pool. A still-full
// queue backs off again; a closed pool fails the job — the drain
// deadline passed while it waited.
func (s *Service) resubmit(j *Job) {
	j.mu.Lock()
	j.retryTimer = nil
	if j.status != StatusQueued {
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()
	err := s.submitToPool(j)
	switch {
	case err == nil:
	case errors.Is(err, par.ErrPoolFull):
		s.scheduleResubmit(j)
	default:
		j.finishQueued(StatusFailed, "service shut down before the retry could run: "+err.Error(),
			func(m *metrics, _ *tenantStats) { m.failed.Add(1) })
	}
}

// fireRetryNow collapses a pending retry backoff to zero — the draining
// service wants every queued job in the pool before it waits.
func (j *Job) fireRetryNow() {
	j.mu.Lock()
	t := j.retryTimer
	if t == nil || !t.Stop() {
		// No backoff pending, or the timer already fired and resubmit
		// owns the job now.
		j.mu.Unlock()
		return
	}
	j.retryTimer = nil
	j.mu.Unlock()
	j.svc.resubmit(j)
}

// --- telemetry stream ---------------------------------------------------------

// The stream's wire format is one typed NDJSON object per line. Each
// event type has its own encode struct so legitimately zero values
// (t=0, 0 W, a 0 s execution time) are never dropped from the wire;
// streamEvent below is the decode-side union.

// lifecycleEvent announces "start" and "done". Trace carries the job's
// lifecycle-trace id so stream consumers can join telemetry against the
// /trace spans and the journal.
type lifecycleEvent struct {
	Type   string `json:"type"`
	Job    string `json:"job"`
	Trace  string `json:"trace,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Status Status `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// retryEvent announces a transient failure and the backoff before the
// next attempt.
type retryEvent struct {
	Type    string  `json:"type"`
	Job     string  `json:"job"`
	Trace   string  `json:"trace,omitempty"`
	Attempt int     `json:"attempt"`
	DelayS  float64 `json:"delay_s"`
	Error   string  `json:"error,omitempty"`
}

// sampleEvent is one recorded trace sample (single-cell scenario jobs).
type sampleEvent struct {
	Type     string    `json:"type"`
	TimeS    float64   `json:"t_s"`
	TempsC   []float64 `json:"temps_c"`
	FreqsMHz []int     `json:"freqs_mhz"`
	Utils    []float64 `json:"utils"`
	PowerW   float64   `json:"power_w"`
}

// cellEvent is one completed grid cell (grid progress).
type cellEvent struct {
	Type       string   `json:"type"`
	Scenario   string   `json:"scenario"`
	Governor   string   `json:"governor"`
	Passed     bool     `json:"passed"`
	Violations []string `json:"violations,omitempty"`
	ExecTimeS  float64  `json:"exec_time_s"`
	EnergyJ    float64  `json:"energy_j"`
	PeakTempC  float64  `json:"peak_temp_c"`
}

// streamEvent is the decode-side union of every stream line — what
// clients (and the tests) unmarshal into.
type streamEvent struct {
	// Type is "start", "sample", "cell", "retry" or "done".
	Type  string `json:"type"`
	Job   string `json:"job,omitempty"`
	Trace string `json:"trace,omitempty"`
	Kind  string `json:"kind,omitempty"`

	TimeS    float64   `json:"t_s,omitempty"`
	TempsC   []float64 `json:"temps_c,omitempty"`
	FreqsMHz []int     `json:"freqs_mhz,omitempty"`
	Utils    []float64 `json:"utils,omitempty"`
	PowerW   float64   `json:"power_w,omitempty"`

	Scenario   string   `json:"scenario,omitempty"`
	Governor   string   `json:"governor,omitempty"`
	Passed     *bool    `json:"passed,omitempty"`
	Violations []string `json:"violations,omitempty"`
	ExecTimeS  float64  `json:"exec_time_s,omitempty"`
	EnergyJ    float64  `json:"energy_j,omitempty"`
	PeakTempC  float64  `json:"peak_temp_c,omitempty"`

	Attempt int     `json:"attempt,omitempty"`
	DelayS  float64 `json:"delay_s,omitempty"`

	Status Status `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

func (j *Job) publishStart() {
	j.stream.publish(lifecycleEvent{Type: "start", Job: j.ID, Trace: j.TraceID, Kind: j.Req.Kind})
}

// publishSample is the sim trace-subscriber hook: it serializes one
// recorded sample as it is produced — no whole-run copy, the engine's
// arena-backed slices are marshalled directly.
func (j *Job) publishSample(s trace.Sample) {
	j.stream.publish(sampleEvent{
		Type:     "sample",
		TimeS:    s.TimeS,
		TempsC:   s.TempsC,
		FreqsMHz: s.FreqsMHz,
		Utils:    s.Utils,
		PowerW:   s.PowerW,
	})
}

// publishCell reports one completed grid cell (called from grid worker
// goroutines; the event log serializes).
func (j *Job) publishCell(r *scenario.Result) {
	ev := cellEvent{
		Type:       "cell",
		Scenario:   r.Scenario,
		Governor:   r.Governor,
		Passed:     r.Passed(),
		Violations: r.Violations,
	}
	if r.Sim != nil {
		ev.ExecTimeS = r.Sim.ExecTimeS
		ev.EnergyJ = r.Sim.EnergyJ
		ev.PeakTempC = r.Sim.PeakTempC
	}
	j.stream.publish(ev)
}

func (j *Job) publishDone(st Status) {
	j.mu.Lock()
	errMsg := j.err
	j.mu.Unlock()
	j.stream.publish(lifecycleEvent{Type: "done", Job: j.ID, Trace: j.TraceID, Status: st, Error: errMsg})
}

// Stream replays the job's telemetry from the beginning and follows it
// live, invoking emit for every NDJSON-encoded line (newline included)
// until the stream closes, emit fails, or ctx is cancelled. Multiple
// concurrent streamers are independent; late subscribers see the full
// history.
func (j *Job) Stream(ctx context.Context, emit func(line []byte) error) error {
	return j.stream.follow(ctx, true, emit)
}
