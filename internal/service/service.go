// Package service hosts simulations as managed jobs behind an HTTP/JSON
// API — the serving layer (teemd) over the batch engines below it.
//
// A job is one unit of simulation work: a single scenario (inline JSON,
// preset name, or arrival-trace replay), a scenario × governor grid, or
// a Fig. 5-style experiment. Jobs are submitted to a bounded worker pool
// (internal/par.Pool — a full queue sheds load instead of building an
// unbounded backlog), identified by sequential ids, cancellable at any
// point (a running simulation aborts within one engine tick via the
// context threaded down to sim.Config.Done), and observable three ways:
// status polls, a rendered result that is byte-identical to the
// equivalent teemscenario CLI run, and live NDJSON telemetry streamed
// from the sim trace-subscriber hook as the engine ticks.
//
// Identical requests are collapsed by a request-hash single-flight cache
// (par.Flight): concurrent duplicates share the one running job, and
// repeats of a completed request are answered from the cache without
// re-simulating. Failed or cancelled jobs are forgotten so a retry
// re-executes.
//
// The service is durable and multi-tenant. With Options.JournalPath set,
// every accepted job is recorded in a write-ahead NDJSON journal
// (fsync-batched group commit) before the client is acknowledged, and a
// restarted service re-submits the journal's uncompleted entries under
// their original ids — requests are deterministic, so recovery yields
// byte-identical results, and the single-flight cache absorbs any
// duplicates. Tenants are admission-controlled by token-bucket quotas
// and active-job caps; a full queue admits a higher-priority submission
// by shedding the lowest-priority queued job (cross-tenant) rather than
// rejecting everything. Transient failures — recovered worker panics —
// are retried with exponential backoff and jitter, classified apart
// from deterministic request errors, which fail immediately.
//
// The service exports operational metrics — job, cache, quota, journal
// and per-tenant counters, each declared once in a table, and lifetime
// job-latency p50/p99 estimated from the latency histogram — as JSON or
// Prometheus text at /metrics and as teemd.* expvars. It drains
// gracefully on shutdown: new submissions are rejected, pending retries
// fire at once, running jobs either finish or — past the drain deadline
// — are cancelled.
package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"teem/internal/experiments"
	"teem/internal/obs"
	"teem/internal/par"
)

// Options configure a Service.
type Options struct {
	// Workers bounds the number of concurrently executing jobs
	// (0 = one per CPU). Each job may fan its own grid out further via
	// JobRequest.Workers.
	Workers int
	// QueueDepth bounds the submitted-but-not-started backlog; a full
	// queue sheds the lowest-priority queued job to admit a strictly
	// higher-priority submission, and otherwise rejects with ErrBusy
	// (0 = 64).
	QueueDepth int
	// Env is the shared experiment environment for fig5 jobs (nil
	// builds a default Exynos 5422 environment).
	Env *experiments.Env
	// KeepJobs bounds how many finished jobs are retained for status
	// and result queries before the oldest are evicted (0 = 1024).
	// Each retained job keeps its full telemetry history so late
	// stream subscribers can replay it — size this bound to the
	// telemetry volume you are willing to pin in memory.
	KeepJobs int

	// JournalPath enables the write-ahead job journal at this file
	// ("" = volatile: accepted jobs do not survive a restart). Every
	// submission is durable before it is acknowledged; on startup the
	// journal's uncompleted entries are re-run under their original ids.
	JournalPath string
	// JournalCompactBytes bounds journal growth: past this size the
	// file is rewritten to only the records of live jobs (0 = 1 MiB).
	JournalCompactBytes int64
	// Quotas is the per-tenant admission policy (nil = no quotas).
	Quotas *QuotaConfig
	// Retry governs transient-failure retry; zero fields take defaults
	// (3 attempts, 50 ms base, 2 s cap). MaxAttempts 1 disables retry.
	Retry RetryPolicy
	// Faults injects deterministic failures for soak/chaos testing
	// (nil = none).
	Faults *FaultConfig
	// Logf receives operational log lines (nil = log.Printf).
	Logf func(format string, args ...any)
}

// RetryPolicy governs how transient job failures (recovered worker
// panics, injected faults) are re-executed. Deterministic failures —
// invalid requests, scenario errors — never retry: re-running them
// reproduces the same error.
type RetryPolicy struct {
	// MaxAttempts caps total executions of a transiently failing job
	// (0 = 3; 1 = no retry).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (0 = 50 ms); it
	// doubles per retry up to MaxDelay (0 = 2 s), with ±50% jitter so
	// synchronized failures do not retry in lockstep.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth.
	MaxDelay time.Duration
}

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 3
	}
	if r.BaseDelay <= 0 {
		r.BaseDelay = 50 * time.Millisecond
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = 2 * time.Second
	}
	return r
}

// Service errors surfaced to transports.
var (
	// ErrBusy reports a submission rejected by admission control: the
	// job queue is at capacity and the submission's priority displaces
	// nothing. It is always wrapped in a *RetryError with a backoff
	// hint.
	ErrBusy = errors.New("service: job queue is full")
	// ErrClosed reports a submission after shutdown began.
	ErrClosed = errors.New("service: shutting down")
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("service: no such job")
	// ErrNotDone reports a result query on a job that has not finished.
	ErrNotDone = errors.New("service: job has not finished")
	// ErrAlreadyDone reports a cancellation of a job that already
	// finished (done or failed) — there is nothing left to cancel.
	// Cancelling an already-cancelled job is an idempotent no-op.
	ErrAlreadyDone = errors.New("service: job already finished")
	// ErrTransient classifies a failure as safe to retry: the next
	// execution may succeed (recovered worker panics, injected faults).
	ErrTransient = errors.New("service: transient failure")
)

// Service hosts simulation jobs. Build one with New; it is safe for
// concurrent use by any number of transport goroutines.
type Service struct {
	env     *experiments.Env
	pool    *par.Pool
	metrics *metrics
	journal *journal
	quotas  *quotas
	retry   RetryPolicy
	faults  *faultState
	spans   *eventLog
	logf    func(format string, args ...any)

	mu     sync.Mutex
	closed bool            //teem:guards mu
	nextID int             //teem:guards mu
	jobs   map[string]*Job //teem:guards mu
	// order is the submission order, for listing and eviction.
	order []string //teem:guards mu
	// byKey names the job currently holding each request-cache key, so
	// eviction never forgets a key a newer retained job owns.
	byKey map[string]string //teem:guards mu
	keep  int

	flight par.Flight[string, *Job]
}

// New builds a Service and starts its worker pool. With
// Options.JournalPath set it first recovers the journal: uncompleted
// submissions from the previous epoch are re-registered under their
// original ids and re-run (the journal is compacted to exactly that live
// set), corrupt or torn records are skipped and counted, and completed
// history is dropped — finished results are recomputable on demand and
// do not survive a restart.
func New(o Options) (*Service, error) {
	env := o.Env
	if env == nil {
		var err error
		env, err = experiments.NewEnv()
		if err != nil {
			return nil, err
		}
	}
	queue := o.QueueDepth
	if queue <= 0 {
		queue = 64
	}
	keep := o.KeepJobs
	if keep <= 0 {
		keep = 1024
	}
	logf := o.Logf
	if logf == nil {
		logf = log.Printf
	}
	s := &Service{
		env:     env,
		metrics: newMetrics(),
		quotas:  newQuotas(o.Quotas),
		retry:   o.Retry.withDefaults(),
		faults:  newFaultState(o.Faults),
		spans:   newEventLog(traceKeep),
		logf:    logf,
		jobs:    make(map[string]*Job),
		byKey:   make(map[string]string),
		keep:    keep,
	}

	var scan journalScan
	if o.JournalPath != "" {
		var err error
		scan, err = readJournal(o.JournalPath)
		if err != nil {
			return nil, err
		}
		j, err := openJournal(o.JournalPath, o.JournalCompactBytes, s.faults,
			s.metrics, logf, s.liveRecords)
		if err != nil {
			return nil, err
		}
		// Compact to exactly the uncompleted set: completed history from
		// the previous epoch is dropped, so the journal stays bounded
		// across restarts and can never hold two finishes for one id.
		recs := make([]journalRecord, len(scan.pending))
		for i, r := range scan.pending {
			recs[i] = journalRecord{Op: opSubmit, ID: r.id, Trace: r.trace, Req: r.req}
		}
		j.mu.Lock()
		err = j.rewriteLocked(recs)
		j.mu.Unlock()
		if err != nil {
			j.close()
			return nil, fmt.Errorf("service: compacting journal on recovery: %w", err)
		}
		s.journal = j
		s.nextID = scan.maxID
		s.metrics.recoverySkipped.Add(int64(scan.skipped))
	}

	s.pool = par.NewPool(o.Workers, queue)
	if n := len(scan.pending); n > 0 || scan.skipped > 0 || scan.dupFinishes > 0 {
		logf("journal recovery: %d uncompleted job(s) to re-run, %d corrupt record(s) skipped, %d duplicate finish(es) ignored",
			len(scan.pending), scan.skipped, scan.dupFinishes)
	}
	s.recoverPending(scan.pending)
	return s, nil
}

// recoverPending re-registers the journal's uncompleted submissions
// under their original ids and re-runs them. Quotas are bypassed — this
// work was admitted in the previous epoch — and duplicate request keys
// are absorbed by the single-flight cache exactly like concurrent
// duplicate submissions.
func (s *Service) recoverPending(pending []recoveredJob) {
	for _, r := range pending {
		norm, key, plan, err := s.normalize(r.req)
		if err != nil {
			s.metrics.recoverySkipped.Add(1)
			s.logf("journal recovery: skipping %s: %v", r.id, err)
			continue
		}
		id := r.id
		created := false
		_, err = s.flight.Do(key, func() (*Job, error) {
			nj := s.register(id, r.trace, norm, key, plan)
			s.span(nj, "recover", "re-run from journal after restart", 0)
			if perr := s.submitToPool(nj); perr != nil {
				if errors.Is(perr, par.ErrPoolFull) {
					// A recovery flood deeper than the queue: keep the
					// job queued and feed it in as slots free up.
					s.scheduleResubmit(nj)
				} else {
					s.evict(nj)
					return nil, perr
				}
			}
			created = true
			return nj, nil
		})
		switch {
		case err != nil:
			s.metrics.recoverySkipped.Add(1)
			s.logf("journal recovery: re-submitting %s: %v", id, err)
		case !created:
			s.logf("journal recovery: %s absorbed by an identical in-flight request", id)
		default:
			s.metrics.recoveries.Add(1)
		}
	}
}

// liveRecords snapshots the submit records of every non-terminal job —
// the compacted image the journal rewrites itself to when it outgrows
// its bound.
func (s *Service) liveRecords() []journalRecord {
	var recs []journalRecord
	for _, j := range s.Jobs() {
		if !j.Snapshot().Terminal() {
			recs = append(recs, journalRecord{Op: opSubmit, ID: j.ID, Trace: j.TraceID, Req: j.Req})
		}
	}
	return recs
}

// Submit validates and enqueues a job. Identical requests (same
// normalized request hash, same tenant) are collapsed: a concurrent or
// completed duplicate returns the existing job with cached=true, no new
// simulation work, and no quota cost. New work passes tenant admission
// (token bucket + active-job cap; rejections are 429-style RetryErrors)
// and then the pool queue, which sheds a strictly lower-priority queued
// job to make room before rejecting with ErrBusy. A draining service
// returns ErrClosed.
func (s *Service) Submit(req *JobRequest) (j *Job, cached bool, err error) {
	norm, key, plan, err := s.normalize(req)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	s.mu.Unlock()
	created := false
	j, err = s.flight.Do(key, func() (*Job, error) {
		if aerr := s.admit(norm); aerr != nil {
			return nil, aerr
		}
		nj := s.register("", "", norm, key, plan)
		s.span(nj, "submit", "", 0)
		// The "queue" span precedes the pool handoff: once SubmitTask
		// returns, a worker may already be running the job, so emitting
		// afterwards could place "queue" after "run" in the trace. A
		// pool rejection below leaves a submit+queue pair with no
		// terminal span — the trace of a request that never became a
		// job.
		s.span(nj, "queue", "", 0)
		if perr := s.submitToPool(nj); perr != nil {
			s.evict(nj)
			if errors.Is(perr, par.ErrPoolFull) {
				return nil, &RetryError{After: s.busyRetryAfter(), Err: ErrBusy}
			}
			if errors.Is(perr, par.ErrPoolClosed) {
				return nil, ErrClosed
			}
			return nil, perr
		}
		created = true
		// The durability barrier: the job is on disk before the client
		// hears 202, so an acknowledged job is always recovered. The
		// commit genuinely happens concurrently with the worker, so its
		// span may interleave with (or follow) "run" — see obs.Span.
		if s.journal != nil {
			s.journal.appendSync(journalRecord{Op: opSubmit, ID: nj.ID, Trace: nj.TraceID, Req: nj.Req})
			s.span(nj, "journal-commit", "", 0)
		}
		return nj, nil
	})
	if err != nil {
		return nil, false, err
	}
	if !created {
		s.metrics.cacheHits.Add(1)
	}
	return j, !created, nil
}

// admit applies the tenant's quota to one new-work submission.
func (s *Service) admit(req *JobRequest) error {
	if s.quotas == nil {
		return nil
	}
	ts := s.metrics.tenant(req.Tenant)
	if max := s.quotas.maxActive(req.Tenant); max > 0 && ts.queued.Value() >= int64(max) {
		ts.quotaRejected.Add(1)
		s.metrics.quotaRejected.Add(1)
		return &RetryError{
			After: s.busyRetryAfter(),
			Err:   fmt.Errorf("%w: tenant %q at its cap of %d active jobs", ErrQuotaExceeded, req.Tenant, max),
		}
	}
	if err := s.quotas.take(req.Tenant); err != nil {
		ts.quotaRejected.Add(1)
		s.metrics.quotaRejected.Add(1)
		return err
	}
	return nil
}

// busyRetryAfter suggests a backoff for queue-pressure rejections: a
// typical job latency (the lifetime p50), clamped to [1s, 30s].
func (s *Service) busyRetryAfter() time.Duration {
	d := time.Duration(s.metrics.latencyQuantile(0.50) * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// submitToPool enqueues the job at its request priority, wiring the
// shed hook so a displaced job is finalized and observable immediately.
func (s *Service) submitToPool(j *Job) error {
	return s.pool.SubmitTask(par.Task{Run: j.run, Priority: j.Req.Priority, Shed: j.shed})
}

// retryDelay is the exponential-backoff-with-jitter schedule: attempt 1
// waits ~BaseDelay, doubling up to MaxDelay, each draw jittered to
// 50–150% so synchronized failures spread out.
func (s *Service) retryDelay(attempt int) time.Duration {
	d := s.retry.BaseDelay
	for i := 1; i < attempt && d < s.retry.MaxDelay; i++ {
		d *= 2
	}
	if d > s.retry.MaxDelay {
		d = s.retry.MaxDelay
	}
	jittered := time.Duration((0.5 + rand.Float64()) * float64(d))
	if jittered < time.Millisecond {
		jittered = time.Millisecond
	}
	return jittered
}

// register indexes a job — under the given id when recovering from the
// journal, or the next sequential id — counts it queued, and evicts old
// finished jobs beyond the retention bound. An evicted job's cache key
// is forgotten only while that job still owns it — a newer retained job
// under the same key keeps its cache entry. A fresh submission mints a
// trace id here; recovery passes the previous epoch's id through, so
// one trace spans the journal gap.
func (s *Service) register(id, traceID string, req *JobRequest, key string, plan *jobPlan) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == "" {
		s.nextID++
		id = fmt.Sprintf("j%d", s.nextID)
	}
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	j := newJob(id, traceID, req, key, s)
	j.plan = plan
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.byKey[key] = j.ID
	// The queued gauge rises before the pool can possibly start the
	// job, so the worker's decrement never observes a stale zero.
	s.metrics.queued.Add(1)
	ts := s.metrics.tenant(req.Tenant)
	ts.queued.Add(1)
	ts.submitted.Add(1)
	for len(s.order) > s.keep {
		oldest := s.jobs[s.order[0]]
		if oldest != nil && !oldest.Snapshot().Terminal() {
			break // never evict live work
		}
		if oldest != nil {
			delete(s.jobs, oldest.ID)
			if s.byKey[oldest.key] == oldest.ID {
				s.flight.Forget(oldest.key)
				delete(s.byKey, oldest.key)
			}
		}
		s.order = s.order[1:]
	}
	return j
}

// evict removes a job that never made it into the pool.
func (s *Service) evict(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, j.ID)
	if s.byKey[j.key] == j.ID {
		delete(s.byKey, j.key)
	}
	if n := len(s.order); n > 0 && s.order[n-1] == j.ID {
		s.order = s.order[:n-1]
	}
	s.metrics.queued.Add(-1)
	s.metrics.tenant(j.Req.Tenant).queued.Add(-1)
}

// Job returns a job by id.
func (s *Service) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j, nil
}

// Jobs lists every retained job in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel requests cancellation of a job: a queued job never starts, a
// running one aborts within one simulation tick. Cancel is idempotent —
// repeating it on an already-cancelled job is a nil-error no-op — while
// cancelling a job that ran to completion (done or failed) reports
// ErrAlreadyDone: there is no work left to stop.
func (s *Service) Cancel(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	return j.RequestCancel()
}

// Metrics exposes the service's operational counters.
func (s *Service) Metrics() *Metrics { return &Metrics{m: s.metrics} }

// Drain shuts the service down gracefully: new submissions are rejected
// immediately, jobs waiting out a retry backoff are resubmitted at once,
// queued and running jobs are given until ctx expires to finish, then
// everything still in flight is cancelled. The journal is flushed and
// closed either way. It returns nil when the pool drained in time and
// ctx.Err() otherwise.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	// Retries scheduled before the flag flipped fire now, while the pool
	// still accepts work; scheduleRetry refuses new backoffs once closed.
	for _, j := range s.Jobs() {
		j.fireRetryNow()
	}
	done := make(chan struct{})
	go func() {
		s.pool.Drain()
		close(done)
	}()
	defer s.journal.close()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelAll()
		// Also cancel the pool context: a job that registered
		// concurrently with the shutdown and slipped past the
		// cancelAll snapshot still sees a dead context the moment it
		// starts, instead of simulating to completion.
		s.pool.Close()
		<-done
		return ctx.Err()
	}
}

// Close shuts down immediately: submissions rejected, in-flight jobs
// cancelled (both individually and through the pool context, so even a
// submission racing the shutdown cannot run to completion), workers
// joined, journal flushed and closed.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancelAll()
	s.pool.Close()
	s.journal.close()
}

func (s *Service) cancelAll() {
	for _, j := range s.Jobs() {
		_ = j.RequestCancel() // completed jobs report an error; ignore
	}
}

// now is stubbed in tests that pin latencies.
var now = time.Now
