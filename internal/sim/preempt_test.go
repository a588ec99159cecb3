package sim

import (
	"errors"
	"math"
	"testing"

	"teem/internal/mapping"
	"teem/internal/workload"
)

// flatConfig is baseConfig with DVFS and hardware protection disabled:
// work-item rates stay constant, so execution times compose additively
// and the preemption conservation checks below are exact up to tick
// rounding at job handoffs.
func flatConfig() Config {
	cfg := baseConfig()
	cfg.DisableHWProtect = true
	return cfg
}

// soloExecTime runs one app to completion on the flat configuration.
func soloExecTime(t *testing.T, app *workload.App) float64 {
	t.Helper()
	cfg := flatConfig()
	cfg.App = app
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("solo %s run did not complete", app.Name)
	}
	return res.ExecTimeS
}

// A higher-priority arrival suspends the live job mid-run and the
// preempted job later resumes with exactly its remaining work: the
// preemptor finishes first, and both completion times equal the solo
// execution times composed additively (work conservation) up to tick
// rounding at the handoffs.
func TestPriorityPreemptsAndConservesWork(t *testing.T) {
	covSolo := soloExecTime(t, workload.Covariance())
	syrkSolo := soloExecTime(t, workload.Syrk())
	if covSolo < 6 {
		t.Fatalf("COVARIANCE solo run too short (%.2f s) for a t=5 preemption", covSolo)
	}

	e, err := New(flatConfig())
	if err != nil {
		t.Fatal(err)
	}
	var preemptID int
	if err := e.ScheduleAt(5, func(e *Engine) error {
		id, err := e.EnqueueAppPriority(workload.Syrk(), mapping.Partition{Num: 4, Den: 8}, 1)
		preemptID = id
		return err
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("preemption run did not complete")
	}
	if len(res.JobFinishes) != 2 {
		t.Fatalf("JobFinishes = %d entries, want 2", len(res.JobFinishes))
	}
	// The preemptor runs to completion first; the preempted job resumes
	// and finishes afterwards.
	if res.JobFinishes[0].App != "SYRK" || res.JobFinishes[1].App != "COVARIANCE" {
		t.Fatalf("finish order %s, %s — want SYRK (preemptor) then COVARIANCE",
			res.JobFinishes[0].App, res.JobFinishes[1].App)
	}
	if res.JobFinishes[0].ID != preemptID {
		t.Errorf("preemptor finished with id %d, want the enqueue handle %d",
			res.JobFinishes[0].ID, preemptID)
	}
	const tol = 0.05 // a few ticks of handoff rounding
	if got, want := res.JobFinishes[0].AtS, 5+syrkSolo; math.Abs(got-want) > tol {
		t.Errorf("SYRK finished at %.3f s, want arrival+solo = %.3f s (work not conserved)", got, want)
	}
	if got, want := res.JobFinishes[1].AtS, covSolo+syrkSolo; math.Abs(got-want) > tol {
		t.Errorf("COVARIANCE finished at %.3f s, want solo+solo = %.3f s — the resumed job did not keep its remaining work intact", got, want)
	}
	if len(res.JobCancels) != 0 {
		t.Errorf("preemption recorded %d cancellations, want 0", len(res.JobCancels))
	}
}

// An equal-priority arrival must NOT preempt: it queues FIFO behind the
// live job exactly like the classic queue.
func TestEqualPriorityQueuesFIFO(t *testing.T) {
	e, err := New(flatConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleAt(5, func(e *Engine) error {
		_, err := e.EnqueueAppPriority(workload.Syrk(), mapping.Partition{Num: 4, Den: 8}, 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JobFinishes) != 2 ||
		res.JobFinishes[0].App != "COVARIANCE" || res.JobFinishes[1].App != "SYRK" {
		t.Errorf("equal-priority arrival changed the FIFO order: %+v", res.JobFinishes)
	}
}

// A preempted job resumes ahead of later arrivals of its own priority
// class (it keeps its original queue position), and higher-priority
// pending jobs run before lower ones.
func TestResumeOrderWithinPriorityClass(t *testing.T) {
	e, err := New(flatConfig())
	if err != nil {
		t.Fatal(err)
	}
	// t=5: high-priority preemptor; t=6: another default-priority job.
	if err := e.ScheduleAt(5, func(e *Engine) error {
		_, err := e.EnqueueAppPriority(workload.Syrk(), mapping.Partition{Num: 4, Den: 8}, 2)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleAt(6, func(e *Engine) error {
		_, err := e.EnqueueAppPriority(workload.Gemm(), mapping.Partition{Num: 4, Den: 8}, 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SYRK", "COVARIANCE", "GEMM"}
	if len(res.JobFinishes) != 3 {
		t.Fatalf("JobFinishes = %d entries, want 3", len(res.JobFinishes))
	}
	for i, w := range want {
		if res.JobFinishes[i].App != w {
			t.Errorf("finish %d = %s, want %s (resume order broken)", i, res.JobFinishes[i].App, w)
		}
	}
}

// Cancelling a queued job removes it before it ever runs: zero work done,
// no finish entry, queue count updated.
func TestCancelQueuedJob(t *testing.T) {
	e, err := New(flatConfig())
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.EnqueueAppPriority(workload.Syrk(), mapping.Partition{Num: 4, Den: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.QueuedJobs() != 1 {
		t.Fatalf("QueuedJobs = %d, want 1", e.QueuedJobs())
	}
	if err := e.CancelJob(id); err != nil {
		t.Fatal(err)
	}
	if e.QueuedJobs() != 0 {
		t.Fatalf("QueuedJobs after cancel = %d, want 0", e.QueuedJobs())
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JobFinishes) != 1 || res.JobFinishes[0].App != "COVARIANCE" {
		t.Errorf("JobFinishes = %+v, want only COVARIANCE", res.JobFinishes)
	}
	if len(res.JobCancels) != 1 || res.JobCancels[0].App != "SYRK" || res.JobCancels[0].DoneFrac != 0 {
		t.Errorf("JobCancels = %+v, want SYRK with DoneFrac 0", res.JobCancels)
	}
}

// Cancelling the live job mid-run stops it on the spot — charging only
// the work done — and immediately starts the next pending job.
func TestCancelLiveJobStartsSuccessor(t *testing.T) {
	syrkSolo := soloExecTime(t, workload.Syrk())

	e, err := New(flatConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnqueueAppPriority(workload.Syrk(), mapping.Partition{Num: 4, Den: 8}, 0); err != nil {
		t.Fatal(err)
	}
	// Job 1 is the configured COVARIANCE; cancel it at t=5.
	if err := e.ScheduleAt(5, func(e *Engine) error { return e.CancelJob(1) }); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete after a live-job cancellation")
	}
	if len(res.JobFinishes) != 1 || res.JobFinishes[0].App != "SYRK" {
		t.Fatalf("JobFinishes = %+v, want only SYRK", res.JobFinishes)
	}
	if len(res.JobCancels) != 1 {
		t.Fatalf("JobCancels = %+v, want one COVARIANCE entry", res.JobCancels)
	}
	c := res.JobCancels[0]
	if c.App != "COVARIANCE" || c.AtS != 5 {
		t.Errorf("cancel entry %+v, want COVARIANCE at t=5", c)
	}
	if c.DoneFrac <= 0 || c.DoneFrac >= 1 {
		t.Errorf("DoneFrac = %g after 5 s of a longer run, want a partial fraction", c.DoneFrac)
	}
	// The successor starts on the cancellation tick: it finishes at
	// cancel time + its solo duration, and the whole run is charged only
	// the cancelled job's 5 s of work.
	const tol = 0.05
	if got, want := res.JobFinishes[0].AtS, 5+syrkSolo; math.Abs(got-want) > tol {
		t.Errorf("successor finished at %.3f s, want %.3f s (cancel should only charge work done)", got, want)
	}
}

// CancelJob distinguishes ids that never existed (error) from jobs that
// already finished (ErrJobNotActive — a tolerated no-op departure).
func TestCancelJobErrors(t *testing.T) {
	e, err := New(flatConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CancelJob(99); err == nil || errors.Is(err, ErrJobNotActive) {
		t.Errorf("cancelling a never-issued id: got %v, want a hard error", err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.CancelJob(1); !errors.Is(err, ErrJobNotActive) {
		t.Errorf("cancelling a finished job: got %v, want ErrJobNotActive", err)
	}
}

// --- regression: drained-idle runs must report the simulated horizon ---------

// A fully idle run under MinTimeS completes without any job finish; its
// execution time is the horizon it simulated, not the zero value of the
// last-finish bookkeeping.
func TestExecTimeIdleHorizon(t *testing.T) {
	cfg := flatConfig()
	cfg.App = nil
	cfg.MinTimeS = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("idle run did not complete")
	}
	if math.Abs(res.ExecTimeS-cfg.MinTimeS) > 0.02 {
		t.Errorf("idle run ExecTimeS = %g, want the %g s horizon", res.ExecTimeS, cfg.MinTimeS)
	}
}

// A run whose only job departs mid-execution reports the cancellation
// time — work ran (and was charged) until then — not zero and not the
// horizon.
func TestExecTimeAllJobsCancelled(t *testing.T) {
	cfg := flatConfig()
	cfg.App = nil
	cfg.MinTimeS = 3
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var id int
	if err := e.ScheduleAt(0.5, func(e *Engine) error {
		var err error
		id, err = e.EnqueueAppPriority(workload.Covariance(), mapping.Partition{Num: 4, Den: 8}, 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleAt(1.5, func(e *Engine) error { return e.CancelJob(id) }); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete after its only job departed")
	}
	if len(res.JobFinishes) != 0 || len(res.JobCancels) != 1 {
		t.Fatalf("finishes=%v cancels=%v, want 0 finishes and 1 cancel", res.JobFinishes, res.JobCancels)
	}
	if math.Abs(res.ExecTimeS-1.5) > 0.02 {
		t.Errorf("cancelled-job run ExecTimeS = %g, want the 1.5 s cancellation time", res.ExecTimeS)
	}
	// A queue-only run whose job DOES finish keeps reporting the finish
	// time, not the horizon (pinned so the idle fix cannot regress it).
	e2cfg := flatConfig()
	e2cfg.App = nil
	e2cfg.MinTimeS = 120
	e2, err := New(e2cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.ScheduleAt(1, func(e *Engine) error {
		_, err := e.EnqueueAppPriority(workload.Covariance(), mapping.Partition{Num: 4, Den: 8}, 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.JobFinishes) != 1 {
		t.Fatalf("queue-only run finishes = %v, want 1", res2.JobFinishes)
	}
	if res2.ExecTimeS != res2.JobFinishes[0].AtS {
		t.Errorf("queue-only run ExecTimeS = %g, want the job finish %g", res2.ExecTimeS, res2.JobFinishes[0].AtS)
	}
	if res2.ExecTimeS >= e2cfg.MinTimeS {
		t.Errorf("queue-only run ExecTimeS = %g leaked the %g s horizon", res2.ExecTimeS, e2cfg.MinTimeS)
	}
}

// A cancellation after the last job finish extends ExecTimeS: the engine
// executed (and charged energy for) the cancelled job's work past the
// final completion, so the earlier finish time would under-report the
// run.
func TestExecTimeCoversCancelAfterLastFinish(t *testing.T) {
	cfg := flatConfig()
	cfg.App = workload.Mvt() // finishes first
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var finishAt float64
	var id int
	// A second job arrives well after MVT drains and is cancelled
	// mid-execution at t=40.
	if err := e.ScheduleAt(30, func(e *Engine) error {
		var err error
		id, err = e.EnqueueAppPriority(workload.Covariance(), mapping.Partition{Num: 4, Den: 8}, 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleAt(40, func(e *Engine) error { return e.CancelJob(id) }); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JobFinishes) != 1 || len(res.JobCancels) != 1 {
		t.Fatalf("finishes=%v cancels=%v, want 1 finish + 1 cancel", res.JobFinishes, res.JobCancels)
	}
	finishAt = res.JobFinishes[0].AtS
	if finishAt >= 30 {
		t.Fatalf("MVT finished at %g, expected before the t=30 arrival", finishAt)
	}
	if math.Abs(res.ExecTimeS-40) > 0.02 {
		t.Errorf("ExecTimeS = %g, want the 40 s cancellation time (work ran until then), not the %g s finish",
			res.ExecTimeS, finishAt)
	}
}

// --- regression: popped queue slots must not pin finished apps ---------------

// popNext clears the vacated slot and a drained queue resets its backing
// array: finished *workload.App references must not stay reachable
// through the queue for the rest of the run.
func TestQueuePopClearsSlots(t *testing.T) {
	e, err := New(flatConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []*workload.App{workload.Syrk(), workload.Gemm(), workload.Mvt()} {
		if _, err := e.EnqueueAppPriority(app, mapping.Partition{Num: 4, Den: 8}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if e.QueuedJobs() != 3 {
		t.Fatalf("QueuedJobs = %d, want 3", e.QueuedJobs())
	}
	j := e.popNext()
	if j.app == nil || j.app.Name != "SYRK" {
		t.Fatalf("popNext returned %+v, want SYRK", j)
	}
	if e.QueuedJobs() != 2 {
		t.Fatalf("QueuedJobs after pop = %d, want 2", e.QueuedJobs())
	}
	if got := e.queue[e.qHead-1]; got.app != nil {
		t.Errorf("popped slot still references app %q — the backing array pins finished jobs", got.app.Name)
	}
	e.popNext()
	e.popNext()
	if e.QueuedJobs() != 0 {
		t.Fatalf("QueuedJobs after draining = %d, want 0", e.QueuedJobs())
	}
	if len(e.queue) != 0 || e.qHead != 0 {
		t.Errorf("drained queue not reset: len=%d head=%d, want 0/0", len(e.queue), e.qHead)
	}
	for i := 0; i < cap(e.queue) && i < 8; i++ {
		if e.queue[:cap(e.queue)][i].app != nil {
			t.Errorf("backing slot %d still references app %q after drain", i, e.queue[:cap(e.queue)][i].app.Name)
		}
	}
}

// QueuedJobs stays consistent across interleaved enqueue, preemptive
// suspension, cancellation and drain.
func TestQueuedJobsAcrossDrainAndCancel(t *testing.T) {
	e, err := New(flatConfig())
	if err != nil {
		t.Fatal(err)
	}
	idLow, err := e.EnqueueAppPriority(workload.Gemm(), mapping.Partition{Num: 4, Den: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnqueueAppPriority(workload.Syrk(), mapping.Partition{Num: 4, Den: 8}, 3); err != nil {
		t.Fatal(err)
	}
	// SYRK preempted the configured COVARIANCE: the queue now holds the
	// suspended COVARIANCE and the fresh GEMM.
	if e.QueuedJobs() != 2 {
		t.Fatalf("QueuedJobs = %d after a preemption, want 2 (suspended + queued)", e.QueuedJobs())
	}
	if e.app.Name != "SYRK" {
		t.Fatalf("live job %s, want the SYRK preemptor", e.app.Name)
	}
	if err := e.CancelJob(idLow); err != nil {
		t.Fatal(err)
	}
	if e.QueuedJobs() != 1 {
		t.Fatalf("QueuedJobs = %d after cancelling GEMM, want 1", e.QueuedJobs())
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || len(res.JobFinishes) != 2 {
		t.Fatalf("completed=%v finishes=%v, want SYRK then resumed COVARIANCE", res.Completed, res.JobFinishes)
	}
	if res.JobFinishes[0].App != "SYRK" || res.JobFinishes[1].App != "COVARIANCE" {
		t.Errorf("finish order %+v", res.JobFinishes)
	}
}

// A suspended job's remaining work is parked verbatim and survives a
// cancellation of its preemptor: resume continues from exactly where the
// preemption cut in.
func TestSuspensionPreservesRemainingWork(t *testing.T) {
	e, err := New(flatConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.govEvery = 0
	e.recEvery = 1 << 30
	for i := 0; i < 300; i++ {
		if _, err := e.tick(0.01); err != nil {
			t.Fatal(err)
		}
		e.timeTicks++
	}
	remCPU, remGPU := e.remCPU, e.remGPU
	if remCPU <= 0 || remGPU <= 0 {
		t.Fatalf("3 s in, rem = (%g, %g); expected work on both sides", remCPU, remGPU)
	}
	if _, err := e.EnqueueAppPriority(workload.Syrk(), mapping.Partition{Num: 4, Den: 8}, 1); err != nil {
		t.Fatal(err)
	}
	sus := e.queue[e.qHead]
	if !sus.suspended || sus.remCPU != remCPU || sus.remGPU != remGPU {
		t.Fatalf("suspended entry %+v, want remaining work (%g, %g) parked verbatim", sus, remCPU, remGPU)
	}
	// Cancel the preemptor: the suspended job resumes with the same rem.
	if err := e.CancelJob(e.curJobID); err != nil {
		t.Fatal(err)
	}
	if e.app == nil || e.app.Name != "COVARIANCE" {
		t.Fatal("preempted job did not resume after its preemptor was cancelled")
	}
	if e.remCPU != remCPU || e.remGPU != remGPU {
		t.Errorf("resumed rem = (%g, %g), want (%g, %g) — work lost or duplicated across suspend/resume",
			e.remCPU, e.remGPU, remCPU, remGPU)
	}
}
