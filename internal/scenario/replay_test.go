package scenario

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"teem/internal/sim"
)

// A recorded arrival log compiles to a chronologically ordered scenario:
// arrivals carry priority/deadline, holds become departures, and the
// result passes full validation.
func TestFromTraceCompiles(t *testing.T) {
	tr := &ArrivalTrace{
		Name: "log",
		Records: []TraceRecord{
			{App: "GEMM", AtS: 8, Priority: 1, HoldS: 6},
			{App: "COVARIANCE", AtS: 0, DeadlineS: 120},
			{App: "MVT", AtS: 5, Priority: 2},
		},
	}
	s, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 4 {
		t.Fatalf("compiled %d events, want 3 arrivals + 1 departure", len(s.Events))
	}
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].AtS < s.Events[i-1].AtS {
			t.Fatalf("timeline out of order at %d: %g after %g", i, s.Events[i].AtS, s.Events[i-1].AtS)
		}
	}
	var dep *Event
	for i := range s.Events {
		if s.Events[i].Kind == KindDeparture {
			dep = &s.Events[i]
		}
	}
	if dep == nil || dep.App != "GEMM" || dep.AtS != 14 {
		t.Errorf("hold_s did not compile to a GEMM departure at t=14: %+v", dep)
	}
	arr := s.Events[0]
	if arr.App != "COVARIANCE" || arr.DeadlineS != 120 {
		t.Errorf("records not sorted by arrival time or deadline dropped: %+v", arr)
	}
}

func TestFromTraceRejectsBadLogs(t *testing.T) {
	cases := []struct {
		name string
		tr   *ArrivalTrace
	}{
		{"nil", nil},
		{"empty", &ArrivalTrace{Name: "x"}},
		{"unknown app", &ArrivalTrace{Name: "x", Records: []TraceRecord{{App: "NOPE", AtS: 0}}}},
		{"negative hold", &ArrivalTrace{Name: "x", Records: []TraceRecord{{App: "MVT", AtS: 0, HoldS: -1}}}},
		{"negative time", &ArrivalTrace{Name: "x", Records: []TraceRecord{{App: "MVT", AtS: -2}}}},
	}
	for _, c := range cases {
		if _, err := FromTrace(c.tr); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// A non-finite number anywhere in an arrival log is rejected with an
// error naming the field and the record's position in the log; a NaN
// hold_s used to pass the negative-hold check and drop its departure.
func TestFromTraceRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mut  func(*ArrivalTrace)
		want string
	}{
		{"nan hold", func(tr *ArrivalTrace) { tr.Records[1].HoldS = nan }, "record 1: non-finite hold_s"},
		{"inf hold", func(tr *ArrivalTrace) { tr.Records[1].HoldS = inf }, "record 1: non-finite hold_s"},
		{"nan at", func(tr *ArrivalTrace) { tr.Records[1].AtS = nan }, "record 1: non-finite at_s"},
		{"inf deadline", func(tr *ArrivalTrace) { tr.Records[0].DeadlineS = inf }, "record 0: non-finite deadline_s"},
		{"nan horizon", func(tr *ArrivalTrace) { tr.HorizonS = nan }, "non-finite horizon_s"},
	}
	for _, c := range cases {
		tr := &ArrivalTrace{Name: "x", Records: []TraceRecord{
			{App: "COVARIANCE", AtS: 0},
			{App: "MVT", AtS: 5, HoldS: 3},
		}}
		c.mut(tr)
		_, err := FromTrace(tr)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// The JSON arrival-log round trip: LoadTrace reads what Save wrote, and
// the strict decoder flags typos.
func TestArrivalTraceJSONRoundTrip(t *testing.T) {
	tr := &ArrivalTrace{
		Name: "log",
		Records: []TraceRecord{
			{App: "COVARIANCE", AtS: 0},
			{App: "MVT", AtS: 5, Priority: 2, DeadlineS: 40, HoldS: 10},
		},
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || len(got.Records) != 2 || got.Records[1].HoldS != 10 {
		t.Errorf("round trip mangled the log: %+v", got)
	}
	if _, err := LoadTrace(strings.NewReader(`{"name":"x","records":[],"bogus":1}`)); err == nil {
		t.Error("unknown JSON field accepted")
	}
	if _, err := FromTrace(got); err != nil {
		t.Errorf("round-tripped log does not compile: %v", err)
	}
}

// End to end: the replayed log runs deterministically, the held tenant
// departs (cancelling its unfinished work), the high-priority burst
// preempts, and the surviving jobs drain.
func TestReplayRunEndToEnd(t *testing.T) {
	r, err := Run(ReplaySample(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sim.Completed {
		t.Fatal("replay did not complete")
	}
	if !r.Passed() {
		t.Fatalf("replay violated assertions: %v", r.Violations)
	}
	// GEMM held for 6 s of a much longer job: it must appear as a
	// cancellation, not a finish.
	for _, jf := range r.Sim.JobFinishes {
		if jf.App == "GEMM" {
			t.Errorf("held tenant GEMM finished at %g despite departing at t=14", jf.AtS)
		}
	}
	found := false
	for _, c := range r.Sim.JobCancels {
		if c.App == "GEMM" {
			found = true
			if c.DoneFrac <= 0 || c.DoneFrac >= 1 {
				t.Errorf("departed GEMM DoneFrac = %g, want a partial fraction", c.DoneFrac)
			}
		}
	}
	if !found {
		t.Error("held tenant GEMM was not cancelled")
	}
	// The prio-2 MVT burst preempts everything below it: it finishes
	// before the background COVARIANCE it interrupted.
	var mvtAt, covAt float64
	for _, jf := range r.Sim.JobFinishes {
		switch jf.App {
		case "MVT":
			mvtAt = jf.AtS
		case "COVARIANCE":
			covAt = jf.AtS
		}
	}
	if mvtAt == 0 || covAt == 0 || mvtAt >= covAt {
		t.Errorf("burst MVT finished at %g vs background COVARIANCE at %g — preemption not replayed", mvtAt, covAt)
	}
}

// A missed deadline is a violation; a departed job's deadline is exempt.
func TestDeadlineViolations(t *testing.T) {
	// COVARIANCE cannot finish in 1 s.
	late, err := New("late").
		ArriveDefault(0, "COVARIANCE").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	late.Events[0].DeadlineS = 1
	r, err := Run(late, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Passed() {
		t.Error("missed deadline not recorded as a violation")
	}
	// The same impossible deadline is exempt when the tenant departs
	// before it would have mattered.
	gone, err := New("gone").
		ArriveDefault(0, "COVARIANCE").
		ArriveDefault(0, "MVT").
		Depart(0.5, "COVARIANCE").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	gone.Events[0].DeadlineS = 1
	r2, err := Run(gone, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Passed() {
		t.Errorf("departed job's deadline still violated: %v", r2.Violations)
	}
	// A generous deadline passes.
	fine, err := New("fine").
		ArriveDefault(0, "COVARIANCE").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	fine.Events[0].DeadlineS = 300
	r3, err := Run(fine, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Passed() {
		t.Errorf("met deadline flagged: %v", r3.Violations)
	}
}

// A departure of an app whose job already finished is a tolerated no-op;
// a departure with no submitted job at all is flagged.
func TestDepartureEdgeCases(t *testing.T) {
	// MVT finishes long before t=200; the departure is a no-op.
	s, err := New("late-leave").
		ArriveDefault(0, "MVT").
		Depart(200, "MVT").
		Horizon(201).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(s, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed() {
		t.Errorf("departure after natural completion flagged: %v", r.Violations)
	}
	if len(r.Sim.JobCancels) != 0 {
		t.Errorf("no-op departure cancelled something: %+v", r.Sim.JobCancels)
	}
	// Validation rejects a departure with no matching earlier arrival.
	if _, err := New("orphan").
		ArriveDefault(5, "MVT").
		Depart(2, "MVT").
		Build(); err == nil {
		t.Error("departure before any arrival of its app accepted")
	}
	if _, err := New("no-app").
		ArriveDefault(0, "MVT").
		Depart(2, "GEMM").
		Build(); err == nil {
		t.Error("departure of a never-submitted app accepted")
	}
	// Same-tick pairs follow event-list order (stable sort = dispatch
	// order): departure listed before its same-time arrival would
	// dispatch first and find nothing, so validation rejects it, while
	// arrival-then-departure on one tick is fine.
	if _, err := New("dep-first").
		Depart(5, "MVT").
		ArriveDefault(5, "MVT").
		Build(); err == nil {
		t.Error("same-tick departure listed before its arrival accepted")
	}
	if _, err := New("arr-first").
		ArriveDefault(5, "MVT").
		Depart(5, "MVT").
		Build(); err != nil {
		t.Errorf("same-tick arrival-then-departure rejected: %v", err)
	}
	// A surplus departure can never resolve: two departures of one
	// submission are an authoring error caught statically, not a
	// runtime violation on whichever departure fires second.
	if _, err := New("double-leave").
		ArriveDefault(0, "MVT").
		Depart(200, "MVT").
		Depart(201, "MVT").
		Horizon(202).
		Build(); err == nil {
		t.Error("two departures of a single submission accepted")
	}
}

// A departure targets the oldest *still-pending* submission of its app:
// when an earlier same-app job already finished, the departure must fall
// through to the later, live one instead of silently no-opping on the
// drained id.
func TestDepartureSkipsFinishedSubmission(t *testing.T) {
	s, err := New("re-entrant").
		ArriveDefault(0, "MVT").
		ArriveDefault(30, "MVT"). // second tenant of the same app
		Depart(35, "MVT").        // ...leaves 5 s in
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(s, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed() {
		t.Fatalf("violations: %v", r.Violations)
	}
	if len(r.Sim.JobFinishes) != 1 {
		t.Fatalf("finishes = %v, want only the first MVT", r.Sim.JobFinishes)
	}
	if r.Sim.JobFinishes[0].AtS >= 30 {
		t.Fatalf("first MVT finished at %g, expected before the second arrival (test premise broken)",
			r.Sim.JobFinishes[0].AtS)
	}
	if len(r.Sim.JobCancels) != 1 || r.Sim.JobCancels[0].AtS != 35 {
		t.Errorf("cancels = %+v — the departure no-opped on the finished first submission instead of dropping the live second one",
			r.Sim.JobCancels)
	}
}

// Regression: two same-app tenants with overlapping, non-FIFO holds must
// each cancel their own submission. The long-hold tenant arrives first;
// the short-hold tenant arrives second and leaves while both are in the
// system — its departure must drop the second submission (still queued,
// zero work done), not the older live one.
func TestReplayOverlappingHoldsCancelTheRecordedTenant(t *testing.T) {
	s, err := FromTrace(&ArrivalTrace{
		Name: "overlap",
		Records: []TraceRecord{
			{App: "GEMM", AtS: 0, HoldS: 100},
			{App: "GEMM", AtS: 10, HoldS: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(s, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed() {
		t.Fatalf("violations: %v", r.Violations)
	}
	// Tenant 1 (id 1) finishes well before its 100 s hold; tenant 2
	// (id 2) is cancelled at t=15 having never run.
	if len(r.Sim.JobFinishes) != 1 || r.Sim.JobFinishes[0].ID != 1 {
		t.Fatalf("finishes = %+v, want only the first tenant (id 1)", r.Sim.JobFinishes)
	}
	if len(r.Sim.JobCancels) != 1 {
		t.Fatalf("cancels = %+v, want exactly the short-hold tenant", r.Sim.JobCancels)
	}
	c := r.Sim.JobCancels[0]
	if c.ID != 2 || c.AtS != 15 {
		t.Errorf("cancel = %+v — the t=15 departure dropped the wrong tenant's job", c)
	}
	if c.DoneFrac != 0 {
		t.Errorf("queued second tenant cancelled with DoneFrac %g, want 0 (it never ran)", c.DoneFrac)
	}
}

// A job cancelled only *after* its deadline already passed still missed
// it: the departure exemption applies to tenants that left in time, not
// to late drops.
func TestDeadlineMissBeforeLateDeparture(t *testing.T) {
	s, err := New("late-drop").
		ArriveDefault(0, "COVARIANCE").
		ArriveDefault(0, "MVT").
		Depart(5, "COVARIANCE"). // departs 4 s after the deadline passed
		Build()
	if err != nil {
		t.Fatal(err)
	}
	s.Events[0].DeadlineS = 1 // impossible for COVARIANCE
	r, err := Run(s, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Passed() {
		t.Error("deadline missed at t=1 hidden by the t=5 departure")
	}
}

// The preemption corpus is deterministic: byte-identical serial vs
// parallel grid output under both integrators — the acceptance gate for
// the preemptive queue.
func TestPreemptionGridDeterminismBothIntegrators(t *testing.T) {
	scs := []*Scenario{PreemptStorm(), MultiTenantChurn(), ReplaySample()}
	govs := []string{"ondemand", "teem"}
	for _, integ := range []sim.Integrator{sim.IntegratorExact, sim.IntegratorEuler} {
		rc := quickConfig()
		rc.Integrator = integ
		serial, err := RunGrid(scs, govs, rc, 1)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := RunGrid(scs, govs, rc, 8)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Render() != parallel.Render() {
			t.Errorf("integrator %d: parallel preemption grid differs from serial", integ)
		}
		for si := range serial.Cells[0] {
			for gi := range serial.Cells[0][si] {
				a, b := serial.Cells[0][si][gi], parallel.Cells[0][si][gi]
				if a.Sim.EnergyJ != b.Sim.EnergyJ || a.Sim.ExecTimeS != b.Sim.ExecTimeS ||
					a.Sim.PeakTempC != b.Sim.PeakTempC {
					t.Errorf("integrator %d: cell %s/%s metrics differ between serial and parallel",
						integ, a.Scenario, a.Governor)
				}
				if len(a.Sim.JobCancels) != len(b.Sim.JobCancels) {
					t.Errorf("cell %s/%s cancellation lists differ", a.Scenario, a.Governor)
				}
			}
		}
	}
}

// The nested preemption stack of the storm preset unwinds in priority
// order: SYRK (prio 3) first, then the suspended MVT (prio 2), then the
// second MVT burst (same class, FIFO behind the first), and the
// twice-suspended background COVARIANCE drains last.
func TestPreemptStormUnwindsInPriorityOrder(t *testing.T) {
	r, err := Run(PreemptStorm(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sim.Completed || !r.Passed() {
		t.Fatalf("storm: completed=%v violations=%v", r.Sim.Completed, r.Violations)
	}
	jf := r.Sim.JobFinishes
	if len(jf) != 4 {
		t.Fatalf("JobFinishes = %d entries, want 4", len(jf))
	}
	want := []string{"SYRK", "MVT", "MVT", "COVARIANCE"}
	for i, w := range want {
		if jf[i].App != w {
			t.Fatalf("finish order %v, want %v", names(jf), want)
		}
	}
}

func names(jf []sim.JobFinish) []string {
	out := make([]string, len(jf))
	for i := range jf {
		out[i] = jf[i].App
	}
	return out
}
