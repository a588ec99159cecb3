package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"teem/internal/obs"
)

func TestServeScheduleReproducible(t *testing.T) {
	a, as, err := serveSchedule(7, serveRate, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, bs, err := serveSchedule(7, serveRate, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || len(as) != len(bs) {
		t.Fatal("the same seed produced different schedules")
	}
	for i := range as {
		if !bytes.Equal(as[i].body, bs[i].body) {
			t.Fatalf("fresh request %d differs under the same seed", i)
		}
	}
	c, cs, err := serveSchedule(8, serveRate, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) || bytes.Equal(as[0].body, cs[0].body) {
		t.Fatal("a different seed produced the same schedule or requests")
	}
}

func TestServeScheduleShape(t *testing.T) {
	reqs, specs, err := serveSchedule(3, serveRate, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fresh := 0
	bodies := map[string]bool{}
	for i, r := range reqs {
		if i > 0 && r.at < reqs[i-1].at {
			t.Fatalf("arrival %d goes back in time", i)
		}
		if r.fresh {
			if r.fi != fresh {
				t.Fatalf("fresh request %d has spec %d", fresh, r.fi)
			}
			fresh++
			continue
		}
		if back := fresh - r.fi; back < repeatMinBack || back >= repeatMinBack+repeatWindow {
			t.Fatalf("repeat %d targets a request %d fresh requests back", i, back)
		}
	}
	for _, s := range specs {
		if bodies[string(s.body)] {
			t.Fatal("two fresh requests share a body; the second would be a cache hit")
		}
		bodies[string(s.body)] = true
	}
	got := float64(len(reqs)) / 20
	if got < 0.9*serveRate || got > 1.1*serveRate {
		t.Fatalf("offered %.1f requests/s, want about %g", got, serveRate)
	}
	hits := float64(len(reqs)-fresh) / float64(len(reqs))
	if hits < serveHitShare-0.05 || hits > serveHitShare+0.05 {
		t.Fatalf("repeat share %.3f, want about %g", hits, serveHitShare)
	}
}

func TestBatchInputsReproducible(t *testing.T) {
	if !reflect.DeepEqual(paperInputsFor(5), paperInputsFor(5)) {
		t.Fatal("paper-repro inputs differ under the same seed")
	}
	if reflect.DeepEqual(paperInputsFor(5), paperInputsFor(6)) {
		t.Fatal("paper-repro inputs equal under different seeds")
	}
	p0 := paperInputsFor(0)
	if p0.fig5Map.String() != "2L+4B+GPU" || !reflect.DeepEqual(p0.thresholds, []float64{80, 85, 90}) {
		t.Fatalf("seed 0 is not the paper's protocol: %+v", p0)
	}
	a, err := sweepInputsFor(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sweepInputsFor(5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sweepInputsFor(6)
	if err != nil {
		t.Fatal(err)
	}
	last := func(in sweepInputs) string {
		var buf bytes.Buffer
		if err := in.scs[len(in.scs)-1].Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if last(a) != last(b) || last(a) == last(c) {
		t.Fatal("seeded sweep traces do not follow the seed")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{n: 19, p: 50, beyond: 9},
		{n: 20, p: 50, beyond: 10, ok: true},
		{n: 39, p: 50, beyond: 19, ok: true},
		{n: 40, p: 75, beyond: 10, ok: true},
		{n: 99, p: 75, beyond: 24, ok: true},
		{n: 100, p: 90, beyond: 10, ok: true},
		{n: 999, p: 90, beyond: 99, ok: true},
		{n: 1000, p: 99, beyond: 10, ok: true},
		{n: 10000, p: 99.9, beyond: 10, ok: true},
	} {
		p, beyond, ok := tailPercentile(tc.n)
		if p != tc.p || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("n=%d: got p%g with %d beyond (ok=%v), want p%g with %d (ok=%v)",
				tc.n, p, beyond, ok, tc.p, tc.beyond, tc.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	d := newDist(xs)
	if v, note := d.tail(); v != 90 || note != "p90 of 100 (10 beyond)" {
		t.Fatalf("tail = %g %q", v, note)
	}
	if v, note := d.tailAt(99); v != 99 || note != "p99 of 100 (1 beyond), fewer than 10 beyond" {
		t.Fatalf("tailAt(99) = %g %q", v, note)
	}
	if d.median() != 50.5 {
		t.Fatalf("median = %g", d.median())
	}
}

func TestBracketedScalesByNeighbouringSamples(t *testing.T) {
	b := newBracketed(refNominalMs)
	b.add(2*refNominalMs, 10)   // between samples of 1× and 2× the nominal time
	b.add(3 * refNominalMs)     // a failed operation: no time, only its sample
	b.add(refNominalMs, 20, 30) // two operations sharing one bracket
	got := b.paired()
	want := newDist([]float64{10 / 1.5, 20 / 2.0, 30 / 2.0})
	if len(got) != len(want) {
		t.Fatalf("paired = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("paired = %v, want %v", got, want)
		}
	}
}

func TestSelfTimesWithOverlappingChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Op: 1, Name: "pass", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: ms(30), End: ms(70)},  // overlaps a
		{ID: 4, Parent: 1, Op: 1, Name: "c", Start: ms(90), End: ms(120)}, // runs past the parent
		{ID: 5, Parent: 2, Op: 1, Name: "a.child", Start: ms(10), End: ms(20)},
	}
	self := selfTimes(spans)
	// The parent's children cover [10,70] and [90,100]: 70 ms of 100.
	for id, want := range map[int]time.Duration{1: ms(30), 2: ms(30), 3: ms(40), 4: ms(30), 5: ms(10)} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
	// Children in sequence tile the parent: self times add up exactly.
	serial := []span{
		{ID: 1, Op: 1, Name: "job", Start: 0, End: ms(10)},
		{ID: 2, Parent: 1, Op: 1, Name: "x", Start: 0, End: ms(4)},
		{ID: 3, Parent: 1, Op: 1, Name: "y", Start: ms(4), End: ms(9)},
	}
	var sum time.Duration
	for _, d := range selfTimes(serial) {
		sum += d
	}
	if sum != ms(10) {
		t.Fatalf("serial self times add up to %v, want 10ms", sum)
	}
	bn := byName(spans)
	if bn["a"].dur != ms(40) || bn["pass"].n != 1 {
		t.Fatalf("byName: %+v", bn["a"])
	}
}

func TestJoinJobSpans(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(1000, 0).Add(time.Duration(ms) * time.Millisecond) }
	ds := []obs.Span{
		{Job: "j1", Phase: "submit", At: at(0)},
		{Job: "j1", Phase: "queue", At: at(1)},
		{Job: "j2", Phase: "submit", At: at(2)},
		{Job: "j1", Phase: "run", At: at(3)},
		{Job: "j1", Phase: "retry", At: at(4)},
		{Job: "j1", Phase: "run", At: at(6)}, // the retry's run: the first one is kept
		{Job: "j9", Phase: "done", At: at(6)},
		{Job: "j1", Phase: "journal-commit", At: at(7)},
		{Job: "j1", Phase: "done", At: at(9)},
		{Job: "j2", Phase: "failed", At: at(10)},
	}
	got := joinJobSpans(ds, map[string]bool{"j1": true, "j2": true})
	if len(got) != 2 {
		t.Fatalf("joined %d jobs, want 2 (j9 was not asked for)", len(got))
	}
	j1 := got["j1"]
	if j1.spans != 7 || !j1.queue.Equal(at(1)) || !j1.run.Equal(at(3)) || !j1.journal.Equal(at(7)) ||
		!j1.terminal.Equal(at(9)) || j1.phase != "done" {
		t.Fatalf("j1 = %+v", j1)
	}
	if j2 := got["j2"]; j2.phase != "failed" || !j2.terminal.Equal(at(10)) || !j2.run.IsZero() {
		t.Fatalf("j2 = %+v", j2)
	}
}

func TestCheckStream(t *testing.T) {
	ok := []byte(`{"type":"start","job":"j1"}` + "\n" + `{"type":"sample","t_s":0}` + "\n" + `{"type":"done","job":"j1","status":"done"}` + "\n")
	if err := checkStream(ok); err != nil {
		t.Fatal(err)
	}
	bad := []byte(`{"type":"start","job":"j1"}` + "\n" + `{"type":"done","job":"j1","status":"cancelled"}` + "\n")
	if checkStream(bad) == nil {
		t.Fatal("a cancelled job's stream passed")
	}
}

func TestCheckMetricsRefusesGaps(t *testing.T) {
	rep := &report{attempted: 1}
	for _, d := range endToEnd {
		rep.add(d.name, d.unit, 1, "")
	}
	if err := checkMetrics(rep, false); err != nil {
		t.Fatal(err)
	}
	rep.metrics = rep.metrics[1:]
	if checkMetrics(rep, false) == nil {
		t.Fatal("a run missing a metric passed")
	}
	if checkMetrics(&report{attempted: 1}, true) == nil {
		t.Fatal("a traced run with no metrics passed")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric definitions here
// and in BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", what, len(defs), len(got))
		}
		for i := range defs {
			if defs[i].name != got[i].Name || defs[i].unit != got[i].Unit {
				t.Errorf("%s %d: %s %s here, %s %s in BENCHMARK.json", what, i, defs[i].name, defs[i].unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which does not exist", w.Name)
		}
	}
}
