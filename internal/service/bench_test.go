package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"teem/internal/scenario"
)

func benchScenarioJSON(b *testing.B, name string) json.RawMessage {
	b.Helper()
	sc, err := scenario.New(name).
		ArriveDefault(0, "MVT").
		Horizon(5).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sc.Save(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func benchWait(b *testing.B, j *Job) {
	b.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		js := j.Snapshot()
		if js.Terminal() {
			if js.Status != StatusDone {
				b.Fatalf("job ended %s: %s", js.Status, js.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			b.Fatal("benchmark job stuck")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// BenchmarkServiceSubmit measures the end-to-end submit→done latency of
// an uncached single-scenario job — the serving-path overhead on top of
// the raw simulation (each iteration uses a distinct scenario name so
// the request cache never short-circuits the work).
func BenchmarkServiceSubmit(b *testing.B) {
	s, err := New(Options{Workers: 1, QueueDepth: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, cached, err := s.Submit(&JobRequest{Scenario: benchScenarioJSON(b, fmt.Sprintf("bench-%d", i))})
		if err != nil {
			b.Fatal(err)
		}
		if cached {
			b.Fatal("benchmark request unexpectedly cached")
		}
		benchWait(b, j)
	}
}

// BenchmarkServiceSubmitCached measures the cache-hit path: the steady
// state of a hot request served without simulating.
func BenchmarkServiceSubmitCached(b *testing.B) {
	s, err := New(Options{Workers: 1, QueueDepth: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	req := &JobRequest{Scenario: benchScenarioJSON(b, "bench-cached")}
	j, _, err := s.Submit(req)
	if err != nil {
		b.Fatal(err)
	}
	benchWait(b, j)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, cached, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		if !cached {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkServiceStream measures full-stream replay throughput: one
// completed job's telemetry (start + per-sample lines + done) drained by
// a fresh subscriber per iteration.
func BenchmarkServiceStream(b *testing.B) {
	s, err := New(Options{Workers: 1, QueueDepth: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	j, _, err := s.Submit(&JobRequest{Preset: "sunlight", Governors: []string{"ondemand"}})
	if err != nil {
		b.Fatal(err)
	}
	benchWait(b, j)
	var total int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := int64(0)
		if err := j.Stream(context.Background(), func(line []byte) error {
			n += int64(len(line))
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		total = n
	}
	b.SetBytes(total)
}

// BenchmarkServiceSubmitSparse measures end-to-end job latency on the
// sparse-replay corpus entry: a ten-minute horizon with minutes of idle
// between arrivals, which the engine's event-horizon supersteps jump in
// single propagator applications. The dominant cost is everything around
// the simulation — queueing, telemetry fan-out, snapshotting — which is
// the point: the service keeps up with sparse traces at interactive
// latency. Each iteration renames the scenario to defeat the request
// cache.
func BenchmarkServiceSubmitSparse(b *testing.B) {
	s, err := New(Options{Workers: 1, QueueDepth: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := scenario.SparseReplay()
		sc.Name = fmt.Sprintf("sparse-bench-%d", i)
		var buf bytes.Buffer
		if err := sc.Save(&buf); err != nil {
			b.Fatal(err)
		}
		j, cached, err := s.Submit(&JobRequest{Scenario: buf.Bytes(), Governors: []string{"ondemand"}})
		if err != nil {
			b.Fatal(err)
		}
		if cached {
			b.Fatal("benchmark request unexpectedly cached")
		}
		benchWait(b, j)
	}
}

// BenchmarkServiceSoak measures the fully-armoured serving path: every
// submission journaled with fsync group commit, every 7th execution
// panicking and retrying with backoff — the steady-state cost of
// durability plus fault tolerance on top of BenchmarkServiceSubmit.
func BenchmarkServiceSoak(b *testing.B) {
	s, err := New(Options{
		Workers:     2,
		QueueDepth:  16,
		JournalPath: filepath.Join(b.TempDir(), "journal.ndjson"),
		Faults:      &FaultConfig{PanicEvery: 7},
		Retry:       RetryPolicy{BaseDelay: time.Millisecond},
		// The injected panics log stack traces; discard them so they
		// cannot split the benchmark's result line.
		Logf: func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, cached, err := s.Submit(&JobRequest{Scenario: benchScenarioJSON(b, fmt.Sprintf("soak-%d", i))})
		if err != nil {
			b.Fatal(err)
		}
		if cached {
			b.Fatal("benchmark request unexpectedly cached")
		}
		benchWait(b, j)
	}
}

// BenchmarkJournalReplay measures recovery-scan throughput: how fast a
// restarting daemon reads a journal and works out its pending set
// (bytes/s over a 1000-job history, half of it uncompleted).
func BenchmarkJournalReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "journal.ndjson")
	req := &JobRequest{Scenario: benchScenarioJSON(b, "replay"), Governors: []string{"ondemand"}}
	var buf bytes.Buffer
	seq := int64(0)
	enc := json.NewEncoder(&buf)
	for i := 1; i <= 1000; i++ {
		seq++
		if err := enc.Encode(journalRecord{Seq: seq, Op: opSubmit, ID: fmt.Sprintf("j%d", i), Req: req}); err != nil {
			b.Fatal(err)
		}
		if i%2 == 0 {
			seq++
			if err := enc.Encode(journalRecord{Seq: seq, Op: opFinish, ID: fmt.Sprintf("j%d", i), Status: StatusDone}); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan, err := readJournal(path)
		if err != nil {
			b.Fatal(err)
		}
		if len(scan.pending) != 500 {
			b.Fatalf("pending = %d, want 500", len(scan.pending))
		}
	}
}
