package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"teem/internal/obs"
)

// scrapeMetrics performs one GET /metrics against the service handler
// with the given Accept header and returns the recorded response.
func scrapeMetrics(t *testing.T, s *Service, accept string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// /metrics must speak both dialects: the default JSON document stays
// exactly as it always was, and `Accept: text/plain` negotiates a valid
// Prometheus text exposition carrying the same counters.
func TestMetricsPromExposition(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	j, _, err := s.Submit(&JobRequest{Preset: "sunlight", Governors: []string{"ondemand"}})
	if err != nil {
		t.Fatal(err)
	}
	if js := waitTerminal(t, j, 30*time.Second); js.Status != StatusDone {
		t.Fatalf("job ended %s: %s", js.Status, js.Error)
	}

	// Default: the JSON document, unchanged shape.
	w := scrapeMetrics(t, s, "")
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("default /metrics Content-Type = %q, want application/json", ct)
	}
	var doc map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("default /metrics is not JSON: %v", err)
	}
	if doc["jobs_done"].(float64) < 1 {
		t.Errorf("JSON jobs_done = %v, want >= 1", doc["jobs_done"])
	}
	jsonBefore := w.Body.String()

	// Negotiated: the Prometheus text exposition, format-valid.
	pw := scrapeMetrics(t, s, obs.ContentType)
	if ct := pw.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("prom /metrics Content-Type = %q, want %q", ct, obs.ContentType)
	}
	body := pw.Body.String()
	if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		"teemd_build_info",
		"teemd_jobs_done_total 1",
		"teemd_jobs_queued ",
		"teemd_job_latency_seconds_bucket",
		"teemd_job_run_seconds_count",
		`teemd_tenant_submitted_total{tenant="default"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}

	// An openmetrics-flavoured Accept negotiates text too.
	ow := scrapeMetrics(t, s, "application/openmetrics-text; version=1.0.0")
	if !bytes.HasPrefix(ow.Body.Bytes(), []byte("# HELP")) {
		t.Error("openmetrics Accept did not negotiate the text exposition")
	}

	// Scraping prom must not perturb the JSON document.
	if after := scrapeMetrics(t, s, "application/json").Body.String(); after != jsonBefore {
		t.Errorf("JSON /metrics changed after a prom scrape:\nbefore:\n%s\nafter:\n%s", jsonBefore, after)
	}
}

// Content negotiation must honour media-range qualities: q=0 is an
// explicit refusal of a dialect, and unrelated ranges merely mentioning
// the magic strings must not flip the format.
func TestWantsPromQualityNegotiation(t *testing.T) {
	cases := []struct {
		accept string
		want   bool
	}{
		{"", false},
		{"application/json", false},
		{"text/plain", true},
		{"text/plain; version=0.0.4", true},
		{obs.ContentType, true},
		{"application/openmetrics-text; version=1.0.0", true},
		{"text/plain;q=0", false},
		{"text/plain; q=0.0", false},
		{"text/plain;q=0, application/json", false},
		{"text/plain;q=0.5, application/json", true},
		{"application/json, text/plain; version=0.0.4; q=1", true},
		{"text/html", false},
	}
	for _, c := range cases {
		req := httptest.NewRequest("GET", "/metrics", nil)
		if c.accept != "" {
			req.Header.Set("Accept", c.accept)
		}
		if got := wantsProm(req); got != c.want {
			t.Errorf("wantsProm(Accept: %q) = %v, want %v", c.accept, got, c.want)
		}
	}
}

// The ring's eviction path shifts elements within its backing array, so
// readers must get a copy, never an aliasing sub-slice. This hammers
// concurrent emits past traceKeep against snapshot reads — the -race
// guard for that invariant.
func TestTracerEvictionRace(t *testing.T) {
	const total = 3 * traceKeep
	tr := newEventLog(traceKeep)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			tr.publish(obs.Span{Trace: "deadbeefdeadbeef", Phase: "run", Attempt: i})
		}
	}()
	read := func(seq int64) int64 {
		lines, next, _ := tr.waitFrom(context.Background(), seq, false)
		for _, ln := range lines {
			var sp obs.Span
			if err := json.Unmarshal(ln, &sp); err != nil {
				t.Errorf("torn span line %q: %v", ln, err)
			}
		}
		return next
	}
	var seq int64
	for seq < total {
		seq = read(seq)
	}
	wg.Wait()
	if got := read(0); got != total {
		t.Fatalf("final ring sequence = %d, want %d", got, total)
	}
}

// The exposition and JSON snapshots must be safe to take while the
// service is churning — this is the -race hammer for the metrics layer.
func TestMetricsSnapshotUnderLoad(t *testing.T) {
	s := newTestService(t, Options{Workers: 4})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				req := &JobRequest{
					Scenario: tinyScenarioJSON(t, fmt.Sprintf("obs-race-%d-%d", g, i)),
					Tenant:   fmt.Sprintf("tenant-%d", g),
				}
				j, _, err := s.Submit(req)
				if err != nil {
					continue
				}
				waitTerminal(t, j, 30*time.Second)
			}
		}(g)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, accept := range []string{"", obs.ContentType} {
			w := scrapeMetrics(t, s, accept)
			if w.Code != 200 {
				t.Fatalf("scrape with Accept %q: HTTP %d", accept, w.Code)
			}
		}
		if err := obs.ValidateExposition(bytes.NewReader(s.Metrics().prom())); err != nil {
			t.Fatalf("mid-churn exposition invalid: %v", err)
		}
		_ = s.Metrics().String()
	}
	close(done)
	wg.Wait()
}

// Every job must leave a coherent trace: one id minted at submission,
// stamped on the status, and a span per lifecycle phase on /trace.
func TestTraceSpansLifecycle(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	j, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "traced"), Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	js := waitTerminal(t, j, 30*time.Second)
	if js.Status != StatusDone {
		t.Fatalf("job ended %s: %s", js.Status, js.Error)
	}
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(js.TraceID) {
		t.Fatalf("trace id %q is not 16 hex chars", js.TraceID)
	}

	var spans []obs.Span
	if err := s.Trace(context.Background(), false, func(line []byte) error {
		var sp obs.Span
		if err := json.Unmarshal(line, &sp); err != nil {
			return fmt.Errorf("bad span line %q: %v", line, err)
		}
		spans = append(spans, sp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	for _, sp := range spans {
		if sp.Trace != js.TraceID {
			continue
		}
		if sp.Job != j.ID {
			t.Errorf("span %s carries job %q, want %q", sp.Phase, sp.Job, j.ID)
		}
		if sp.Tenant != "acme" {
			t.Errorf("span %s carries tenant %q, want acme", sp.Phase, sp.Tenant)
		}
		if _, seen := phases[sp.Phase]; !seen {
			phases[sp.Phase] = len(phases)
		}
	}
	for _, want := range []string{"submit", "queue", "run", "done"} {
		if _, ok := phases[want]; !ok {
			t.Errorf("no %q span for trace %s (got %v)", want, js.TraceID, phases)
		}
	}
	// submit and queue are emitted before the pool handoff, so they must
	// precede run in stream order (journal-commit is concurrent and
	// exempt — see obs.Span).
	if phases["submit"] > phases["run"] || phases["queue"] > phases["run"] {
		t.Errorf("lifecycle spans out of order: %v", phases)
	}
}

// A follow=true Trace must deliver spans emitted after the subscription
// and stop when its context is cancelled.
func TestTraceFollowDeliversLive(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make(chan obs.Span, 64)
	errc := make(chan error, 1)
	go func() {
		errc <- s.Trace(ctx, true, func(line []byte) error {
			var sp obs.Span
			if err := json.Unmarshal(line, &sp); err != nil {
				return err
			}
			got <- sp
			return nil
		})
	}()

	j, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "follow-me")})
	if err != nil {
		t.Fatal(err)
	}
	js := waitTerminal(t, j, 30*time.Second)
	seen := map[string]bool{}
	deadline := time.After(5 * time.Second)
	for !(seen["submit"] && seen["done"]) {
		select {
		case sp := <-got:
			if sp.Trace == js.TraceID {
				seen[sp.Phase] = true
			}
		case <-deadline:
			t.Fatalf("follow stream never delivered submit+done; saw %v", seen)
		}
	}
	cancel()
	select {
	case err := <-errc:
		if err != nil && !strings.Contains(err.Error(), "context canceled") {
			t.Errorf("follow returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follow Trace did not return after cancel")
	}
}

// The trace id written to the journal at submission is the one a
// restarted daemon re-runs under: one trace spans both process epochs.
func TestTraceIDSurvivesRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	writeJournalFile(t, path, []journalRecord{
		{Op: opSubmit, ID: "j1", Trace: "00aa11bb22cc33dd",
			Req: &JobRequest{Scenario: tinyScenarioJSON(t, "trace-recover"), Governors: []string{"ondemand"}}},
	})
	s := newTestService(t, Options{Workers: 1, JournalPath: path})
	j, err := s.Job("j1")
	if err != nil {
		t.Fatal(err)
	}
	if js := waitTerminal(t, j, 30*time.Second); js.TraceID != "00aa11bb22cc33dd" {
		t.Errorf("recovered trace id = %q, want the journalled 00aa11bb22cc33dd", js.TraceID)
	}
	var phases []string
	_ = s.Trace(context.Background(), false, func(line []byte) error {
		var sp obs.Span
		if err := json.Unmarshal(line, &sp); err != nil {
			return err
		}
		if sp.Trace == "00aa11bb22cc33dd" {
			phases = append(phases, sp.Phase)
		}
		return nil
	})
	if len(phases) == 0 || phases[0] != "recover" {
		t.Errorf("recovered job's first span = %v, want it to open with recover", phases)
	}
}

// journal.health is the /healthz ingredient: nil-safe, degraded exactly
// while the last flush failed, and counting records since compaction.
func TestJournalHealth(t *testing.T) {
	var nilJ *journal
	if h := nilJ.health(); h.Enabled || h.Degraded {
		t.Errorf("nil journal health = %+v, want disabled and healthy", h)
	}

	j := &journal{appendN: 7, compactSeq: 3}
	h := j.health()
	if !h.Enabled || h.Degraded || h.RecordsSinceCompaction != 4 {
		t.Errorf("health = %+v, want enabled, healthy, 4 records since compaction", h)
	}

	j.mu.Lock()
	j.lastErr = "disk on fire"
	j.mu.Unlock()
	h = j.health()
	if !h.Degraded || h.LastError != "disk on fire" {
		t.Errorf("health after flush error = %+v, want degraded with the error", h)
	}
	j.mu.Lock()
	j.lastErr = ""
	j.mu.Unlock()
	if h = j.health(); h.Degraded {
		t.Error("health stayed degraded after a clean flush")
	}
}

// /healthz surfaces the journal block and keeps status "ok" for a
// healthy journalled daemon.
func TestHealthzReportsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	s := newTestService(t, Options{Workers: 1, JournalPath: path})
	j, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "healthz")})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j, 30*time.Second)

	req := httptest.NewRequest("GET", "/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("healthz: HTTP %d", w.Code)
	}
	var h struct {
		Status  string        `json:"status"`
		Journal journalHealth `json:"journal"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if !h.Journal.Enabled || h.Journal.Degraded {
		t.Errorf("journal health = %+v, want enabled and healthy", h.Journal)
	}
	if h.Journal.RecordsSinceCompaction == 0 {
		t.Error("records_since_compaction = 0 after journalled work")
	}
	var doc map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	keys := slices.Sorted(maps.Keys(doc))
	if want := []string{"jobs_queued", "jobs_running", "journal", "recoveries", "status", "version"}; !slices.Equal(keys, want) {
		t.Errorf("healthz keys = %v, want %v", keys, want)
	}
}

// BenchmarkPromExposition prices one /metrics text render with live
// tenant stats and populated histograms.
func BenchmarkPromExposition(b *testing.B) {
	s, err := New(Options{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		s.metrics.tenant(fmt.Sprintf("tenant-%d", i)).submitted.Add(int64(i))
		s.metrics.observeLatency(time.Duration(i+1) * time.Millisecond)
		s.metrics.observeRun(time.Duration(i+1) * 10 * time.Millisecond)
	}
	v := s.Metrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(v.prom()) == 0 {
			b.Fatal("empty exposition")
		}
	}
}
