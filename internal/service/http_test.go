package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, o Options) (*Service, *httptest.Server) {
	t.Helper()
	s := newTestService(t, o)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// The full HTTP round trip: healthz, submit, poll, result, metrics.
func TestHTTPSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d: %s", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/jobs", JobRequest{Preset: "sunlight", Governors: []string{"ondemand"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if js.ID == "" || js.Cached {
		t.Fatalf("submit snapshot: %+v", js)
	}

	deadline := time.Now().Add(30 * time.Second)
	for !js.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", js.Status)
		}
		time.Sleep(5 * time.Millisecond)
		resp, body = getBody(t, ts.URL+"/v1/jobs/"+js.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &js); err != nil {
			t.Fatal(err)
		}
	}
	if js.Status != StatusDone {
		t.Fatalf("job ended %s: %s", js.Status, js.Error)
	}

	resp, body = getBody(t, ts.URL+"/v1/jobs/"+js.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "scenario × governor grid") {
		t.Errorf("result text lacks the grid table:\n%s", body)
	}

	// A repeat submission answers 200 + cached from the request cache.
	resp, body = postJSON(t, ts.URL+"/v1/jobs", JobRequest{Preset: "sunlight", Governors: []string{"ondemand"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached submit = %d: %s", resp.StatusCode, body)
	}
	var js2 JobStatus
	if err := json.Unmarshal(body, &js2); err != nil {
		t.Fatal(err)
	}
	if !js2.Cached || js2.ID != js.ID {
		t.Errorf("repeat submit = %+v, want cached id %s", js2, js.ID)
	}

	resp, body = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"jobs_done", "cache_hits", "latency_p50_s", "latency_p99_s"} {
		if _, ok := vars[k]; !ok {
			t.Errorf("metrics lack %q: %s", k, body)
		}
	}
}

// Streaming over HTTP: NDJSON lines arrive, end with a done event, and
// unknown ids 404.
func TestHTTPStreamAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	resp, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Preset: "sunlight"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}

	sresp, err := http.Get(ts.URL + "/v1/jobs/" + js.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	var last streamEvent
	lines := 0
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON: %v", err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < 3 {
		t.Errorf("stream had %d lines, want start+samples+done", lines)
	}
	if last.Type != "done" || last.Status != StatusDone {
		t.Errorf("last event = %+v, want done/done", last)
	}

	if resp, _ := getBody(t, ts.URL+"/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/jobs/nope/stream"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id stream = %d, want 404", resp.StatusCode)
	}
	// A result query on the (already done) job works; cancelling it 409s.
	creq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/"+js.ID+"/cancel", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusConflict {
		t.Errorf("cancel of done job = %d, want 409", cresp.StatusCode)
	}
	// Malformed submissions 400.
	resp, _ = postJSON(t, ts.URL+"/v1/jobs", map[string]any{"kind": "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus kind = %d, want 400", resp.StatusCode)
	}
}

// Cancel over HTTP: DELETE aborts a running job.
func TestHTTPCancelRunning(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Scenario: longScenarioJSON(t)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	// Wait for it to run.
	deadline := time.Now().Add(10 * time.Second)
	for js.Status == StatusQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
		_, body = getBody(t, ts.URL+"/v1/jobs/"+js.ID)
		if err := json.Unmarshal(body, &js); err != nil {
			t.Fatal(err)
		}
	}
	dreq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+js.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d", dresp.StatusCode)
	}
	deadline = time.Now().Add(5 * time.Second)
	for !js.Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("cancellation did not land")
		}
		time.Sleep(2 * time.Millisecond)
		_, body = getBody(t, ts.URL+"/v1/jobs/"+js.ID)
		if err := json.Unmarshal(body, &js); err != nil {
			t.Fatal(err)
		}
	}
	if js.Status != StatusCancelled {
		t.Errorf("job ended %s, want cancelled", js.Status)
	}
}

// The jobs listing reflects submission order.
func TestHTTPListJobs(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Scenario: tinyScenarioJSON(t, fmt.Sprintf("list-%d", i))})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := getBody(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list = %d", resp.StatusCode)
	}
	var list []JobStatus
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Errorf("listing out of submission order: %s then %s", list[i-1].ID, list[i].ID)
		}
	}
}

// An oversized submit body is refused with 413 in the JSON error shape
// before admission: no job, no journal record.
func TestHTTPSubmitTooLarge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	_, ts := newTestServer(t, Options{Workers: 1, JournalPath: path})
	body := `{"preset":"sunlight","tenant":"` + strings.Repeat("a", maxRequestBytes) + `"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit = %d: %s", resp.StatusCode, raw)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("413 Content-Type = %q, want application/json", ct)
	}
	if err := json.Unmarshal(raw, &apiErr); err != nil || apiErr.Error == "" {
		t.Errorf("413 body %q is not the JSON error shape: %v", raw, err)
	}
	if _, list := getBody(t, ts.URL+"/v1/jobs"); strings.TrimSpace(string(list)) != "[]" {
		t.Errorf("oversized submit created a job: %s", list)
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(journal, []byte(`"submit"`)) {
		t.Errorf("oversized submit reached the journal:\n%s", journal)
	}
}
