package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"teem/internal/obs"
	"teem/internal/service"
)

// pprofAddr waits for the daemon's "pprof listening on" log line and
// returns the advertised address.
func pprofAddr(t *testing.T, d *daemon) string {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case line, ok := <-d.logc:
			if !ok {
				t.Fatal("daemon log closed before the pprof line")
			}
			if rest, found := strings.CutPrefix(line, "teemd: pprof listening on "); found {
				return rest
			}
		case <-deadline:
			t.Fatal("teemd never reported its pprof address")
		}
	}
}

// TestObsGate is the make obs-gate acceptance test: boot a daemon with
// the profiling listener on, run a job, and verify the whole
// observability surface — JSON /metrics unchanged, Prometheus text
// exposition valid under content negotiation, lifecycle spans with the
// job's trace id on /trace and on the telemetry stream, and pprof
// answering on its own port.
func TestObsGate(t *testing.T) {
	d := startDaemon(t, "-pprof", "127.0.0.1:0")
	paddr := pprofAddr(t, d)

	code, body := d.post(t, "/v1/jobs", service.JobRequest{
		Preset:    "sunlight",
		Governors: []string{"ondemand"},
		Tenant:    "obs-gate",
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var js service.JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if js.TraceID == "" {
		t.Fatal("submit response carries no trace_id")
	}
	fin := d.waitTerminal(t, js.ID, 60*time.Second)
	if fin.Status != service.StatusDone {
		t.Fatalf("job ended %s: %s", fin.Status, fin.Error)
	}
	if fin.TraceID != js.TraceID {
		t.Errorf("status trace id %q differs from submit's %q", fin.TraceID, js.TraceID)
	}

	// JSON /metrics: default dialect, counters present.
	code, body = d.get(t, "/metrics")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"jobs_done"`)) {
		t.Fatalf("JSON metrics = %d: %s", code, body)
	}

	// Prometheus /metrics: negotiated by Accept, format-valid.
	req, err := http.NewRequest("GET", d.base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", obs.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.ContentType {
		t.Errorf("prom Content-Type = %q, want %q", got, obs.ContentType)
	}
	if err := obs.ValidateExposition(bytes.NewReader(prom)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, prom)
	}
	for _, want := range []string{
		"teemd_jobs_done_total",
		`teemd_tenant_submitted_total{tenant="obs-gate"}`,
		"teemd_job_run_seconds_bucket",
	} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// /trace: the job's lifecycle spans, by its trace id.
	code, body = d.get(t, "/trace")
	if code != http.StatusOK {
		t.Fatalf("trace = %d: %s", code, body)
	}
	phases := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var sp obs.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		if sp.Trace == js.TraceID {
			phases[sp.Phase] = true
		}
	}
	for _, want := range []string{"submit", "queue", "run", "done"} {
		if !phases[want] {
			t.Errorf("no %q span on /trace for trace %s (got %v)", want, js.TraceID, phases)
		}
	}

	// The telemetry stream stamps the same trace id on its events.
	code, body = d.get(t, "/v1/jobs/"+js.ID+"/stream")
	if code != http.StatusOK {
		t.Fatalf("stream = %d", code)
	}
	traced := false
	sc = bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type  string `json:"type"`
			Trace string `json:"trace"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "done" && ev.Trace == js.TraceID {
			traced = true
		}
	}
	if !traced {
		t.Error("stream done event does not carry the job's trace id")
	}

	// pprof answers on its dedicated listener, not the API port.
	presp, err := http.Get("http://" + paddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Errorf("pprof index = %d", presp.StatusCode)
	}
	if code, _ := d.get(t, "/debug/pprof/"); code == http.StatusOK {
		t.Error("pprof is exposed on the API port; it must stay on its own listener")
	}
}

// TestSlowHeadersTimeOut holds a connection open on each listener — the
// API and the pprof one — with an unfinished request header, and
// requires both servers to drop it once readHeaderTimeout passes.
func TestSlowHeadersTimeOut(t *testing.T) {
	d := startDaemon(t, "-pprof", "127.0.0.1:0")
	addrs := []string{strings.TrimPrefix(d.base, "http://"), pprofAddr(t, d)}
	errc := make(chan error, len(addrs))
	for _, addr := range addrs {
		go func() {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errc <- err
				return
			}
			defer conn.Close()
			if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n")); err != nil {
				errc <- err
				return
			}
			_ = conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 10*time.Second))
			if _, err := io.Copy(io.Discard, conn); err != nil {
				errc <- fmt.Errorf("%s: connection with an unfinished header still open: %v", addr, err)
				return
			}
			errc <- nil
		}()
	}
	for range addrs {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}
