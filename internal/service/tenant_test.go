package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"teem/internal/experiments"
	"teem/internal/scenario"
	"teem/internal/thermal"
)

// longNamedScenarioJSON is longScenarioJSON with a caller-chosen name,
// so tests can hold several distinct long-running jobs at once.
func longNamedScenarioJSON(t *testing.T, name string) json.RawMessage {
	t.Helper()
	sc, err := scenario.New(name).
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

// A dry token bucket rejects with ErrQuotaExceeded wrapped in a
// RetryError carrying a positive backoff — and only for that tenant.
func TestQuotaRateLimitPerTenant(t *testing.T) {
	s := newTestService(t, Options{
		Workers: 2,
		Quotas:  &QuotaConfig{Default: TenantQuota{RatePerSec: 0.0001, Burst: 1}},
	})
	if _, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "q1"), Tenant: "alpha"}); err != nil {
		t.Fatalf("first submission (burst token): %v", err)
	}
	_, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "q2"), Tenant: "alpha"})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second submission: got %v, want ErrQuotaExceeded", err)
	}
	var re *RetryError
	if !errors.As(err, &re) || re.After <= 0 {
		t.Fatalf("quota rejection %v carries no positive Retry-After", err)
	}
	// An unrelated tenant is unaffected.
	if _, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "q3"), Tenant: "beta"}); err != nil {
		t.Fatalf("other tenant's submission: %v", err)
	}
	if got := s.metrics.quotaRejected.Value(); got != 1 {
		t.Errorf("quota_rejected = %d, want 1", got)
	}
	if got := s.metrics.tenant("alpha").vars()["quota_rejected"]; got != 1 {
		t.Errorf("tenant alpha quota_rejected = %d, want 1", got)
	}
	// A cache hit costs no token: repeating q1 succeeds from the cache
	// even though the bucket is dry.
	j, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "q1"), Tenant: "alpha"})
	if err != nil {
		t.Fatalf("cached resubmission consumed a token: %v", err)
	}
	waitTerminal(t, j, 30*time.Second)
}

// MaxActive caps one tenant's standing work without touching others.
func TestQuotaMaxActivePerTenant(t *testing.T) {
	s := newTestService(t, Options{
		Workers: 1,
		Quotas: &QuotaConfig{Tenants: map[string]TenantQuota{
			"noisy": {MaxActive: 1},
		}},
	})
	blocker, _, err := s.Submit(&JobRequest{Scenario: longNamedScenarioJSON(t, "hog"), Tenant: "noisy"})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, blocker)
	_, _, err = s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "over-cap"), Tenant: "noisy"})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-cap submission: got %v, want ErrQuotaExceeded", err)
	}
	if _, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "bystander"), Tenant: "calm"}); err != nil {
		t.Fatalf("uncapped tenant's submission: %v", err)
	}
	_ = s.Cancel(blocker.ID)
}

// The starvation guarantee: a tenant flooding the queue with
// low-priority work cannot block another tenant's higher-priority job —
// the full queue sheds the flooder's newest low-priority entry instead,
// while an equal-priority submission still gets the 429-style backoff.
func TestFloodingTenantCannotStarveHigherPriority(t *testing.T) {
	s := newTestService(t, Options{Workers: 1, QueueDepth: 2})

	blocker, _, err := s.Submit(&JobRequest{Scenario: longNamedScenarioJSON(t, "flood-0"), Tenant: "noisy"})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, blocker)
	flood := make([]*Job, 0, 2)
	for i := 1; i <= 2; i++ {
		j, _, err := s.Submit(&JobRequest{Scenario: longNamedScenarioJSON(t, fmt.Sprintf("flood-%d", i)), Tenant: "noisy"})
		if err != nil {
			t.Fatalf("filling the queue: %v", err)
		}
		flood = append(flood, j)
	}

	// Equal priority + full queue: back off, don't shed.
	_, _, err = s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "equal-pri"), Tenant: "victim"})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("equal-priority submission at a full queue: got %v, want ErrBusy", err)
	}
	var re *RetryError
	if !errors.As(err, &re) || re.After <= 0 {
		t.Fatalf("busy rejection %v carries no positive Retry-After", err)
	}

	// Higher priority: admitted by shedding the flooder's newest entry.
	vip, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "vip"), Tenant: "victim", Priority: 5})
	if err != nil {
		t.Fatalf("high-priority submission was starved: %v", err)
	}

	shedJS := waitTerminal(t, flood[1], 5*time.Second)
	if shedJS.Status != StatusFailed || !strings.HasPrefix(shedJS.Error, "shed:") {
		t.Fatalf("victim of shedding ended %s (%q), want failed with a shed: cause", shedJS.Status, shedJS.Error)
	}
	if got := s.Metrics().Shed(); got != 1 {
		t.Errorf("jobs_shed = %d, want 1", got)
	}
	if got := s.metrics.tenant("noisy").vars()["shed"]; got != 1 {
		t.Errorf("tenant noisy shed = %d, want 1", got)
	}

	// Free the worker: the vip job must run before the remaining queued
	// flood job (priority order) and complete.
	_ = s.Cancel(blocker.ID)
	if js := waitTerminal(t, vip, 30*time.Second); js.Status != StatusDone {
		t.Fatalf("vip job ended %s: %s", js.Status, js.Error)
	}
	if fs := flood[0].Snapshot(); fs.Terminal() && fs.Status == StatusDone {
		t.Error("flood job finished before the higher-priority vip job")
	}
	_ = s.Cancel(flood[0].ID)
}

// An injected worker panic is transient: the job retries with backoff
// and completes, the retry is counted and visible in the status and the
// telemetry stream.
func TestTransientPanicRetriesToSuccess(t *testing.T) {
	s := newTestService(t, Options{
		Workers: 1,
		Faults:  &FaultConfig{PanicEvery: 2},
		Retry:   RetryPolicy{BaseDelay: 5 * time.Millisecond},
	})
	// Execution #1: clean. Execution #2 (this job's first attempt):
	// panics, retries as execution #3, which is clean again.
	first, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "warmup")})
	if err != nil {
		t.Fatal(err)
	}
	if js := waitTerminal(t, first, 30*time.Second); js.Status != StatusDone {
		t.Fatalf("warmup ended %s: %s", js.Status, js.Error)
	}
	victim, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "panics-once")})
	if err != nil {
		t.Fatal(err)
	}
	js := waitTerminal(t, victim, 30*time.Second)
	if js.Status != StatusDone {
		t.Fatalf("panicking job ended %s: %s — transient failures must retry", js.Status, js.Error)
	}
	if js.Retries != 1 {
		t.Errorf("retries = %d, want 1", js.Retries)
	}
	if got := s.Metrics().Retried(); got != 1 {
		t.Errorf("jobs_retried = %d, want 1", got)
	}

	// The stream replay names the retry.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	sawRetry := false
	_ = victim.Stream(ctx, func(line []byte) error {
		var ev streamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("unparseable stream line %q: %v", line, err)
		}
		if ev.Type == "retry" {
			sawRetry = true
			if ev.Attempt != 1 || ev.DelayS <= 0 || !strings.Contains(ev.Error, "worker panic") {
				t.Errorf("retry event = %+v, want attempt 1, positive delay, panic cause", ev)
			}
		}
		return nil
	})
	if !sawRetry {
		t.Error("stream replay has no retry event")
	}
}

// A job that panics on every attempt exhausts its budget and fails with
// the panic cause — it does not retry forever.
func TestTransientRetryBudgetExhausted(t *testing.T) {
	s := newTestService(t, Options{
		Workers: 1,
		Faults:  &FaultConfig{PanicEvery: 1},
		Retry:   RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond},
	})
	j, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "always-panics")})
	if err != nil {
		t.Fatal(err)
	}
	js := waitTerminal(t, j, 30*time.Second)
	if js.Status != StatusFailed {
		t.Fatalf("job ended %s, want failed after the retry budget", js.Status)
	}
	if !strings.Contains(js.Error, "worker panic") {
		t.Errorf("error %q does not name the panic", js.Error)
	}
	if js.Retries != 1 {
		t.Errorf("retries = %d, want 1 (MaxAttempts 2)", js.Retries)
	}
}

// A deterministic failure never retries: re-running it would only
// reproduce the same error.
func TestDeterministicFailureDoesNotRetry(t *testing.T) {
	// A fig5 job on an environment whose thermal network lacks the
	// platform's GPU node fails inside execution — deterministically,
	// every attempt — so it must fail once, without burning the retry
	// budget.
	env, err := experiments.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	env.Net = thermal.Exynos5410Network()
	s := newTestService(t, Options{Env: env, Workers: 1, Retry: RetryPolicy{BaseDelay: time.Millisecond}})
	j, _, err := s.Submit(&JobRequest{Kind: KindFig5})
	if err != nil {
		t.Fatalf("submission rejected, want a run-time failure: %v", err)
	}
	js := waitTerminal(t, j, 30*time.Second)
	if js.Status != StatusFailed || !strings.Contains(js.Error, "MaliT628") {
		t.Fatalf("job ended %s (%q), want failed on the missing GPU node", js.Status, js.Error)
	}
	if js.Retries != 0 {
		t.Errorf("deterministic failure retried %d times", js.Retries)
	}
	if got := s.Metrics().Retried(); got != 0 {
		t.Errorf("jobs_retried = %d, want 0", got)
	}
}

// Cancel is idempotent: repeating it on a cancelled job is a no-op;
// cancelling a completed job reports ErrAlreadyDone consistently.
func TestCancelIdempotent(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	blocker, _, err := s.Submit(&JobRequest{Scenario: longNamedScenarioJSON(t, "cancel-blocker")})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, blocker)
	queued, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "cancel-queued")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Cancel(queued.ID); err != nil {
			t.Fatalf("cancel #%d of a queued job: %v", i+1, err)
		}
	}
	if err := s.Cancel(blocker.ID); err != nil {
		t.Fatalf("cancelling the running job: %v", err)
	}
	waitTerminal(t, blocker, 30*time.Second)
	if err := s.Cancel(blocker.ID); err != nil {
		t.Fatalf("re-cancelling the cancelled job: %v", err)
	}

	done, _, err := s.Submit(&JobRequest{Scenario: tinyScenarioJSON(t, "cancel-done")})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, done, 30*time.Second)
	if err := s.Cancel(done.ID); !errors.Is(err, ErrAlreadyDone) {
		t.Fatalf("cancelling a done job: got %v, want ErrAlreadyDone", err)
	}
	if err := s.Cancel(done.ID); !errors.Is(err, ErrAlreadyDone) {
		t.Fatalf("second cancel of a done job: got %v, want ErrAlreadyDone again", err)
	}
}

// The HTTP view of the same contracts: 429 + Retry-After on quota
// pressure with healthz staying ok, and consistent 200/404/409 for
// idempotent cancels over both POST and DELETE.
func TestHTTPQuotaAndCancelContracts(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Workers: 1,
		Quotas:  &QuotaConfig{Default: TenantQuota{RatePerSec: 0.0001, Burst: 1}},
	})

	resp, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Scenario: tinyScenarioJSON(t, "http-q1"), Tenant: "alpha"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var first JobStatus
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}

	resp, body = postJSON(t, ts.URL+"/v1/jobs", JobRequest{Scenario: tinyScenarioJSON(t, "http-q2"), Tenant: "alpha"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: HTTP %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response has no Retry-After header")
	}
	if !strings.Contains(string(body), "quota") {
		t.Errorf("429 body %q does not name the quota", body)
	}

	// Per-tenant pressure is not daemon ill-health.
	resp, body = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during quota pressure: HTTP %d: %s", resp.StatusCode, body)
	}
	var hz struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" {
		t.Errorf("healthz status %q during quota pressure, want ok", hz.Status)
	}
	if hz.Version == "" {
		t.Error("healthz reports no version")
	}

	j, err := s.Job(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j, 30*time.Second)

	// Cancel of a done job: 409, on POST and DELETE alike, repeatably.
	for _, do := range []func() (*http.Response, []byte){
		func() (*http.Response, []byte) { return postJSON(t, ts.URL+"/v1/jobs/"+first.ID+"/cancel", nil) },
		func() (*http.Response, []byte) { return httpDelete(t, ts.URL+"/v1/jobs/"+first.ID) },
		func() (*http.Response, []byte) { return postJSON(t, ts.URL+"/v1/jobs/"+first.ID+"/cancel", nil) },
	} {
		resp, body = do()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("cancel of a done job: HTTP %d, want 409: %s", resp.StatusCode, body)
		}
	}
	// Unknown job: 404 either way.
	resp, _ = postJSON(t, ts.URL+"/v1/jobs/j999/cancel", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel of unknown job: HTTP %d, want 404", resp.StatusCode)
	}
	resp, _ = httpDelete(t, ts.URL+"/v1/jobs/j999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE of unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

// Repeated cancels of a cancelled job answer 200 with the snapshot on
// POST and DELETE alike — the regression test for the idempotency
// satellite.
func TestHTTPCancelIdempotent(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	blocker, _, err := s.Submit(&JobRequest{Scenario: longNamedScenarioJSON(t, "http-cancel-blocker")})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, blocker)
	resp, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Scenario: tinyScenarioJSON(t, "http-cancel-queued")})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	for i, do := range []func() (*http.Response, []byte){
		func() (*http.Response, []byte) { return postJSON(t, ts.URL+"/v1/jobs/"+js.ID+"/cancel", nil) },
		func() (*http.Response, []byte) { return httpDelete(t, ts.URL+"/v1/jobs/"+js.ID) },
		func() (*http.Response, []byte) { return postJSON(t, ts.URL+"/v1/jobs/"+js.ID+"/cancel", nil) },
	} {
		resp, body = do()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel #%d: HTTP %d, want 200: %s", i+1, resp.StatusCode, body)
		}
		var got JobStatus
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Status != StatusCancelled {
			t.Fatalf("cancel #%d snapshot status %s, want cancelled", i+1, got.Status)
		}
	}
	_ = s.Cancel(blocker.ID)
}

func httpDelete(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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
