package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"teem/internal/scenario"
	"teem/internal/service"
)

// runSoak is the SLO soak driver behind `make soak-gate`: N clients
// spread across T tenants submit distinct small scenarios continuously
// for the soak duration against a daemon that is typically running with
// fault injection (worker panics, journal write errors, slow cells).
// The gate asserts the robustness contract, not raw throughput:
//
//   - no transport or protocol errors — admission pressure must answer
//     429 with a Retry-After hint, which clients honour and retry;
//   - every accepted job reaches a terminal state, and that state is
//     done (injected panics are transient: retry must absorb them) or a
//     shed with an explicit "shed:" cause;
//   - every completed result is byte-identical to the local CLI-path
//     render of the same scenario;
//   - every completed job's telemetry stream replays to a terminal
//     "done" event — no dropped streams;
//   - p99 submit→done latency stays under -slo-p99;
//   - the daemon still answers healthz "ok" afterwards.
//
// Exit status is non-zero on any violation.
func runSoak(addr string, clients, tenants int, dur, sloP99 time.Duration) {
	if tenants < 1 {
		tenants = 1
	}
	var (
		mu       sync.Mutex
		jobs     []*soakJob
		errs     []string
		rejected int
		cacheHit int
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		errs = append(errs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 2 * time.Minute}
			rng := rand.New(rand.NewSource(int64(c)))
			tenant := fmt.Sprintf("tenant-%d", c%tenants)
			for seq := 0; time.Now().Before(deadline); seq++ {
				sc, err := scenario.New(fmt.Sprintf("soak-%d-%d", c, seq)).
					ArriveDefault(0, "MVT").
					Horizon(float64(2 + seq%3)).
					Build()
				if err != nil {
					fail("building scenario: %v", err)
					return
				}
				var scJSON bytes.Buffer
				if err := sc.Save(&scJSON); err != nil {
					fail("encoding scenario: %v", err)
					return
				}
				grid, err := scenario.RunGrid([]*scenario.Scenario{sc}, []string{"ondemand"}, scenario.Config{}, 1)
				if err != nil {
					fail("computing expected output: %v", err)
					return
				}
				req, _ := json.Marshal(service.JobRequest{
					Scenario:  scJSON.Bytes(),
					Governors: []string{"ondemand"},
					Tenant:    tenant,
					Priority:  rng.Intn(3),
				})

				start := time.Now()
				js, retryAfter, err := submitJob(client, addr, req)
				switch {
				case err != nil:
					fail("submit: %v", err)
					return
				case retryAfter > 0:
					// Admission control said come back later: honour it.
					mu.Lock()
					rejected++
					mu.Unlock()
					if retryAfter > time.Second {
						retryAfter = time.Second
					}
					time.Sleep(retryAfter)
					continue
				case js.Cached:
					mu.Lock()
					cacheHit++
					mu.Unlock()
					continue
				}
				a := &soakJob{id: js.ID, want: grid.Render(), start: start}
				mu.Lock()
				jobs = append(jobs, a)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	// Settlement: every accepted job must reach a terminal state.
	client := &http.Client{Timeout: 2 * time.Minute}
	settle := time.Now().Add(sloP99 + time.Minute)
	for _, a := range jobs {
		js, err := awaitJob(client, addr, a.id, settle)
		if err != nil {
			fail("job %s never settled: %v", a.id, err)
			continue
		}
		a.status, a.errMsg = js.Status, js.Error
		if js.FinishedAt != nil {
			a.latency = js.FinishedAt.Sub(a.start)
		}
		switch {
		case js.Status == service.StatusDone:
			if err := soakVerify(client, addr, a); err != nil {
				fail("job %s: %v", a.id, err)
			}
		case js.Status == service.StatusFailed && strings.HasPrefix(js.Error, "shed:"):
			// Load shedding is an SLO-visible but legitimate outcome.
		default:
			fail("job %s ended %s: %s", a.id, js.Status, js.Error)
		}
	}

	var latencies []time.Duration
	doneN, shedN := 0, 0
	for _, a := range jobs {
		switch {
		case a.status == service.StatusDone:
			doneN++
			latencies = append(latencies, a.latency)
		case strings.HasPrefix(a.errMsg, "shed:"):
			shedN++
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	var p99 time.Duration
	if len(latencies) > 0 {
		p99 = latencies[int(0.99*float64(len(latencies)-1))]
	}
	if doneN == 0 {
		fail("no job completed during the soak — nothing was exercised")
	}
	if p99 > sloP99 {
		fail("p99 latency %s exceeds the %s SLO", p99.Round(time.Millisecond), sloP99)
	}
	if hz := healthStatus(client, addr); hz != "ok" {
		fail("healthz after soak: %q (want ok)", hz)
	}
	mu.Lock()
	violations := append([]string(nil), errs...)
	mu.Unlock()

	fmt.Printf("teemd soak: %d clients / %d tenants for %s against %s\n", clients, tenants, dur, addr)
	fmt.Printf("  accepted %d (done %d, shed %d), cache hits %d, 429s honoured %d\n",
		len(jobs), doneN, shedN, cacheHit, rejected)
	fmt.Printf("  latency p99 %s (SLO %s)\n", p99.Round(time.Millisecond), sloP99)
	if len(violations) > 0 {
		for _, v := range violations {
			log.Printf("SLO violation: %s", v)
		}
		log.Fatalf("soak FAILED: %d violation(s)", len(violations))
	}
	fmt.Println("  soak SLOs held ✔")
}

// pollInterval is how often the load and soak clients poll a job's
// status while they wait for it to finish.
const pollInterval = 5 * time.Millisecond

// submitJob posts one job. A 429 returns its Retry-After as a positive
// duration instead of an error.
func submitJob(client *http.Client, addr string, body []byte) (service.JobStatus, time.Duration, error) {
	var js service.JobStatus
	resp, err := client.Post(addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return js, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return js, 0, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		after := time.Second
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			after = time.Duration(s) * time.Second
		}
		return js, after, nil
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return js, 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, raw)
	}
	return js, 0, json.Unmarshal(raw, &js)
}

// awaitJob polls a job until it is terminal or the deadline passes
// (a zero deadline waits as long as the job runs).
func awaitJob(client *http.Client, addr, id string, deadline time.Time) (service.JobStatus, error) {
	var js service.JobStatus
	for {
		resp, err := client.Get(addr + "/v1/jobs/" + id)
		if err != nil {
			return js, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return js, err
		}
		if err := json.Unmarshal(raw, &js); err != nil {
			return js, fmt.Errorf("HTTP %d: %s", resp.StatusCode, raw)
		}
		if js.Terminal() {
			return js, nil
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return js, fmt.Errorf("still %s at the settlement deadline", js.Status)
		}
		time.Sleep(pollInterval)
	}
}

// soakJob is one accepted soak submission and its observed outcome.
type soakJob struct {
	id      string
	want    string
	start   time.Time
	latency time.Duration
	status  service.Status
	errMsg  string
}

// soakVerify checks a done job end to end: CLI-identical result bytes
// and a telemetry stream that replays through to a "done" event.
func soakVerify(client *http.Client, addr string, a *soakJob) error {
	if err := checkResult(client, addr, a.id, a.want); err != nil {
		return err
	}
	sresp, err := client.Get(addr + "/v1/jobs/" + a.id + "/stream")
	if err != nil {
		return err
	}
	stream, err := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err != nil {
		return fmt.Errorf("stream dropped: %v", err)
	}
	if !strings.Contains(string(stream), `"type":"done"`) {
		return fmt.Errorf("stream replay has no terminal done event")
	}
	return nil
}

// checkResult fetches a done job's rendered result and requires it to
// be byte-identical to want, the CLI render of the same work.
func checkResult(client *http.Client, addr, id, want string) error {
	resp, err := client.Get(addr + "/v1/jobs/" + id + "/result")
	if err != nil {
		return err
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if string(text) != want {
		return fmt.Errorf("result differs from the CLI render (%d vs %d bytes)", len(text), len(want))
	}
	return nil
}

// healthStatus returns the daemon's reported health status.
func healthStatus(client *http.Client, addr string) string {
	resp, err := client.Get(addr + "/healthz")
	if err != nil {
		return err.Error()
	}
	defer resp.Body.Close()
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		return err.Error()
	}
	return hz.Status
}
