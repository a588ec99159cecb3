package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"time"

	"teem/internal/buildinfo"
	"teem/internal/obs"
	"teem/internal/scenario"
	"teem/internal/service"
)

// runLoad is the teemd load generator: N concurrent clients submit the
// same preset request (or, with -unique, N distinct inline scenarios),
// poll their jobs to completion, fetch the rendered results and verify
// every one is byte-identical to the output the teemscenario CLI code
// path produces for the same work — the race-cleanliness and determinism
// demonstration for a live daemon. Exit status is non-zero on any
// mismatch or failed request.
func runLoad(args []string) {
	fs := flag.NewFlagSet("teemd load", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "http://127.0.0.1:8080", "base URL of the teemd under load")
		clients = fs.Int("clients", 64, "concurrent clients")
		reqs    = fs.Int("requests", 1, "requests per client")
		preset  = fs.String("preset", "sunlight", "preset scenario every client submits")
		govs    = fs.String("govs", "ondemand", "comma-separated governors")
		plat    = fs.String("platform", "", "catalog platform every client submits against (empty = the service default)")
		unique  = fs.Bool("unique", false, "give every client a distinct inline scenario (defeats the request cache)")
		soak    = fs.Bool("soak", false, "soak mode: submit continuously for -duration and assert the SLOs")
		dur     = fs.Duration("duration", 10*time.Second, "soak: how long to keep submitting")
		tenants = fs.Int("tenants", 4, "soak: spread clients across this many tenants")
		sloP99  = fs.Duration("slo-p99", 30*time.Second, "soak: p99 submit→done latency bound")
		stats   = fs.Bool("stats", false, "print the engine flight-recorder aggregate of the local verification runs")
		version = fs.Bool("version", false, "print version and exit")
	)
	_ = fs.Parse(args)
	if *version {
		fmt.Println(buildinfo.String("teemd"))
		return
	}
	if *soak {
		runSoak(*addr, *clients, *tenants, *dur, *sloP99)
		return
	}

	var governors []string
	for _, g := range strings.Split(*govs, ",") {
		if g = strings.TrimSpace(g); g != "" {
			governors = append(governors, g)
		}
	}

	// The expected bytes come from the same code path the teemscenario
	// CLI renders: a local serial grid run of the identical work. With
	// -stats those runs also feed the flight-recorder aggregate (the
	// daemon side keeps its own recorders; these are the load tool's).
	var statsMu sync.Mutex
	var statsAgg obs.RunStats
	expect := func(sc *scenario.Scenario) string {
		rc := scenario.Config{PlatformName: *plat}
		if *stats {
			rc.Clock = obs.Nanotime
			rc.OnCell = func(r *scenario.Result) {
				if r.Sim == nil {
					return
				}
				statsMu.Lock()
				statsAgg.Add(r.Sim.Stats)
				statsMu.Unlock()
			}
		}
		grid, err := scenario.RunGrid([]*scenario.Scenario{sc}, governors, rc, 1)
		if err != nil {
			log.Fatalf("computing expected output: %v", err)
		}
		return grid.Render()
	}
	presetSc := scenario.PresetByName(*preset)
	if presetSc == nil {
		log.Fatalf("unknown preset %q", *preset)
	}
	expected := expect(presetSc)

	results := make(chan outcome, *clients**reqs)
	for c := 0; c < *clients; c++ {
		go func(c int) {
			client := &http.Client{Timeout: 5 * time.Minute}
			for r := 0; r < *reqs; r++ {
				results <- oneRequest(client, *addr, c, *preset, *plat, governors, *unique, expect, expected)
			}
		}(c)
	}

	// SIGINT prints the summary for what has completed so far instead of
	// dying mid-run with nothing — a long campaign is still reportable.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	defer signal.Stop(sigc)

	var latencies []time.Duration
	ok, cachedN, failed := 0, 0, 0
	interrupted := false
	start := time.Now()
	total := *clients * *reqs
collect:
	for i := 0; i < total; i++ {
		var o outcome
		select {
		case o = <-results:
		case <-sigc:
			interrupted = true
			log.Printf("interrupted after %d of %d requests; printing the partial summary", i, total)
			break collect
		}
		if o.err != nil {
			failed++
			log.Printf("request failed: %v", o.err)
			continue
		}
		ok++
		if o.cached {
			cachedN++
		}
		latencies = append(latencies, o.latency)
	}
	wall := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		return latencies[int(p*float64(len(latencies)-1))]
	}
	fmt.Printf("teemd load: %d clients × %d requests against %s\n", *clients, *reqs, *addr)
	fmt.Printf("  ok %d, cached %d, failed %d, wall %s\n", ok, cachedN, failed, wall.Round(time.Millisecond))
	fmt.Printf("  latency p50 %s  p99 %s  max %s\n",
		pct(0.50).Round(time.Millisecond), pct(0.99).Round(time.Millisecond), pct(1.0).Round(time.Millisecond))
	if *stats {
		statsMu.Lock()
		fmt.Println("  flight recorder (local verification runs):")
		fmt.Print(indentLines(statsAgg.String()))
		statsMu.Unlock()
	}
	if interrupted {
		fmt.Printf("  interrupted: %d of %d requests completed\n", ok+failed, total)
		os.Exit(130)
	}
	if failed > 0 {
		log.Fatalf("%d request(s) failed or returned non-CLI-identical bytes", failed)
	}
	fmt.Println("  every result byte-identical to the CLI render ✔")
}

// indentLines prefixes every line with four spaces for the stats block.
func indentLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "    " + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// outcome is one load request's result: its submit→result latency,
// whether the request cache answered it, or why it failed.
type outcome struct {
	latency time.Duration
	cached  bool
	err     error
}

// oneRequest submits, polls to terminal, fetches the result and compares
// it against the CLI-equivalent bytes. A 429 counts as a failed request.
func oneRequest(client *http.Client, addr string, c int, preset, platform string, governors []string,
	unique bool, expect func(*scenario.Scenario) string, expected string) (o outcome) {
	req := service.JobRequest{Preset: preset, Governors: governors, Platform: platform}
	want := expected
	if unique {
		sc, err := scenario.New(fmt.Sprintf("load-%d", c)).
			ArriveDefault(0, "MVT").
			Horizon(5).
			Build()
		if err != nil {
			o.err = err
			return o
		}
		var b bytes.Buffer
		if err := sc.Save(&b); err != nil {
			o.err = err
			return o
		}
		req = service.JobRequest{Scenario: b.Bytes(), Governors: governors, Platform: platform}
		want = expect(sc)
	}

	raw, err := json.Marshal(req)
	if err != nil {
		o.err = err
		return o
	}
	start := time.Now()
	js, retryAfter, err := submitJob(client, addr, raw)
	switch {
	case err != nil:
		o.err = fmt.Errorf("submit: %w", err)
		return o
	case retryAfter > 0:
		o.err = fmt.Errorf("submit: HTTP %d (Retry-After %s)", http.StatusTooManyRequests, retryAfter)
		return o
	}
	o.cached = js.Cached
	if js, err = awaitJob(client, addr, js.ID, time.Time{}); err != nil {
		o.err = err
		return o
	}
	if js.Status != service.StatusDone {
		o.err = fmt.Errorf("job %s ended %s: %s", js.ID, js.Status, js.Error)
		return o
	}
	if err := checkResult(client, addr, js.ID, want); err != nil {
		o.err = fmt.Errorf("job %s: %w", js.ID, err)
		return o
	}
	o.latency = time.Since(start)
	return o
}
