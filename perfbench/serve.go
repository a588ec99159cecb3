package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"teem/internal/obs"
	"teem/internal/par"
	"teem/internal/platform"
	"teem/internal/scenario"
	"teem/internal/service"
	"teem/internal/workload"
)

// serve-mixed parameters. The offered rate is fixed, so a faster daemon
// sees the same load and shows it as lower latency, not more requests.
const (
	serveRate        = 100.0 // requests/s in the open loop (≈20% of the HTTP capacity of a 2-CPU host)
	serveHitShare    = 0.4   // share of repeats among requests
	repeatMinBack    = 40    // a repeat targets a fresh request at least this many fresh requests back…
	repeatWindow     = 200   // …and at most repeatMinBack+repeatWindow back, inside the 1024-job retention
	capacityShare    = 0.3   // share of the measured time spent in the closed-loop capacity phase
	capacityPerCPU   = 2     // jobs kept in flight per CPU during the capacity phase
	serveSetupProbes = 4     // extra cold daemon starts measured for setup_s
	freshTailLimitMs = 50    // open-loop validity: fresh p90 latency limit (≈3× a healthy p99)
	lagLimitMs       = 20    // open-loop validity: generator lateness limit (p99)
	backlogLimit     = 32    // open-loop validity: allowed growth of the daemon's queued gauge
	traceRing        = 4096  // the daemon's /trace span ring size
	// serveTailPct pins serve-mixed's tails at the ladder's choice for
	// its ~560 repeats and ~840 fresh requests.
	serveTailPct = 90
)

// freshSpec is one distinct single-cell scenario job.
type freshSpec struct {
	trace    *scenario.ArrivalTrace
	platform string
	governor string
	body     []byte
}

func (f *freshSpec) request(tenant string) ([]byte, error) {
	raw, err := json.Marshal(f.trace)
	if err != nil {
		return nil, err
	}
	return json.Marshal(service.JobRequest{Trace: raw, Governors: []string{f.governor}, Platform: f.platform, Tenant: tenant})
}

// serveReq is one scheduled open-loop request: fresh work, or a repeat
// of an earlier fresh request.
type serveReq struct {
	at    time.Duration // offset from the start of the open loop
	fresh bool
	fi    int // fresh spec index (fresh) or the repeated fresh spec (repeat)
}

// serveSchedule draws the open loop from the seed: Poisson arrivals at
// rate, serveHitShare of them repeats of a fresh request between
// repeatMinBack and repeatMinBack+repeatWindow fresh requests back, and
// every fresh request a distinct seeded arrival trace on a seeded
// catalog platform under a seeded governor.
func serveSchedule(seed int64, rate float64, dur time.Duration) ([]serveReq, []*freshSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	plats, govs := platform.Names(), scenario.GovernorNames()
	var reqs []serveReq
	var specs []*freshSpec
	for at := time.Duration(rng.ExpFloat64() / rate * float64(time.Second)); at < dur; at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second)) {
		if rng.Float64() < serveHitShare && len(specs) > repeatMinBack {
			back := repeatMinBack + rng.Intn(min(repeatWindow, len(specs)-repeatMinBack))
			reqs = append(reqs, serveReq{at: at, fi: len(specs) - back})
			continue
		}
		spec := &freshSpec{
			trace:    seededTrace(rng, fmt.Sprintf("s%d-f%d", seed, len(specs)), 1+rng.Intn(2), 2, float64(2+rng.Intn(4))),
			platform: plats[rng.Intn(len(plats))],
			governor: govs[rng.Intn(len(govs))],
		}
		body, err := spec.request("")
		if err != nil {
			return nil, nil, err
		}
		spec.body = body
		reqs = append(reqs, serveReq{at: at, fresh: true, fi: len(specs)})
		specs = append(specs, spec)
	}
	return reqs, specs, nil
}

// seededTrace draws an arrival log: n arrivals of catalog apps with
// gaps of up to maxGapS seconds and priorities 0–2, kept alive until
// horizonS (0 = until the work drains).
func seededTrace(rng *rand.Rand, name string, n int, maxGapS, horizonS float64) *scenario.ArrivalTrace {
	apps := workload.Apps()
	tr := &scenario.ArrivalTrace{Name: name, HorizonS: horizonS}
	at := 0.0
	for i := 0; i < n; i++ {
		tr.Records = append(tr.Records, scenario.TraceRecord{
			App:      apps[rng.Intn(len(apps))].Name,
			AtS:      at,
			Priority: rng.Intn(3),
		})
		at += float64(rng.Intn(int(maxGapS*10)+1)) / 10
	}
	return tr
}

// reqState is one request's life as the generator saw it.
type reqState struct {
	fresh, capacity bool
	fi              int
	body            []byte

	due, dispatched, picked, submitted time.Time
	noticed, picked2, resulted, done   time.Time

	jobID       string
	cached      bool
	result      [32]byte
	stream      [32]byte
	streamLines int
	streamBytes int
	err         error
}

// --- the daemon ---------------------------------------------------------------

// daemon is one teemd serve process under test.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	pid     string
	journal string
	exited  chan struct{}
	waitErr error
	bye     atomic.Bool
}

// startDaemon execs teemd with the journal on and default workers,
// queue and retention; its log goes to a side file.
func startDaemon(cfg config, name string) (*daemon, error) {
	journal := filepath.Join(cfg.runDir, name+".journal")
	_ = os.Remove(journal)
	logf, err := os.Create(filepath.Join(cfg.runDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.teemd, "serve", "-addr", "127.0.0.1:0", "-journal", journal)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, pid: fmt.Sprint(cmd.Process.Pid), journal: journal, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if a, ok := strings.CutPrefix(line, "teemd: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
			if strings.HasPrefix(line, "teemd: bye:") {
				d.bye.Store(true)
			}
		}
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("teemd exited before listening: %v", d.waitErr)
	case <-time.After(30 * time.Second):
		_ = d.kill()
		return nil, errors.New("teemd did not start listening within 30 s")
	}
}

// stop sends SIGTERM and checks the daemon drains and exits 0.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		_ = d.kill()
		return errors.New("teemd did not exit within 60 s of SIGTERM")
	}
	if d.waitErr != nil {
		return fmt.Errorf("teemd exited badly after SIGTERM: %v", d.waitErr)
	}
	if !d.bye.Load() {
		return errors.New("teemd exited without logging its drain summary")
	}
	return nil
}

func (d *daemon) kill() error {
	err := d.cmd.Process.Kill()
	<-d.exited
	return err
}

// warmUp waits for /healthz, then runs one preset job per catalog
// platform to completion: the daemon is then ready for timed work.
func (d *daemon) warmUp(client *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/healthz not ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var ids []string
	for _, p := range platform.Names() {
		body, _ := json.Marshal(service.JobRequest{Preset: "sunlight", Governors: []string{"ondemand"}, Platform: p, Tenant: "warmup"})
		js, err := postJob(client, d.base, body)
		if err != nil {
			return fmt.Errorf("warm-up on %s: %w", p, err)
		}
		ids = append(ids, js.ID)
	}
	for _, id := range ids {
		for {
			var js service.JobStatus
			if err := getJSON(client, d.base+"/v1/jobs/"+id, &js); err != nil {
				return err
			}
			if js.Terminal() {
				if js.Status != service.StatusDone {
					return fmt.Errorf("warm-up job %s ended %s: %s", id, js.Status, js.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("warm-up job %s did not finish", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// postJob submits a job; a cached answer (200) carries Cached.
func postJob(client *http.Client, base string, body []byte) (service.JobStatus, error) {
	var js service.JobStatus
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return js, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return js, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return js, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return js, json.Unmarshal(raw, &js)
}

func getBody(client *http.Client, url string, accept string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

func getJSON(client *http.Client, url string, v any) error {
	raw, err := getBody(client, url, "")
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// daemonCounters is a snapshot of the daemon's /metrics and /debug/vars
// counters and its CPU time.
type daemonCounters struct {
	queued, appends, compactions float64
	totalAlloc, numGC, pauseNs   float64
	cpu                          time.Duration
}

func (d *daemon) counters(client *http.Client) (daemonCounters, error) {
	var c daemonCounters
	var m map[string]any
	if err := getJSON(client, d.base+"/metrics", &m); err != nil {
		return c, err
	}
	num := func(k string) float64 { v, _ := m[k].(float64); return v }
	c.queued, c.appends, c.compactions = num("jobs_queued"), num("journal_appends"), num("journal_compactions")
	var vars struct {
		Memstats struct {
			TotalAlloc   float64
			NumGC        float64
			PauseTotalNs float64
		} `json:"memstats"`
	}
	if err := getJSON(client, d.base+"/debug/vars", &vars); err != nil {
		return c, err
	}
	c.totalAlloc, c.numGC, c.pauseNs = vars.Memstats.TotalAlloc, vars.Memstats.NumGC, vars.Memstats.PauseTotalNs
	cpu, err := procCPU(d.pid)
	c.cpu = cpu
	return c, err
}

// --- the generator ---------------------------------------------------------------

// follower reads the daemon's /trace?follow=1 stream on its own
// connection: it learns that jobs finished and keeps every span.
type follower struct {
	mu      sync.Mutex
	spans   []obs.Span
	seen    []time.Time            // receive time per span
	done    map[string]time.Time   // job id → time its terminal span arrived
	waiters map[string][]*reqState // requests waiting for a job to finish
	wake    func(*reqState)        // called, outside mu, for each woken waiter
	stopped chan struct{}
}

func startFollower(ctx context.Context, base string, wake func(*reqState)) (*follower, error) {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/trace?follow=1", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("/trace: HTTP %d", resp.StatusCode)
	}
	f := &follower{done: map[string]time.Time{}, waiters: map[string][]*reqState{}, wake: wake, stopped: make(chan struct{})}
	go func() {
		defer close(f.stopped)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			now := time.Now()
			var sp obs.Span
			if json.Unmarshal(sc.Bytes(), &sp) != nil {
				continue
			}
			var woken []*reqState
			f.mu.Lock()
			f.spans = append(f.spans, sp)
			f.seen = append(f.seen, now)
			switch sp.Phase {
			case "done", "failed", "cancelled":
				f.done[sp.Job] = now
				woken = f.waiters[sp.Job]
				delete(f.waiters, sp.Job)
				for _, st := range woken {
					st.noticed = now
				}
			}
			f.mu.Unlock()
			for _, st := range woken {
				f.wake(st)
			}
		}
	}()
	return f, nil
}

// await arranges for st to be woken once job id has finished (at once
// when its terminal span already arrived).
func (f *follower) await(id string, st *reqState) {
	f.mu.Lock()
	if at, ok := f.done[id]; ok {
		st.noticed = at
		f.mu.Unlock()
		f.wake(st)
		return
	}
	f.waiters[id] = append(f.waiters[id], st)
	f.mu.Unlock()
}

func (f *follower) snapshot() ([]obs.Span, []time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]obs.Span(nil), f.spans...), append([]time.Time(nil), f.seen...)
}

// task is a unit of client work: submit a request, or fetch the result
// of one whose job finished.
type task struct {
	st    *reqState
	fetch bool
}

// generator drives the daemon over a fixed number of connections.
type generator struct {
	base   string
	client *http.Client
	fol    *follower
	tasks  chan task

	mu       sync.Mutex
	pending  int
	capEnd   time.Time
	capSpecs []*freshSpec
	capNext  int
	capReqs  []*reqState
}

// worker serves tasks until the channel closes.
func (g *generator) worker() {
	for t := range g.tasks {
		st := t.st
		if !t.fetch {
			st.picked = time.Now()
			js, err := postJob(g.client, g.base, st.body)
			st.submitted = time.Now()
			if err != nil {
				g.finish(st, err)
				continue
			}
			st.jobID, st.cached = js.ID, js.Cached
			if !js.Terminal() {
				g.fol.await(js.ID, st)
				continue
			}
			st.noticed = st.submitted
		}
		st.picked2 = time.Now()
		res, err := getBody(g.client, g.base+"/v1/jobs/"+st.jobID+"/result", "")
		st.resulted = time.Now()
		if err != nil {
			g.finish(st, err)
			continue
		}
		st.result = sha256.Sum256(res)
		if !st.fresh && !st.capacity {
			stream, err := getBody(g.client, g.base+"/v1/jobs/"+st.jobID+"/stream", "")
			if err != nil {
				g.finish(st, err)
				continue
			}
			st.stream = sha256.Sum256(stream)
			st.streamLines, st.streamBytes = bytes.Count(stream, []byte{'\n'}), len(stream)
			if err := checkStream(stream); err != nil {
				g.finish(st, err)
				continue
			}
		}
		g.finish(st, nil)
	}
}

// checkStream validates a finished job's telemetry replay: a start
// event first and a successful done event last.
func checkStream(raw []byte) error {
	lines := bytes.Split(bytes.TrimSpace(raw), []byte{'\n'})
	var first, last struct {
		Type   string `json:"type"`
		Status string `json:"status"`
	}
	if len(lines) < 2 || json.Unmarshal(lines[0], &first) != nil || json.Unmarshal(lines[len(lines)-1], &last) != nil {
		return errors.New("stream replay: malformed")
	}
	if first.Type != "start" || last.Type != "done" || last.Status != string(service.StatusDone) {
		return fmt.Errorf("stream replay: starts %q, ends %q/%q", first.Type, last.Type, last.Status)
	}
	return nil
}

// finish completes a request; in the capacity phase it also sends the
// next one, keeping the in-flight count fixed.
func (g *generator) finish(st *reqState, err error) {
	st.done, st.err = time.Now(), err
	if err != nil {
		log.Printf("request (fresh=%v capacity=%v job=%s): %v", st.fresh, st.capacity, st.jobID, err)
	}
	g.mu.Lock()
	g.pending--
	next := st.capacity && st.done.Before(g.capEnd)
	g.mu.Unlock()
	if next {
		g.sendCapacity()
	}
}

// wake queues the result fetch of a request whose job finished.
func (g *generator) wake(st *reqState) { g.tasks <- task{st: st, fetch: true} }

// send queues a request, counting it pending.
func (g *generator) send(st *reqState) {
	st.dispatched = time.Now()
	g.mu.Lock()
	g.pending++
	g.mu.Unlock()
	g.tasks <- task{st: st}
}

// sendCapacity sends the next capacity-phase request: fresh work made
// by replaying the open loop's fresh specs under a new tenant per lap,
// so nothing is answered from the request cache.
func (g *generator) sendCapacity() {
	g.mu.Lock()
	i := g.capNext
	g.capNext++
	g.mu.Unlock()
	spec := g.capSpecs[i%len(g.capSpecs)]
	body, err := spec.request(fmt.Sprintf("capacity-%d", i/len(g.capSpecs)))
	st := &reqState{capacity: true, fresh: true, fi: i % len(g.capSpecs), body: body}
	st.due = time.Now()
	g.mu.Lock()
	g.capReqs = append(g.capReqs, st)
	g.mu.Unlock()
	if err != nil {
		g.mu.Lock()
		g.pending++
		g.mu.Unlock()
		g.finish(st, err)
		return
	}
	g.send(st)
}

// waitIdle waits until no request is pending, or the timeout passes.
func (g *generator) waitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		g.mu.Lock()
		p := g.pending
		g.mu.Unlock()
		if p == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// serveOutcome is everything one serve session measured.
type serveOutcome struct {
	setups        []float64
	reqs          []*reqState
	capReqs       []*reqState
	specs         []*freshSpec
	capWindow     time.Duration
	capDone       int
	before, after daemonCounters
	rssMB         float64
	spans         []obs.Span
	spansSeen     []time.Time
	scrapes       []float64
	loopStart     time.Time
	loopDur       time.Duration
	conns         int
	genThreads    int64
	daemonThreads int64
	journalBytes  int64
	journalJobs   int
	stopErr       error
}

// serveSession runs one daemon through set-up, the open loop and the
// capacity phase. With scrape set it also times /metrics scrapes every
// half second during the second half of the open loop.
//
// hs samples the host-speed reference only while the daemon is idle:
// before each daemon start, and around the measured phases. A nil hs
// takes no samples.
func serveSession(cfg config, dur time.Duration, setupProbes int, scrape bool, hs *hostSpeed) (*serveOutcome, error) {
	out := &serveOutcome{}
	capDur := time.Duration(float64(dur) * capacityShare)
	openDur := dur - capDur
	sched, specs, err := serveSchedule(cfg.seed, serveRate, openDur)
	if err != nil {
		return nil, err
	}
	out.specs = specs
	nproc := runtime.NumCPU()
	out.conns = max(1, nproc-1)
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: out.conns, MaxIdleConnsPerHost: out.conns, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	defer client.CloseIdleConnections()

	// Set-up: cold daemon starts, each from exec to a warmed daemon.
	var d *daemon
	for i := 0; i <= setupProbes; i++ {
		hs.sample(1)
		t0 := time.Now()
		dd, err := startDaemon(cfg, fmt.Sprintf("teemd-%d", i))
		if err != nil {
			return nil, err
		}
		if err := dd.warmUp(client); err != nil {
			_ = dd.kill()
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
		client.CloseIdleConnections()
		if i < setupProbes {
			if err := dd.stop(); err != nil {
				return nil, err
			}
			continue
		}
		d = dd
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.kill()
		}
	}()

	g := &generator{base: d.base, client: client, capSpecs: specs}
	// Every request yields at most two tasks; capacity requests are
	// bounded by the pool's throughput, so size for both.
	g.tasks = make(chan task, 2*len(sched)+1<<16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fol, err := startFollower(ctx, d.base, g.wake)
	if err != nil {
		return nil, err
	}
	g.fol = fol
	var wg sync.WaitGroup
	for i := 0; i < out.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.worker()
		}()
	}

	hs.sample(5)
	if out.before, err = d.counters(client); err != nil {
		return nil, err
	}

	// The open loop: each request is sent at its scheduled time whatever
	// the state of earlier ones; latency counts from that time.
	var scrapeWG sync.WaitGroup
	scrapeStop := make(chan struct{})
	start := time.Now()
	out.loopStart, out.loopDur = start, openDur
	if scrape {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			select {
			case <-time.After(openDur / 2):
			case <-scrapeStop:
				return
			}
			tick := time.NewTicker(500 * time.Millisecond)
			defer tick.Stop()
			for {
				t0 := time.Now()
				if _, err := getBody(client, d.base+"/metrics", "text/plain"); err == nil {
					out.scrapes = append(out.scrapes, ms(time.Since(t0)))
				}
				select {
				case <-tick.C:
				case <-scrapeStop:
					return
				}
			}
		}()
	}
	for i := range sched {
		r := &sched[i]
		due := start.Add(r.at)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		st := &reqState{fresh: r.fresh, fi: r.fi, body: specs[r.fi].body, due: due}
		out.reqs = append(out.reqs, st)
		g.send(st)
	}
	close(scrapeStop)
	scrapeWG.Wait()
	if out.after, err = d.counters(client); err != nil {
		return nil, err
	}
	if !g.waitIdle(60 * time.Second) {
		return nil, errors.New("open-loop requests still pending 60 s after the last send")
	}

	// The capacity phase: a closed loop keeping capacityPerCPU jobs per
	// CPU in flight; completions inside the window count.
	inflight := capacityPerCPU * nproc
	capStart := time.Now()
	g.mu.Lock()
	g.capEnd = capStart.Add(capDur)
	g.mu.Unlock()
	for i := 0; i < inflight; i++ {
		g.sendCapacity()
	}
	time.Sleep(capDur)
	if !g.waitIdle(60 * time.Second) {
		return nil, errors.New("capacity-phase requests still pending 60 s after the phase")
	}
	g.mu.Lock()
	out.capReqs = g.capReqs
	g.mu.Unlock()
	// Capacity is completions over the time they took: from the phase's
	// start to the last completion inside the window.
	for _, st := range out.capReqs {
		if st.err == nil && st.done.Before(capStart.Add(capDur)) {
			out.capDone++
			out.capWindow = max(out.capWindow, st.done.Sub(capStart))
		}
	}

	hs.sample(5)
	if out.rssMB, err = peakRSSMB(d.pid); err != nil {
		return nil, err
	}
	out.daemonThreads, _ = procStatus(d.pid, "Threads")
	out.genThreads, _ = procStatus("self", "Threads")
	out.journalBytes, out.journalJobs = journalSize(d.journal)

	cancel()
	<-fol.stopped
	close(g.tasks)
	wg.Wait()
	out.spans, out.spansSeen = fol.snapshot()
	stopped = true
	out.stopErr = d.stop()
	return out, nil
}

// journalSize reads the daemon's journal from outside: its size and the
// number of distinct jobs it records.
func journalSize(path string) (int64, int) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0
	}
	ids := map[string]bool{}
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		var rec struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(line, &rec) == nil && rec.ID != "" {
			ids[rec.ID] = true
		}
	}
	return int64(len(raw)), len(ids)
}

// expected renders each fresh spec in process — the scenario.RunGrid
// render teemscenario prints for the same request — on one worker per
// CPU, with the engine's phase timers on. It returns the renders and
// each one's engine time.
func expected(specs []*freshSpec, eng *engineAgg) ([]string, []time.Duration, error) {
	texts := make([]string, len(specs))
	walls := make([]time.Duration, len(specs))
	err := par.ForEach(0, len(specs), func(i int) error {
		sc, err := scenario.FromTrace(specs[i].trace)
		if err != nil {
			return err
		}
		var stats *obs.RunStats
		rc := scenario.Config{PlatformName: specs[i].platform, Clock: obs.Nanotime}
		rc.OnCell = func(r *scenario.Result) {
			if r.Sim != nil {
				stats = &r.Sim.Stats
			}
		}
		t0 := time.Now()
		g, err := scenario.RunGrid([]*scenario.Scenario{sc}, []string{specs[i].governor}, rc, 1)
		walls[i] = time.Since(t0)
		if err != nil {
			return err
		}
		if stats != nil {
			eng.add(*stats, walls[i], true)
		}
		texts[i] = g.Render()
		return nil
	})
	return texts, walls, err
}

// specAllocs measures the heap allocations of serving specs' engine
// runs, serially so nothing else allocates.
func specAllocs(specs []*freshSpec, eng *engineAgg) error {
	for _, sp := range specs {
		sc, err := scenario.FromTrace(sp.trace)
		if err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := scenario.Run(sc, scenario.Config{PlatformName: sp.platform, Governor: sp.governor}); err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		eng.addAllocs(m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc)
	}
	return nil
}

// verifyServe checks every served byte: fresh and capacity results
// against the in-process render, repeats against the first bytes served
// for their request, and stream replays of one job against each other.
func verifyServe(rep *report, o *serveOutcome, texts []string) {
	want := make([][32]byte, len(texts))
	var all strings.Builder
	for i, t := range texts {
		want[i] = sha256.Sum256([]byte(t))
		all.WriteString(t)
	}
	rep.digest = digest(all.String())
	first := map[int][32]byte{}
	// A stream names its job, so replays compare per job id: a repeat
	// whose request was evicted from retention re-runs as a new job.
	streams := map[string][32]byte{}
	check := func(st *reqState) {
		rep.attempted++
		if st.err != nil {
			rep.failed++
			return
		}
		switch {
		case st.fresh:
			if st.result != want[st.fi] {
				rep.mismatch("fresh job %s (spec %d) differs from the in-process render", st.jobID, st.fi)
			}
			if !st.capacity {
				first[st.fi] = st.result
			}
		default:
			if st.result != want[st.fi] {
				rep.mismatch("repeat of spec %d (job %s) differs from the first bytes served", st.fi, st.jobID)
			}
			if s, ok := streams[st.jobID]; ok && s != st.stream {
				rep.mismatch("stream replay of job %s differs from an earlier replay", st.jobID)
			}
			streams[st.jobID] = st.stream
		}
	}
	for _, st := range o.reqs {
		check(st)
	}
	for _, st := range o.reqs {
		if !st.fresh && st.err == nil {
			if f, ok := first[st.fi]; ok && f != st.result {
				rep.mismatch("repeat of spec %d differs from the first bytes served for it", st.fi)
			}
		}
	}
	for _, st := range o.capReqs {
		check(st)
	}
	if o.stopErr != nil {
		rep.failed++
		rep.mismatch("daemon shutdown: %v", o.stopErr)
	}
}

// serveLatencies splits open-loop latencies (scheduled send → verified
// bytes) into fresh and repeat classes.
func serveLatencies(o *serveOutcome) (fresh, hit []float64) {
	for _, st := range o.reqs {
		if st.err != nil {
			continue
		}
		if st.fresh {
			fresh = append(fresh, ms(st.done.Sub(st.due)))
		} else {
			hit = append(hit, ms(st.done.Sub(st.due)))
		}
	}
	return fresh, hit
}

// runServe is the serve-mixed workload.
func runServe(cfg config) (*report, error) {
	rep := &report{}
	probes := serveSetupProbes
	if cfg.trace {
		probes = 0
	}
	hs, err := newHostSpeed(1)
	if err != nil {
		return nil, err
	}
	o, err := serveSession(cfg, cfg.dur, probes, cfg.trace, hs)
	if err != nil {
		return nil, err
	}
	eng := &engineAgg{}
	texts, walls, err := expected(o.specs, eng)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := specAllocs(o.specs[:min(len(o.specs), 10)], eng); err != nil {
			return nil, err
		}
	}
	verifyServe(rep, o, texts)
	fresh, hit := serveLatencies(o)
	nFresh, nHit := 0, 0
	for _, st := range o.reqs {
		if st.fresh {
			nFresh++
		} else {
			nHit++
		}
	}
	rep.linef("open loop: %d requests over %.1f s at %.0f/s offered (%d fresh, %d repeats), %d connections + 1 follower, generator threads %d, daemon threads %d",
		len(o.reqs), o.loopDur.Seconds(), serveRate, nFresh, nHit, o.conns, o.genThreads, o.daemonThreads)
	validity(rep, o, fresh)
	if cfg.trace {
		ls := newLayerSet()
		serveLayers(ls, rep, o, walls, eng, cfg)
		return rep, finishLayers(cfg, ls, rep, "serve-mixed")
	}
	if len(fresh) == 0 || len(hit) == 0 {
		return nil, errors.New("no fresh or no repeat request completed")
	}
	rep.linef("%s", hs.line())
	s := newDist(o.setups)
	hs.addTime(rep, "setup_s", "s", s.median(), fmt.Sprintf("median of %d daemon starts (exec → warmed)", len(s)))
	f := newDist(fresh)
	hs.addTime(rep, "op_p50_ms", "ms", f.median(), fmt.Sprintf("fresh request, n=%d", len(f)))
	v, note := f.tailAt(serveTailPct)
	hs.addTime(rep, "op_tail_ms", "ms", v, "fresh request, "+note)
	h := newDist(hit)
	hs.addTime(rep, "read_p50_ms", "ms", h.median(), fmt.Sprintf("repeat request + stream replay, n=%d", len(h)))
	v, note = h.tailAt(serveTailPct)
	hs.addTime(rep, "read_tail_ms", "ms", v, "repeat request + stream replay, "+note)
	hs.addRate(rep, "capacity_per_s", "1/s", float64(o.capDone)/o.capWindow.Seconds(),
		fmt.Sprintf("fresh jobs done in %.1f s with %d in flight", o.capWindow.Seconds(), capacityPerCPU*runtime.NumCPU()))
	served := float64(len(fresh) + len(hit))
	rep.add("alloc_mb_per_op", "MB", (o.after.totalAlloc-o.before.totalAlloc)/served/(1<<20), "daemon heap allocated per open-loop request")
	rep.add("rss_peak_mb", "MB", o.rssMB, "VmHWM of teemd")
	return rep, nil
}

// validity reports the open loop invalid — not merely slow — when the
// generator fell behind its schedule, the daemon's backlog grew, or the
// fresh tail latency broke its limit.
func validity(rep *report, o *serveOutcome, fresh []float64) {
	l, w := genDelays(o)
	rep.linef("validity: generator lag p99 %.3f ms (limit %d), connection wait p99 %.3f ms, daemon queued %g at start / %g at end (limit +%d)",
		l.rank(99), lagLimitMs, w.rank(99), o.before.queued, o.after.queued, backlogLimit)
	if l.rank(99) > lagLimitMs {
		rep.invalid = append(rep.invalid, fmt.Sprintf("generator fell behind: lag p99 %.1f ms > %d ms", l.rank(99), lagLimitMs))
	}
	if o.after.queued-o.before.queued > backlogLimit {
		rep.invalid = append(rep.invalid, fmt.Sprintf("backlog grew: queued %g → %g", o.before.queued, o.after.queued))
	}
	if len(fresh) > 0 {
		if v, note := newDist(fresh).tailAt(serveTailPct); v > freshTailLimitMs {
			rep.invalid = append(rep.invalid, fmt.Sprintf("fresh tail %.1f ms (%s) over the %d ms limit", v, note, freshTailLimitMs))
		}
	}
}

// genDelays are the open loop's generator lateness (scheduled →
// dispatched) and connection waits (dispatched → picked up), in ms.
func genDelays(o *serveOutcome) (lag, wait dist) {
	var l, w []float64
	for _, st := range o.reqs {
		l = append(l, ms(st.dispatched.Sub(st.due)))
		if !st.picked.IsZero() {
			w = append(w, ms(st.picked.Sub(st.dispatched)))
		}
	}
	return newDist(l), newDist(w)
}

// serveLayers derives the serving-path metrics: client spans built from
// each request's timestamps, joined on job id with the daemon's /trace
// lifecycle spans, plus counter deltas from /metrics and /debug/vars.
func serveLayers(ls *layerSet, rep *report, o *serveOutcome, walls []time.Duration, eng *engineAgg, cfg config) {
	rec := newRecorder()
	want := map[string]bool{}
	for _, st := range o.reqs {
		want[st.jobID] = true
	}
	jobs := joinJobSpans(o.spans, want)
	var subFresh, subHit, result, replay, qwait, run, commit, notice, share, lines, kb, spansPer []float64
	hits, cached := 0, 0
	half := o.loopStart.Add(o.loopDur / 2)
	var early, late []float64
	for i, st := range o.reqs {
		if st.err != nil {
			continue
		}
		if lat := ms(st.done.Sub(st.due)); st.fresh && st.due.Before(half) {
			early = append(early, lat)
		} else if st.fresh {
			late = append(late, lat)
		}
		root := rec.add("job", 0, i+1, st.due, st.done)
		rec.add("gen.lag", root, i+1, st.due, st.dispatched)
		rec.add("gen.conn_wait", root, i+1, st.dispatched, st.picked)
		rec.add("http.submit", root, i+1, st.picked, st.submitted)
		if st.picked2.After(st.submitted) {
			wait := rec.add("service.wait", root, i+1, st.submitted, st.picked2)
			// The wait's children are clipped to it: the part of a job's
			// queueing or running that overlapped the submit call is the
			// submit's time on the client's path.
			in := func(name string, a, b time.Time) {
				a, b = clampTime(a, st.submitted, st.picked2), clampTime(b, st.submitted, st.picked2)
				if b.After(a) {
					rec.add(name, wait, i+1, a, b)
				}
			}
			if jt := jobs[st.jobID]; jt != nil && st.fresh && !jt.terminal.IsZero() {
				in("service.queue", jt.queue, jt.run)
				in("service.run", jt.run, jt.terminal)
				in("service.notice", jt.terminal, st.noticed)
			}
			in("gen.conn_wait", st.noticed, st.picked2)
		}
		rec.add("http.result", root, i+1, st.picked2, st.resulted)
		result = append(result, ms(st.resulted.Sub(st.picked2)))
		if st.fresh {
			subFresh = append(subFresh, ms(st.submitted.Sub(st.picked)))
			if jt := jobs[st.jobID]; jt != nil && !jt.terminal.IsZero() {
				qwait = append(qwait, ms(jt.run.Sub(jt.queue)))
				r := jt.terminal.Sub(jt.run)
				run = append(run, ms(r))
				if !jt.journal.IsZero() {
					commit = append(commit, ms(jt.journal.Sub(jt.queue)))
				}
				notice = append(notice, ms(st.noticed.Sub(jt.terminal)))
				spansPer = append(spansPer, float64(jt.spans))
				if r > 0 {
					share = append(share, ratio(float64(walls[st.fi]), float64(r)))
				}
			}
			continue
		}
		hits++
		if st.cached {
			cached++
		}
		rec.add("http.stream_replay", root, i+1, st.resulted, st.done)
		subHit = append(subHit, ms(st.submitted.Sub(st.picked)))
		replay = append(replay, ms(st.done.Sub(st.resulted)))
		lines = append(lines, float64(st.streamLines))
		kb = append(kb, float64(st.streamBytes)/1024)
	}
	med := func(name, unit string, xs []float64, what string) {
		if len(xs) > 0 {
			ls.set(name, unit, newDist(xs).median(), fmt.Sprintf("median of %d %s", len(xs), what))
		}
	}
	med("http.submit_fresh_ms", "ms", subFresh, "fresh submits")
	med("http.submit_hit_ms", "ms", subHit, "repeat submits")
	med("http.result_ms", "ms", result, "result fetches")
	med("http.stream_replay_ms", "ms", replay, "stream replays")
	med("service.journal_commit_ms", "ms", commit, "jobs (queue → journal-commit span)")
	med("service.run_ms", "ms", run, "jobs (run → done span)")
	med("service.sim_share", "ratio", share, "jobs (in-process RunGrid time / service.run_ms)")
	med("service.stream_lines_per_job", "count", lines, "replays")
	med("service.stream_kb_per_job", "KB", kb, "replays")
	med("service.spans_per_job", "count", spansPer, "jobs")
	med("service.notice_ms", "ms", notice, "jobs (done span → follower)")
	med("obs.metrics_scrape_ms", "ms", o.scrapes, "Prometheus scrapes")
	if len(qwait) > 0 {
		q := newDist(qwait)
		ls.set("service.queue_wait_p50_ms", "ms", q.median(), fmt.Sprintf("%d jobs (queue → run span)", len(q)))
		ls.set("service.queue_wait_p99_ms", "ms", q.rank(99), fmt.Sprintf("%d jobs (queue → run span)", len(q)))
	}
	ls.set("service.cache_hit_ratio", "ratio", ratio(float64(cached), float64(hits)), fmt.Sprintf("%d of %d repeats answered cached", cached, hits))
	nf := float64(len(subFresh))
	b, a := o.before, o.after
	ls.set("journal.appends_per_job", "count", ratio(a.appends-b.appends, nf), "fsynced journal batches per fresh job")
	ls.set("journal.kb_per_job", "KB", ratio(float64(o.journalBytes)/1024, float64(o.journalJobs)),
		fmt.Sprintf("journal file at the end: %d bytes over %d jobs", o.journalBytes, o.journalJobs))
	ls.set("journal.compactions", "count", a.compactions-b.compactions, "during the open loop")
	ls.set("teemd.cpu_ms_per_job", "ms", ratio(ms(a.cpu-b.cpu), nf), "daemon CPU per fresh job in the open loop")
	ls.set("teemd.gc_cycles", "count", a.numGC-b.numGC, "during the open loop")
	ls.set("teemd.gc_pause_ms", "ms", (a.pauseNs-b.pauseNs)/1e6, "during the open loop")
	full, total := 0, 0
	for i, at := range o.spansSeen {
		if at.Before(o.loopStart) || at.After(o.loopStart.Add(o.loopDur)) {
			continue
		}
		total++
		if i >= traceRing {
			full++
		}
	}
	ls.set("service.trace_ring_full", "ratio", ratio(float64(full), float64(total)),
		fmt.Sprintf("%d of %d open-loop spans emitted into a full %d-span ring", full, total, traceRing))
	lag, wait := genDelays(o)
	ls.set("gen.lag_ms", "ms", lag.rank(99), fmt.Sprintf("p99 of %d sends", len(lag)))
	ls.set("gen.conn_wait_ms", "ms", wait.rank(99), fmt.Sprintf("p99 of %d sends", len(wait)))
	if len(early) > 0 && len(late) > 0 {
		ls.set("trace.overhead_pct", "%", 100*(newDist(late).median()/newDist(early).median()-1),
			"fresh p50, second half (scraping /metrics) vs first half of the open loop")
	}
	eng.metrics(ls)
	if len(walls) > 0 {
		// The cell latency of a served request is its whole in-process
		// single-cell RunGrid call.
		var cells []float64
		for _, w := range walls {
			cells = append(cells, ms(w))
		}
		c := newDist(cells)
		ls.set("scenario.cell_p50_ms", "ms", c.median(), fmt.Sprintf("%d in-process single-cell grids", len(c)))
		ls.set("scenario.cell_p99_ms", "ms", c.rank(99), fmt.Sprintf("%d in-process single-cell grids", len(c)))
	}
	var scs []*scenario.Scenario
	for _, s := range o.specs {
		if sc, err := scenario.FromTrace(s.trace); err == nil {
			scs = append(scs, sc)
		}
	}
	_ = normalizeProbe(ls, scs, "the served requests' scenarios")
	unaccounted(ls, rep, rec.snapshot())
	if err := rec.writeFile(spanFile(cfg)); err != nil {
		log.Printf("writing spans: %v", err)
	}
}

func clampTime(t, lo, hi time.Time) time.Time {
	if t.Before(lo) {
		return lo
	}
	if t.After(hi) {
		return hi
	}
	return t
}

// serveProbe runs a short serve-mixed session for the serving-path
// metrics of a traced batch run.
func serveProbe(cfg config, ls *layerSet) error {
	pc := cfg
	pc.workload = "serve-probe"
	o, err := serveSession(pc, 2*time.Second, 0, true, nil)
	if err != nil {
		return err
	}
	eng := &engineAgg{}
	texts, walls, err := expected(o.specs, eng)
	if err != nil {
		return err
	}
	scratch := &report{}
	verifyServe(scratch, o, texts)
	if !scratch.correct() {
		return fmt.Errorf("probe outputs: %s", strings.Join(scratch.mismatches, "; "))
	}
	serveLayers(ls, scratch, o, walls, eng, pc)
	return nil
}
