// Command perfbench is the repository benchmark. It drives one seeded
// workload against the simulator and its daemon for a fixed time,
// verifies every output, and prints one metric per line followed by a
// single JSON result line:
//
//	perfbench -workload paper-repro -seed 1 -seconds 30 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records a span around every call it makes into a layer and prints
// the per-layer metrics instead. README.md beside this file documents
// the workloads and every metric. Logs of the daemon and the libraries
// go to a side file in -rundir, never to standard output.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	teemd    string // daemon binary (serve-mixed)
	runDir   string // logs, journals, spans
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string // percentile, sample count, source
}

// report is what a workload run produces.
type report struct {
	attempted, failed int
	mismatches        []string
	invalid           []string
	digest            string
	metrics           []metric
	lines             []string
}

func (r *report) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note})
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// mismatch records an output that differs from its reference; it
// counts as a failed operation.
func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	r.failed++
}

func (r *report) correct() bool {
	return len(r.mismatches) == 0 && len(r.invalid) == 0 && r.failed == 0
}

type workloadFunc func(cfg config) (*report, error)

var workloads = map[string]workloadFunc{
	"paper-repro":    runPaper,
	"scenario-sweep": runSweep,
	"serve-mixed":    runServe,
}

// setupFuncs run one workload's set-up alone, in a child process, so
// every set-up sample starts cold. A batch set-up is one pass, so the
// same function also runs the child's warm passes.
var setupFuncs = map[string]func(seed int64) error{
	"paper-repro":    setupPaper,
	"scenario-sweep": setupSweep,
}

// probeWarmPasses is how many warm passes a set-up child runs after
// reporting ready, before it reports its peak resident set.
const probeWarmPasses = 2

// probe is a set-up child: it reports "ready" once set up, runs
// probeWarmPasses warm passes, reads its peak resident set, then times
// one reference sample on one lane per CPU it may use and reports both.
// The sample comes from the child itself, moments after its set-up in the
// same process: with samples the parent took between set-ups instead,
// paper-repro set-ups of one run came out near 0.10 s or near 0.17 s with
// no sign of it in the parent's samples, and ten runs' medians spread by
// 45%. It comes last so that the kernel's buffer stays out of the peak.
func probe(cfg config) error {
	setup, ok := setupFuncs[cfg.workload]
	if !ok {
		return fmt.Errorf("no in-process set-up for workload %q", cfg.workload)
	}
	if err := setup(cfg.seed); err != nil {
		return err
	}
	fmt.Println("ready")
	for i := 0; i < probeWarmPasses; i++ {
		if err := setup(cfg.seed); err != nil {
			return err
		}
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	hs, err := newHostSpeed(runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	fmt.Println(rss, settledSample(hs))
	return nil
}

func main() {
	isProbe := len(os.Args) > 1 && os.Args[1] == "setup-probe"
	args := os.Args[1:]
	if isProbe {
		args = args[1:]
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	var cfg config
	var secs, trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: paper-repro, scenario-sweep or serve-mixed")
	fs.Int64Var(&cfg.seed, "seed", 0, "input seed (0 = the paper's protocol)")
	fs.IntVar(&secs, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&cfg.teemd, "teemd", "", "teemd binary (serve-mixed)")
	fs.StringVar(&cfg.runDir, "rundir", "", "directory for logs, journals and spans")
	_ = fs.Parse(args)
	cfg.dur = time.Duration(secs) * time.Second
	cfg.trace = trace == 1

	if isProbe {
		if err := probe(cfg); err != nil {
			fatalf("setup-probe: %v", err)
		}
		return
	}

	run, ok := workloads[cfg.workload]
	if !ok {
		fatalf("unknown workload %q (have paper-repro, scenario-sweep, serve-mixed)", cfg.workload)
	}
	if secs < 1 || (trace != 0 && trace != 1) || cfg.runDir == "" {
		fatalf("need -seconds ≥ 1, -trace 0|1 and -rundir")
	}
	cfg.runDir = filepath.Join(cfg.runDir, cfg.workload)
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	sideLog, err := os.Create(filepath.Join(cfg.runDir, "perfbench.log"))
	if err != nil {
		fatalf("%v", err)
	}
	defer sideLog.Close()
	log.SetOutput(sideLog)

	rep, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	if err := checkMetrics(rep, cfg.trace); err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	printReport(os.Stdout, cfg, rep)
	if !rep.correct() {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// checkMetrics fails a run that lost or duplicated a metric: a workload
// must print every metric of its mode, each once, never silently fewer.
func checkMetrics(rep *report, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	have := map[string]metric{}
	for _, m := range rep.metrics {
		if _, dup := have[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		have[m.name] = m
	}
	var missing []string
	for _, w := range want {
		m, ok := have[w.name]
		switch {
		case !ok:
			missing = append(missing, w.name)
		case m.unit != w.unit:
			return fmt.Errorf("metric %s has unit %s, want %s", w.name, m.unit, w.unit)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("no value for %s", strings.Join(missing, ", "))
	}
	if len(have) != len(want) {
		return fmt.Errorf("%d metrics reported, %d defined", len(have), len(want))
	}
	if rep.attempted < 1 {
		return errors.New("no operation attempted")
	}
	return nil
}

// printReport writes the human-readable lines and, last, the JSON
// result line.
func printReport(w io.Writer, cfg config, rep *report) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced, per-layer"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%.0f (%s)\n", cfg.workload, cfg.seed, cfg.dur.Seconds(), mode)
	for _, l := range rep.lines {
		fmt.Fprintln(w, l)
	}
	ms := append([]metric(nil), rep.metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		note := ""
		if m.note != "" {
			note = "  [" + m.note + "]"
		}
		fmt.Fprintf(w, "metric %-34s %14.6g %s%s\n", m.name, m.value, m.unit, note)
	}
	fmt.Fprintf(w, "digest %s\n", rep.digest)
	fmt.Fprintf(w, "operations attempted=%d failed=%d fail_ratio=%g\n",
		rep.attempted, rep.failed, ratio(float64(rep.failed), float64(rep.attempted)))
	for _, m := range rep.mismatches {
		fmt.Fprintf(w, "MISMATCH %s\n", m)
	}
	for _, m := range rep.invalid {
		fmt.Fprintf(w, "INVALID %s\n", m)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, map[string]val{}}
	for _, m := range rep.metrics {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Fprintln(w, string(raw))
}

// setupSamples measures k cold set-ups, each in a fresh child process
// (see probe): the time from exec until the child reports it is ready
// for the first timed operation. It returns each set-up's time scaled by
// the child's own reference sample, its raw time, and the child's peak
// resident set, which a single long-lived process would only show at the
// mercy of its garbage collector's phase. procs, when positive, is the
// child's GOMAXPROCS.
func setupSamples(cfg config, k, procs int) (setups, raw, rss []float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, nil, err
	}
	for i := 0; i < k; i++ {
		cmd := exec.Command(self, "setup-probe", "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed))
		if procs > 0 {
			cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
		}
		cmd.Stderr = log.Writer()
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, nil, nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, nil, nil, err
		}
		r := bufio.NewReader(stdout)
		ready, rerr := r.ReadString('\n')
		elapsed := time.Since(start)
		peak, perr := r.ReadString('\n')
		werr := cmd.Wait()
		var mb, ref float64
		_, serr := fmt.Sscan(peak, &mb, &ref)
		if rerr != nil || perr != nil || serr != nil || strings.TrimSpace(ready) != "ready" || werr != nil {
			return nil, nil, nil, fmt.Errorf("set-up probe %d failed: read %q %q, exit %v", i, ready, peak, werr)
		}
		log.Printf("%s set-up %d: %.3f s, reference sample %.3f ms, peak resident set %.2f MB", cfg.workload, i+1, elapsed.Seconds(), ref, mb)
		setups = append(setups, elapsed.Seconds()*refNominalMs/ref)
		raw = append(raw, elapsed.Seconds())
		rss = append(rss, mb)
	}
	return setups, raw, rss, nil
}
