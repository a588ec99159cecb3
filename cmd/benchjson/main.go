// Command benchjson converts `go test -bench -benchmem` text output into a
// JSON snapshot, so the performance trajectory of the hot paths (sim tick,
// Fig. 5 serial/parallel, thermal stepping) is tracked as a machine-readable
// artifact across PRs.
//
// Usage:
//
//	go test -run='^$' -bench=... -benchmem -count 5 ./... | benchjson -out BENCH_2026-07-28.json
//
// With -out "" the JSON goes to stdout. Non-benchmark lines are ignored, so
// the full `go test` stream can be piped straight in. A result line that a
// benchmark's own log output split from its name is still recorded, and
// the repeats of -count fold into one entry per benchmark: the median of
// each measurement plus the fastest and slowest ns/op.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"teem/internal/buildinfo"
)

// Benchmark is one benchmark's result, folded over its -count runs.
type Benchmark struct {
	Name string `json:"name"`
	// Runs is the number of result lines folded into this entry.
	Runs int `json:"runs"`
	// Iterations, NsPerOp, BytesPerOp and AllocsPerOp are medians over
	// the runs.
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// NsPerOpMin and NsPerOpMax bound the runs' spread.
	NsPerOpMin  float64 `json:"ns_per_op_min"`
	NsPerOpMax  float64 `json:"ns_per_op_max"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// HasMem records whether -benchmem columns were present (so a true
	// zero allocs/op is distinguishable from "not measured").
	HasMem bool `json:"has_mem"`
}

// Snapshot is the emitted document.
type Snapshot struct {
	Date       string      `json:"date"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	NumCPU     int         `json:"num_cpu"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file (default: stdout)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("benchjson"))
		return
	}

	snap := Snapshot{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	var err error
	snap.Benchmarks, err = parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)
}

// parse reads a `go test -bench` stream and returns one folded entry per
// benchmark, in the order the benchmarks first appear.
//
// Without -v, the testing package prints a benchmark's name before it
// runs and its result after, so anything the benchmark writes to stdout
// lands in between: the name line carries log text (or nothing else) and
// the result follows on a later line of its own. Such a name is held
// until the next line that parses as a result body.
func parse(r io.Reader) ([]Benchmark, error) {
	var groups [][]Benchmark
	index := map[string]int{}
	add := func(b Benchmark) {
		i, ok := index[b.Name]
		if !ok {
			i = len(groups)
			index[b.Name] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], b)
	}
	pending := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) > 0 && strings.HasPrefix(f[0], "Benchmark"):
			if b, ok := parseResult(f[0], f[1:]); ok {
				add(b)
				pending = ""
			} else {
				pending = f[0]
			}
		case pending != "":
			if b, ok := parseResult(pending, f); ok {
				add(b)
				pending = ""
			}
		}
	}
	out := make([]Benchmark, len(groups))
	for i, runs := range groups {
		out[i] = fold(runs)
	}
	return out, sc.Err()
}

// parseLine recognises a complete benchmark result line such as
//
//	BenchmarkSimRun-4   3360   347015 ns/op   186872 B/op   46 allocs/op
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) == 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return Benchmark{}, false
	}
	return parseResult(f[0], f[1:])
}

// parseResult parses a result body — the iteration count, then
// value/unit pairs — as one run of the named benchmark.
func parseResult(name string, f []string) (Benchmark, bool) {
	if len(f) < 3 {
		return Benchmark{}, false
	}
	// Strip the -GOMAXPROCS suffix so names are stable across runners.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Runs: 1, Iterations: iters}
	// The remaining fields come in value/unit pairs.
	for i := 1; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp, b.NsPerOpMin, b.NsPerOpMax = v, v, v
		case "B/op":
			b.BytesPerOp = int64(v)
			b.HasMem = true
		case "allocs/op":
			b.AllocsPerOp = int64(v)
			b.HasMem = true
		}
	}
	if b.NsPerOp == 0 && !b.HasMem {
		return Benchmark{}, false
	}
	return b, true
}

// fold merges the runs of one benchmark: the median of each measurement,
// plus the fastest and slowest ns/op.
func fold(runs []Benchmark) Benchmark {
	b := Benchmark{Name: runs[0].Name, Runs: len(runs)}
	var iters, ns, bytes, allocs []float64
	for _, r := range runs {
		iters = append(iters, float64(r.Iterations))
		ns = append(ns, r.NsPerOp)
		bytes = append(bytes, float64(r.BytesPerOp))
		allocs = append(allocs, float64(r.AllocsPerOp))
		b.HasMem = b.HasMem || r.HasMem
	}
	b.NsPerOp, b.NsPerOpMin, b.NsPerOpMax = median(ns), slices.Min(ns), slices.Max(ns)
	b.Iterations = int64(math.Round(median(iters)))
	b.BytesPerOp = int64(math.Round(median(bytes)))
	b.AllocsPerOp = int64(math.Round(median(allocs)))
	return b
}

// median sorts xs and returns its middle value (the mean of the middle
// two for an even count).
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
