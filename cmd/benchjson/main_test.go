package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	got, err := parse(strings.NewReader("BenchmarkSimRun-4   \t3360\t   347015 ns/op\t  186872 B/op\t      46 allocs/op"))
	if err != nil || len(got) != 1 {
		t.Fatalf("valid -benchmem line parsed as %+v, %v", got, err)
	}
	b := got[0]
	if b.Name != "BenchmarkSimRun" {
		t.Errorf("Name = %q, want BenchmarkSimRun (GOMAXPROCS suffix stripped)", b.Name)
	}
	if b.Iterations != 3360 || b.NsPerOp != 347015 || b.BytesPerOp != 186872 || b.AllocsPerOp != 46 || !b.HasMem {
		t.Errorf("parsed %+v", b)
	}

	got, err = parse(strings.NewReader("BenchmarkStep \t15378547\t        71.54 ns/op"))
	if err != nil || len(got) != 1 || got[0].NsPerOp != 71.54 || got[0].HasMem {
		t.Errorf("plain ns/op line parsed as %+v, %v", got, err)
	}

	for _, line := range []string{
		"ok  \tteem/internal/sim\t1.529s",
		"PASS",
		"goos: linux",
		"Benchmark",                   // no fields
		"BenchmarkX notanint 3 ns/op", // bad iteration count
	} {
		if got, _ := parse(strings.NewReader(line)); len(got) != 0 {
			t.Errorf("parse accepted %q as %+v", line, got)
		}
	}
}

func TestParseLineKeepsNonNumericSuffix(t *testing.T) {
	got, err := parse(strings.NewReader("BenchmarkFig5-row-abc 10 5 ns/op"))
	if err != nil || len(got) != 1 || got[0].Name != "BenchmarkFig5-row-abc" {
		t.Errorf("non-numeric suffix mangled: %+v, %v", got, err)
	}
}

// checkFixture parses a recorded `go test -bench` stream from testdata
// and compares the entries, in order, with want.
func checkFixture(t *testing.T, name string, want []Benchmark) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: parsed %d benchmarks, want %d: %+v", name, len(got), len(want), got)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s entry %d:\n got %+v\nwant %+v", name, i, got[i], want[i])
		}
	}
}

// Log output written to stdout while a benchmark runs lands between its
// name and its result: the name line carries log text or nothing, and
// the result comes on a line of its own. Each such result must still be
// recorded under its benchmark's name, and log lines before a name must
// not be taken for it.
func TestParseSplitLines(t *testing.T) {
	checkFixture(t, "split.txt", []Benchmark{
		{Name: "BenchmarkServiceSubmitCached", Runs: 1, Iterations: 69837, NsPerOp: 17021, NsPerOpMin: 17021, NsPerOpMax: 17021,
			BytesPerOp: 4466, AllocsPerOp: 53, HasMem: true},
		{Name: "BenchmarkServiceSoak", Runs: 2, Iterations: 100, NsPerOp: 1580900, NsPerOpMin: 1498600, NsPerOpMax: 1663200,
			BytesPerOp: 161208, AllocsPerOp: 539, HasMem: true},
		{Name: "BenchmarkServiceStream", Runs: 1, Iterations: 500, NsPerOp: 251000, NsPerOpMin: 251000, NsPerOpMax: 251000,
			BytesPerOp: 20480, AllocsPerOp: 120, HasMem: true},
	})
}

// The repeats of -count fold into one entry per benchmark, in first-seen
// order: the median of each measurement and the ns/op extremes.
func TestParseFoldsRepeats(t *testing.T) {
	checkFixture(t, "repeat.txt", []Benchmark{
		{Name: "BenchmarkSimRun", Runs: 5, Iterations: 10000, NsPerOp: 100200, NsPerOpMin: 98000, NsPerOpMax: 120000,
			BytesPerOp: 189000, AllocsPerOp: 77, HasMem: true},
		{Name: "BenchmarkInstrumentedTick", Runs: 5, Iterations: 10000, NsPerOp: 103000, NsPerOpMin: 99000, NsPerOpMax: 109000,
			BytesPerOp: 189100, AllocsPerOp: 77, HasMem: true},
		{Name: "BenchmarkStep", Runs: 5, Iterations: 15300000, NsPerOp: 71.54, NsPerOpMin: 70.10, NsPerOpMax: 73.30},
	})
}

// Units a benchmark reports with b.ReportMetric are kept, folded to
// their median like the standard columns.
func TestParseKeepsCustomMetrics(t *testing.T) {
	const run = "BenchmarkSteadyWalk/exynos5422-2         \t       3\t     %s ns/op\t        %s ns/walked-tick\t         0.9890 walked/tick\t    2560 B/op\t      11 allocs/op\n"
	in := fmt.Sprintf(run, "56900", "56.73") + fmt.Sprintf(run, "58100", "57.91") + fmt.Sprintf(run, "57200", "57.05")
	got, err := parse(strings.NewReader(in))
	if err != nil || len(got) != 1 {
		t.Fatalf("parsed %+v, %v", got, err)
	}
	want := Benchmark{Name: "BenchmarkSteadyWalk/exynos5422", Runs: 3, Iterations: 3, NsPerOp: 57200, NsPerOpMin: 56900, NsPerOpMax: 58100,
		BytesPerOp: 2560, AllocsPerOp: 11, HasMem: true,
		Metrics: map[string]float64{"ns/walked-tick": 57.05, "walked/tick": 0.9890}}
	if !reflect.DeepEqual(got[0], want) {
		t.Errorf("\n got %+v\nwant %+v", got[0], want)
	}
}
