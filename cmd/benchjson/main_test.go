package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkSimRun-4   \t3360\t   347015 ns/op\t  186872 B/op\t      46 allocs/op")
	if !ok {
		t.Fatal("parseLine rejected a valid -benchmem line")
	}
	if b.Name != "BenchmarkSimRun" {
		t.Errorf("Name = %q, want BenchmarkSimRun (GOMAXPROCS suffix stripped)", b.Name)
	}
	if b.Iterations != 3360 || b.NsPerOp != 347015 || b.BytesPerOp != 186872 || b.AllocsPerOp != 46 || !b.HasMem {
		t.Errorf("parsed %+v", b)
	}

	b, ok = parseLine("BenchmarkStep \t15378547\t        71.54 ns/op")
	if !ok || b.NsPerOp != 71.54 || b.HasMem {
		t.Errorf("plain ns/op line parsed as %+v ok=%v", b, ok)
	}

	for _, line := range []string{
		"ok  \tteem/internal/sim\t1.529s",
		"PASS",
		"goos: linux",
		"Benchmark",                   // no fields
		"BenchmarkX notanint 3 ns/op", // bad iteration count
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine accepted %q", line)
		}
	}
}

func TestParseLineKeepsNonNumericSuffix(t *testing.T) {
	b, ok := parseLine("BenchmarkFig5-row-abc 10 5 ns/op")
	if !ok || b.Name != "BenchmarkFig5-row-abc" {
		t.Errorf("non-numeric suffix mangled: %+v ok=%v", b, ok)
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
		if got[i] != want[i] {
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
