package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mkTrace(t *testing.T) *Trace {
	t.Helper()
	tr := NewWithCap([]string{"A15", "MaliT628"}, []string{"A15", "A7"}, 0)
	for i := 0; i < 5; i++ {
		err := tr.Append(Sample{
			TimeS:    float64(i),
			TempsC:   []float64{80 + float64(i), 70},
			FreqsMHz: []int{2000 - i*100, 1400},
			PowerW:   10,
			Utils:    []float64{1, 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestAppendValidation(t *testing.T) {
	tr := NewWithCap([]string{"a"}, []string{"c"}, 0)
	if err := tr.Append(Sample{TimeS: 0, TempsC: []float64{1, 2}, FreqsMHz: []int{1}}); err == nil {
		t.Error("Append should reject wrong temp count")
	}
	if err := tr.Append(Sample{TimeS: 0, TempsC: []float64{1}, FreqsMHz: []int{1, 2}}); err == nil {
		t.Error("Append should reject wrong freq count")
	}
	if err := tr.Append(Sample{TimeS: 5, TempsC: []float64{1}, FreqsMHz: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(Sample{TimeS: 4, TempsC: []float64{1}, FreqsMHz: []int{1}}); err == nil {
		t.Error("Append should reject time going backwards")
	}
}

func TestAppendCopiesSlices(t *testing.T) {
	tr := NewWithCap([]string{"a"}, []string{"c"}, 0)
	temps := []float64{50}
	freqs := []int{1000}
	if err := tr.Append(Sample{TimeS: 0, TempsC: temps, FreqsMHz: freqs}); err != nil {
		t.Fatal(err)
	}
	temps[0] = 99
	freqs[0] = 1
	if tr.Samples[0].TempsC[0] != 50 || tr.Samples[0].FreqsMHz[0] != 1000 {
		t.Error("Append should deep-copy sample slices")
	}
}

func TestIndices(t *testing.T) {
	tr := mkTrace(t)
	if tr.NodeIndex("MaliT628") != 1 || tr.NodeIndex("zz") != -1 {
		t.Error("NodeIndex wrong")
	}
	if tr.ClusterIndex("A7") != 1 || tr.ClusterIndex("zz") != -1 {
		t.Error("ClusterIndex wrong")
	}
}

func TestDurationAndLen(t *testing.T) {
	tr := mkTrace(t)
	if tr.Len() != 5 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.Duration() != 4 {
		t.Errorf("Duration = %g, want 4", tr.Duration())
	}
	empty := NewWithCap(nil, nil, 0)
	if empty.Duration() != 0 {
		t.Error("empty trace Duration should be 0")
	}
}

func TestAvgAndPeakTemp(t *testing.T) {
	tr := mkTrace(t)
	// Linear ramp 80→84: time-weighted mean is 82.
	if got := tr.AvgTemp(0); math.Abs(got-82) > 1e-12 {
		t.Errorf("AvgTemp = %g, want 82", got)
	}
	if got := tr.AvgTemp(1); got != 70 {
		t.Errorf("AvgTemp const = %g, want 70", got)
	}
}

func TestTempVarianceAndGradient(t *testing.T) {
	tr := mkTrace(t)
	// Constant series has zero variance and gradient.
	if got := tr.TempVariance(1); got != 0 {
		t.Errorf("constant TempVariance = %g", got)
	}
	if got := tr.TempGradient(1); got != 0 {
		t.Errorf("constant TempGradient = %g", got)
	}
	// The ramp changes 1°C/s.
	if got := tr.TempGradient(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("ramp TempGradient = %g, want 1", got)
	}
	if got := tr.TempVariance(0); got <= 0 {
		t.Errorf("ramp TempVariance = %g, want > 0", got)
	}
}

func TestAvgFreq(t *testing.T) {
	tr := mkTrace(t)
	// Zero-order hold: 2000,1900,1800,1700 each held 1s.
	want := (2000.0 + 1900 + 1800 + 1700) / 4
	if got := tr.AvgFreqMHz(0); math.Abs(got-want) > 1e-9 {
		t.Errorf("AvgFreqMHz = %g, want %g", got, want)
	}
	if got := tr.AvgFreqMHz(1); got != 1400 {
		t.Errorf("AvgFreqMHz const = %g, want 1400", got)
	}
}

func TestEmptyTraceMetrics(t *testing.T) {
	tr := NewWithCap([]string{"a"}, []string{"c"}, 0)
	if tr.AvgTemp(0) != 0 ||
		tr.TempGradient(0) != 0 || tr.AvgFreqMHz(0) != 0 {
		t.Error("empty trace metrics should all be zero")
	}
}

func TestWriteCSV(t *testing.T) {
	tr := mkTrace(t)
	var b strings.Builder
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("CSV has %d lines, want 6 (header + 5 samples)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time_s,temp_A15_C,temp_MaliT628_C,freq_A15_MHz") {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "2000") {
		t.Errorf("CSV first row = %q", lines[1])
	}
}

func TestRenderSeries(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 1, 2, 3}
	out := RenderSeries(xs, ys, ChartOptions{Width: 20, Height: 5, Title: "ramp", YLabel: "°C"})
	if !strings.Contains(out, "ramp") || !strings.Contains(out, "*") || !strings.Contains(out, "°C") {
		t.Errorf("chart output missing elements:\n%s", out)
	}
	if out := RenderSeries(nil, nil, ChartOptions{}); !strings.Contains(out, "empty") {
		t.Error("empty series should render placeholder")
	}
}

func TestRenderTempAndFreq(t *testing.T) {
	tr := mkTrace(t)
	out := tr.RenderTempAndFreq("A15", "A15", 40, 8)
	if !strings.Contains(out, "Temperature A15") || !strings.Contains(out, "Frequency A15") {
		t.Errorf("combined chart missing sections:\n%s", out)
	}
	if out := tr.RenderTempAndFreq("zz", "A15", 40, 8); !strings.Contains(out, "no data") {
		t.Error("unknown node should render placeholder")
	}
}

// Property: AvgTemp lies within [min, max] of the series.
func TestAvgTempBoundedProperty(t *testing.T) {
	f := func(temps []uint8) bool {
		if len(temps) < 2 {
			return true
		}
		tr := NewWithCap([]string{"n"}, []string{"c"}, 0)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, raw := range temps {
			v := 20 + float64(raw%80)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			if err := tr.Append(Sample{TimeS: float64(i), TempsC: []float64{v}, FreqsMHz: []int{1}}); err != nil {
				return false
			}
		}
		avg := tr.AvgTemp(0)
		return avg >= lo-1e-9 && avg <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Appends must copy their input: mutating the caller's buffers afterwards
// cannot change recorded samples, and samples must not alias each other.
func TestAppendCopiesAndIsolates(t *testing.T) {
	tr := NewWithCap([]string{"a", "b"}, []string{"c"}, 4)
	temps := []float64{1, 2}
	freqs := []int{100}
	utils := []float64{0.5}
	if err := tr.Append(Sample{TimeS: 0, TempsC: temps, FreqsMHz: freqs, Utils: utils}); err != nil {
		t.Fatal(err)
	}
	temps[0], freqs[0], utils[0] = 99, 999, 0.99
	if err := tr.Append(Sample{TimeS: 1, TempsC: temps, FreqsMHz: freqs, Utils: utils}); err != nil {
		t.Fatal(err)
	}
	s0, s1 := tr.Samples[0], tr.Samples[1]
	if s0.TempsC[0] != 1 || s0.FreqsMHz[0] != 100 || s0.Utils[0] != 0.5 {
		t.Errorf("sample 0 mutated by caller buffer reuse: %+v", s0)
	}
	if s1.TempsC[0] != 99 || s1.FreqsMHz[0] != 999 || s1.Utils[0] != 0.99 {
		t.Errorf("sample 1 did not record updated values: %+v", s1)
	}
}

// Samples recorded before an arena block rollover must stay intact after
// many more appends.
func TestArenaBlockRollover(t *testing.T) {
	tr := NewWithCap([]string{"n"}, []string{"c"}, 2)
	const total = 5000 // far beyond any single block
	for i := 0; i < total; i++ {
		err := tr.Append(Sample{
			TimeS:    float64(i),
			TempsC:   []float64{float64(i)},
			FreqsMHz: []int{i},
			Utils:    []float64{float64(i) / total},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != total {
		t.Fatalf("Len = %d, want %d", tr.Len(), total)
	}
	for i := 0; i < total; i += 777 {
		s := tr.Samples[i]
		if s.TempsC[0] != float64(i) || s.FreqsMHz[0] != i {
			t.Errorf("sample %d corrupted after rollover: %+v", i, s)
		}
	}
}

// With a capacity hint covering the run, steady-state appends allocate
// nothing (amortised block allocation aside, which the hint covers here).
func TestAppendZeroAllocsWithinCap(t *testing.T) {
	tr := NewWithCap([]string{"a", "b", "c", "d"}, []string{"x", "y", "z"}, 2000)
	temps := []float64{1, 2, 3, 4}
	freqs := []int{1, 2, 3}
	utils := []float64{0.1, 0.2, 0.3}
	i := 0
	// Warm up one append so the lazily allocated first blocks exist.
	if err := tr.Append(Sample{TimeS: -1, TempsC: temps, FreqsMHz: freqs, Utils: utils}); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		i++
		if err := tr.Append(Sample{TimeS: float64(i), TempsC: temps, FreqsMHz: freqs, Utils: utils}); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Append allocates %.3f objects/op inside capacity, want 0", avg)
	}
}

// Nil series stay nil (e.g. Utils on legacy traces), matching the
// pre-arena copying behaviour.
func TestAppendPreservesNilUtils(t *testing.T) {
	tr := NewWithCap([]string{"n"}, []string{"c"}, 0)
	if err := tr.Append(Sample{TimeS: 0, TempsC: []float64{1}, FreqsMHz: []int{2}}); err != nil {
		t.Fatal(err)
	}
	if tr.Samples[0].Utils != nil {
		t.Errorf("nil Utils became %v", tr.Samples[0].Utils)
	}
}

// A trace of unknown length grows geometrically: each replacement arena
// block holds as many samples as the trace already does (up to
// maxBlockSamples), so a long unsized recording costs a few dozen
// allocations, not one pair of blocks per minBlockSamples samples.
func TestUnsizedTraceGrowsGeometrically(t *testing.T) {
	const total = 4096
	temps, freqs, utils := []float64{1, 2}, []int{3}, []float64{0.5}
	allocs := testing.AllocsPerRun(1, func() {
		tr := NewWithCap([]string{"a", "b"}, []string{"c"}, 0)
		for i := 0; i < total; i++ {
			if err := tr.Append(Sample{TimeS: float64(i), TempsC: temps, FreqsMHz: freqs, Utils: utils}); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 60 {
		t.Errorf("%d unsized appends allocate %.0f times, want at most 60", total, allocs)
	}
}

// A fitted chart's rows do not hang on the last bit of the series'
// extremes: nudging the max or the min by one ulp renders the same bytes,
// and the max sits on the top row. With the 5% headroom and height 12 the
// extremes fall on row-rounding ties.
func TestRenderSeriesExtremesStable(t *testing.T) {
	opt := ChartOptions{Width: 20, Height: 12}
	for _, hi := range []float64{20.7, 21.6, 22.7, 22.8} {
		want := RenderSeries([]float64{0, 1, 2}, []float64{20, 20.5, hi}, opt)
		if top := strings.Split(want, "\n")[0]; !strings.Contains(top, "*") {
			t.Errorf("max %g not on the top row:\n%s", hi, want)
		}
		for _, ys := range [][]float64{
			{20, 20.5, math.Nextafter(hi, math.Inf(1))},
			{20, 20.5, math.Nextafter(hi, math.Inf(-1))},
			{math.Nextafter(20, math.Inf(1)), 20.5, hi},
			{math.Nextafter(20, math.Inf(-1)), 20.5, hi},
		} {
			if got := RenderSeries([]float64{0, 1, 2}, ys, opt); got != want {
				t.Errorf("series %v renders differently from max %g:\n%s\nwant\n%s", ys, hi, got, want)
			}
		}
	}
}
