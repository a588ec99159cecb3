// Package trace records simulation time series (temperatures, frequencies,
// power, utilisation) and derives the evaluation metrics of the TEEM
// paper: energy, average/peak temperature, temporal thermal variance and
// gradient, and average effective frequency. It can render series as ASCII
// charts (for the Fig. 1 style temperature/frequency plots) and export
// CSV.
package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"teem/internal/stats"
)

// Sample is one record of platform state at a point in simulated time.
type Sample struct {
	// TimeS is the simulation time in seconds.
	TimeS float64
	// TempsC holds one temperature per recorded thermal node.
	TempsC []float64
	// FreqsMHz holds one frequency per recorded cluster.
	FreqsMHz []int
	// PowerW is the instantaneous board power.
	PowerW float64
	// Utils holds per-cluster utilisation in [0,1].
	Utils []float64
}

// Trace is a recorded run.
type Trace struct {
	// NodeNames labels TempsC entries; ClusterNames labels FreqsMHz and
	// Utils entries.
	NodeNames    []string
	ClusterNames []string
	Samples      []Sample

	// Sample slices are carved out of block arenas so the steady-state
	// record path stays allocation-free. A full block is replaced, never
	// grown in place, keeping previously handed-out sub-slices valid.
	// block is the first block's size in samples; later blocks follow
	// the trace's length (see blockSamples).
	block  int
	fArena []float64
	iArena []int
}

// Arena block bounds, in samples. The first block follows the expected
// sample count of NewWithCap and each later one the samples recorded so
// far, within these limits, so short runs stay compact, runs of unknown
// length grow geometrically and long runs amortise allocation to one
// block per maxBlockSamples records.
const (
	minBlockSamples = 16
	maxBlockSamples = 1024
)

// NewWithCap creates an empty trace sized for an expected number of
// samples (a simulation run passes its scenario horizon, or a measured
// run its warm-up's sample count). The hint is a capacity optimisation
// only: it sizes the first arena block (bounded by maxBlockSamples, so a
// huge hint cannot balloon one engine) and the sample index, making
// appends allocation-free up to the hint. Past it the trace grows
// geometrically, each new block as large as the samples recorded so far;
// zero means "unknown" and starts at minBlockSamples.
func NewWithCap(nodeNames, clusterNames []string, expectedSamples int) *Trace {
	block := min(max(expectedSamples, minBlockSamples), maxBlockSamples)
	return &Trace{
		NodeNames:    append([]string(nil), nodeNames...),
		ClusterNames: append([]string(nil), clusterNames...),
		block:        block,
		Samples:      make([]Sample, 0, block),
	}
}

// Append adds a sample; series lengths must match the labels. The sample's
// slices are copied, so callers may reuse their buffers across calls.
//
//teem:hotpath
func (t *Trace) Append(s Sample) error {
	if len(s.TempsC) != len(t.NodeNames) {
		return fmt.Errorf("trace: sample has %d temps, want %d", len(s.TempsC), len(t.NodeNames))
	}
	if len(s.FreqsMHz) != len(t.ClusterNames) {
		return fmt.Errorf("trace: sample has %d freqs, want %d", len(s.FreqsMHz), len(t.ClusterNames))
	}
	if len(t.Samples) > 0 && s.TimeS < t.Samples[len(t.Samples)-1].TimeS {
		return errors.New("trace: samples must be appended in time order")
	}
	s.TempsC = t.copyFloats(s.TempsC)
	s.Utils = t.copyFloats(s.Utils)
	s.FreqsMHz = t.copyInts(s.FreqsMHz)
	//teem:alloc-ok amortized sample-slice growth; NewWithCap presizes it away on the hot path
	t.Samples = append(t.Samples, s)
	return nil
}

// copyFloats copies src into arena-backed storage (nil stays nil, matching
// a plain copying append).
//
//teem:hotpath
func (t *Trace) copyFloats(src []float64) []float64 {
	if len(src) == 0 {
		return nil
	}
	need := len(src)
	if len(t.fArena)+need > cap(t.fArena) {
		sz := t.blockSamples() * (len(t.NodeNames) + len(t.ClusterNames))
		if sz < need {
			sz = need
		}
		//teem:alloc-ok amortized arena-block growth, one make per block of samples
		t.fArena = make([]float64, 0, sz)
	}
	base := len(t.fArena)
	t.fArena = t.fArena[:base+need]
	dst := t.fArena[base : base+need : base+need]
	copy(dst, src)
	return dst
}

// copyInts is copyFloats for the frequency series.
//
//teem:hotpath
func (t *Trace) copyInts(src []int) []int {
	if len(src) == 0 {
		return nil
	}
	need := len(src)
	if len(t.iArena)+need > cap(t.iArena) {
		sz := t.blockSamples() * len(t.ClusterNames)
		if sz < need {
			sz = need
		}
		//teem:alloc-ok amortized arena-block growth, one make per block of samples
		t.iArena = make([]int, 0, sz)
	}
	base := len(t.iArena)
	t.iArena = t.iArena[:base+need]
	dst := t.iArena[base : base+need : base+need]
	copy(dst, src)
	return dst
}

// blockSamples is the sample capacity of a new arena block: the
// NewWithCap hint while the trace is empty, then as many samples as the
// trace holds, which doubles its capacity.
//
//teem:hotpath
func (t *Trace) blockSamples() int {
	n := len(t.Samples)
	if n == 0 {
		n = t.block
	}
	return min(max(n, minBlockSamples), maxBlockSamples)
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.Samples) }

// Duration returns the covered time span in seconds.
func (t *Trace) Duration() float64 {
	if len(t.Samples) < 2 {
		return 0
	}
	return t.Samples[len(t.Samples)-1].TimeS - t.Samples[0].TimeS
}

// NodeIndex returns the index of a thermal node series, or -1.
func (t *Trace) NodeIndex(name string) int {
	for i, n := range t.NodeNames {
		if n == name {
			return i
		}
	}
	return -1
}

// ClusterIndex returns the index of a cluster series, or -1.
func (t *Trace) ClusterIndex(name string) int {
	for i, n := range t.ClusterNames {
		if n == name {
			return i
		}
	}
	return -1
}

// validNode reports whether i addresses a recorded node series. Metrics
// guard with it so the -1 of NodeIndex on an unknown name yields zero
// values instead of an index-out-of-range panic.
func (t *Trace) validNode(i int) bool { return i >= 0 && i < len(t.NodeNames) }

// validCluster is validNode for the frequency/utilisation series.
func (t *Trace) validCluster(i int) bool { return i >= 0 && i < len(t.ClusterNames) }

// Temps returns the temperature series of node index i (nil for an
// out-of-range index, e.g. the -1 of an unknown NodeIndex lookup).
func (t *Trace) Temps(i int) []float64 {
	if !t.validNode(i) {
		return nil
	}
	out := make([]float64, len(t.Samples))
	for k, s := range t.Samples {
		out[k] = s.TempsC[i]
	}
	return out
}

// Freqs returns the frequency series of cluster index i (nil for an
// out-of-range index).
func (t *Trace) Freqs(i int) []float64 {
	if !t.validCluster(i) {
		return nil
	}
	out := make([]float64, len(t.Samples))
	for k, s := range t.Samples {
		out[k] = float64(s.FreqsMHz[i])
	}
	return out
}

// AvgTemp returns the time-weighted mean temperature of node i (0 for an
// out-of-range index).
func (t *Trace) AvgTemp(i int) float64 {
	if !t.validNode(i) || len(t.Samples) == 0 {
		return 0
	}
	if len(t.Samples) == 1 {
		return t.Samples[0].TempsC[i]
	}
	area := 0.0
	for k := 1; k < len(t.Samples); k++ {
		dt := t.Samples[k].TimeS - t.Samples[k-1].TimeS
		area += 0.5 * (t.Samples[k].TempsC[i] + t.Samples[k-1].TempsC[i]) * dt
	}
	d := t.Duration()
	if d == 0 {
		return t.Samples[0].TempsC[i]
	}
	return area / d
}

// TempVariance returns the sample variance of node i's temperature — the
// paper's "thermal variance / temporal thermal gradient" headline metric.
func (t *Trace) TempVariance(i int) float64 {
	return stats.Variance(t.Temps(i))
}

// TempGradient returns the mean absolute temperature slope |dT/dt| of node
// i in °C/s — an alternative thermal-cycling metric (0 for an
// out-of-range index).
func (t *Trace) TempGradient(i int) float64 {
	if !t.validNode(i) || len(t.Samples) < 2 {
		return 0
	}
	sum, n := 0.0, 0
	for k := 1; k < len(t.Samples); k++ {
		dt := t.Samples[k].TimeS - t.Samples[k-1].TimeS
		if dt <= 0 {
			continue
		}
		sum += math.Abs(t.Samples[k].TempsC[i]-t.Samples[k-1].TempsC[i]) / dt
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AvgFreqMHz returns the time-weighted mean frequency of cluster i (0 for
// an out-of-range index).
func (t *Trace) AvgFreqMHz(i int) float64 {
	if !t.validCluster(i) || len(t.Samples) == 0 {
		return 0
	}
	if len(t.Samples) == 1 {
		return float64(t.Samples[0].FreqsMHz[i])
	}
	area := 0.0
	for k := 1; k < len(t.Samples); k++ {
		dt := t.Samples[k].TimeS - t.Samples[k-1].TimeS
		// Frequency holds between samples (zero-order hold).
		area += float64(t.Samples[k-1].FreqsMHz[i]) * dt
	}
	d := t.Duration()
	if d == 0 {
		return float64(t.Samples[0].FreqsMHz[i])
	}
	return area / d
}

// WriteCSV emits the trace as CSV with a header row.
func (t *Trace) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("time_s")
	for _, n := range t.NodeNames {
		fmt.Fprintf(&b, ",temp_%s_C", n)
	}
	for _, n := range t.ClusterNames {
		fmt.Fprintf(&b, ",freq_%s_MHz", n)
	}
	for _, n := range t.ClusterNames {
		fmt.Fprintf(&b, ",util_%s", n)
	}
	b.WriteString(",power_W\n")
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for _, s := range t.Samples {
		var row strings.Builder
		fmt.Fprintf(&row, "%.3f", s.TimeS)
		for _, v := range s.TempsC {
			fmt.Fprintf(&row, ",%.3f", v)
		}
		for _, v := range s.FreqsMHz {
			fmt.Fprintf(&row, ",%d", v)
		}
		for i := range t.ClusterNames {
			u := 0.0
			if i < len(s.Utils) {
				u = s.Utils[i]
			}
			fmt.Fprintf(&row, ",%.3f", u)
		}
		fmt.Fprintf(&row, ",%.3f\n", s.PowerW)
		if _, err := io.WriteString(w, row.String()); err != nil {
			return err
		}
	}
	return nil
}
