package trace

import (
	"fmt"
	"math"
	"strings"
)

// Chart renders time series as ASCII line charts, reproducing the visual
// shape of the paper's Fig. 1 (temperature and frequency against time) in
// terminal output.

// ChartOptions controls rendering.
type ChartOptions struct {
	// Width and Height are the plot area size in characters; defaults
	// are 72×16.
	Width, Height int
	// Title is printed above the chart.
	Title string
	// YLabel annotates the vertical axis.
	YLabel string
	// YMin/YMax fix the vertical range; when both zero the range is
	// fitted to the data with 5% headroom.
	YMin, YMax float64
}

// RenderSeries draws one series (y against x) as an ASCII chart.
func RenderSeries(xs, ys []float64, opt ChartOptions) string {
	if len(xs) != len(ys) || len(xs) == 0 {
		return "(empty series)\n"
	}
	w, h := opt.Width, opt.Height
	if w <= 0 {
		w = 72
	}
	if h <= 0 {
		h = 16
	}
	// A row is the fraction f of [lo, lo+span] mapped through a constant
	// affine map, so a fitted series' extremes (f exactly 0 and 1) land on
	// the same rows whatever their last bits. With the 5% headroom the map
	// is f ↦ (20f + 1)/22 of the h-1 row steps.
	yMin, yMax := opt.YMin, opt.YMax
	lo, span := yMin, yMax-yMin
	scale, off := float64(h-1), 0.0
	if yMin == 0 && yMax == 0 {
		lo, yMax = math.Inf(1), math.Inf(-1)
		for _, y := range ys {
			lo = math.Min(lo, y)
			yMax = math.Max(yMax, y)
		}
		if span = yMax - lo; span == 0 {
			lo, span = lo-1, 2
			yMin, yMax = lo, lo+span
		} else {
			yMin, yMax = lo-0.05*span, yMax+0.05*span
			scale, off = float64(20*(h-1))/22, float64(h-1)/22
		}
	}
	xMin, xMax := xs[0], xs[len(xs)-1]
	if xMax == xMin {
		xMax = xMin + 1
	}

	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for i := range xs {
		c := int(float64(w-1) * ((xs[i] - xMin) / (xMax - xMin)))
		r := h - 1 - int((ys[i]-lo)/span*scale+off+0.5)
		if c < 0 || c >= w || r < 0 || r >= h {
			continue
		}
		grid[r][c] = '*'
	}

	var b strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&b, "%s\n", opt.Title)
	}
	for r, row := range grid {
		yVal := yMax - (yMax-yMin)*float64(r)/float64(h-1)
		fmt.Fprintf(&b, "%8.1f |%s\n", yVal, string(row))
	}
	fmt.Fprintf(&b, "%8s +%s\n", "", strings.Repeat("-", w))
	fmt.Fprintf(&b, "%8s  %-12.1f%*s%12.1f (s)\n", "", xMin, w-24, "", xMax)
	if opt.YLabel != "" {
		fmt.Fprintf(&b, "y: %s\n", opt.YLabel)
	}
	return b.String()
}

// RenderTempAndFreq renders the Fig. 1 style combined view for one thermal
// node and one cluster of a trace.
func (t *Trace) RenderTempAndFreq(nodeName, clusterName string, width, height int) string {
	ni := t.NodeIndex(nodeName)
	ci := t.ClusterIndex(clusterName)
	if ni < 0 || ci < 0 || t.Len() == 0 {
		return "(no data)\n"
	}
	xs := make([]float64, t.Len())
	for i, s := range t.Samples {
		xs[i] = s.TimeS
	}
	var b strings.Builder
	b.WriteString(RenderSeries(xs, t.Temps(ni), ChartOptions{
		Width: width, Height: height,
		Title:  fmt.Sprintf("Temperature %s (°C)", nodeName),
		YLabel: "°C",
	}))
	b.WriteString(RenderSeries(xs, t.Freqs(ci), ChartOptions{
		Width: width, Height: height,
		Title:  fmt.Sprintf("Frequency %s (MHz)", clusterName),
		YLabel: "MHz",
	}))
	return b.String()
}
