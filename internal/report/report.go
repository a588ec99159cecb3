// Package report renders evaluation artefacts in the visual shapes of the
// TEEM paper: grouped bar charts (Fig. 5), scatterplot matrices (Fig. 3),
// residual plots (Fig. 4) and aligned tables, all as plain text suitable
// for terminals and Markdown reports (cmd/teemreport).
package report

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns the aligned table.
func (t *Table) Render() string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	// Widths count bytes, but each cell is padded to its column's width
	// plus two in runes, as fmt's %-*s counts them: headers carry
	// multi-byte symbols such as °C, × and δ. Every line is therefore
	// total bytes plus its cells' bytes beyond one per rune (extra), which
	// sizes the output exactly.
	width := make([]int, cols)
	extra := 0
	measure := func(cells []string) {
		for i, c := range cells {
			width[i] = max(width[i], len(c))
			extra += len(c) - utf8.RuneCountInString(c)
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	total := 0
	for _, w := range width {
		total += w + 2
	}
	lines := len(t.Rows)
	if len(t.Headers) > 0 {
		lines += 2
	}
	size := lines*(total+1) + extra
	if t.Title != "" {
		size += len(t.Title) + 1
	}
	var b strings.Builder
	b.Grow(size)
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			b.WriteString(c)
			for pad := width[i] + 2 - utf8.RuneCountInString(c); pad > 0; pad-- {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Headers) > 0 {
		line(t.Headers)
		b.WriteString(strings.Repeat("-", total))
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// BarGroup is one labelled group of bars (e.g. one application with one
// bar per approach).
type BarGroup struct {
	Label  string
	Values []float64
}

// BarChart renders grouped horizontal bars, one row per (group, series):
// the text analogue of the paper's Fig. 5 grouped bar charts.
type BarChart struct {
	Title  string
	Unit   string
	Series []string // e.g. EEMP, RMP, TEEM
	Groups []BarGroup
	// Width is the maximum bar length in characters (default 40).
	Width int
}

// Render returns the chart.
func (c *BarChart) Render() string {
	w := c.Width
	if w <= 0 {
		w = 40
	}
	maxV := 0.0
	for _, g := range c.Groups {
		for _, v := range g.Values {
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	nameW := 0
	for _, s := range c.Series {
		if len(s) > nameW {
			nameW = len(s)
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for _, g := range c.Groups {
		fmt.Fprintf(&b, "%s\n", g.Label)
		for i, v := range g.Values {
			series := ""
			if i < len(c.Series) {
				series = c.Series[i]
			}
			n := int(v / maxV * float64(w))
			if n < 0 {
				n = 0
			}
			fmt.Fprintf(&b, "  %-*s |%s %.1f %s\n", nameW, series, strings.Repeat("#", n), v, c.Unit)
		}
	}
	return b.String()
}

// ScatterMatrix renders a matrix scatterplot of named variables — the text
// analogue of the paper's Fig. 3. Diagonal cells carry the variable name;
// off-diagonal cells plot the variable pair.
type ScatterMatrix struct {
	Names []string
	Cols  [][]float64
	// CellW and CellH are the per-cell plot size (defaults 18×7).
	CellW, CellH int
}

// Render returns the matrix.
func (s *ScatterMatrix) Render() string {
	n := len(s.Names)
	if n == 0 || len(s.Cols) != n {
		return "(empty scatter matrix)\n"
	}
	cw, ch := s.CellW, s.CellH
	if cw <= 0 {
		cw = 18
	}
	if ch <= 0 {
		ch = 7
	}
	cell := func(xi, yi int) []string {
		if xi == yi {
			rows := make([]string, ch)
			for r := range rows {
				rows[r] = strings.Repeat(" ", cw)
			}
			name := s.Names[xi]
			if len(name) > cw {
				name = name[:cw]
			}
			pad := (cw - len(name)) / 2
			rows[ch/2] = strings.Repeat(" ", pad) + name + strings.Repeat(" ", cw-pad-len(name))
			return rows
		}
		return scatterCell(s.Cols[xi], s.Cols[yi], cw, ch)
	}
	var b strings.Builder
	hline := "+" + strings.Repeat(strings.Repeat("-", cw)+"+", n)
	for row := 0; row < n; row++ {
		b.WriteString(hline)
		b.WriteString("\n")
		lines := make([][]string, n)
		for col := 0; col < n; col++ {
			lines[col] = cell(col, row)
		}
		for r := 0; r < ch; r++ {
			b.WriteString("|")
			for col := 0; col < n; col++ {
				b.WriteString(lines[col][r])
				b.WriteString("|")
			}
			b.WriteString("\n")
		}
	}
	b.WriteString(hline)
	b.WriteString("\n")
	return b.String()
}

func scatterCell(xs, ys []float64, w, h int) []string {
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	if len(xs) == len(ys) && len(xs) > 0 {
		xMin, xMax := minMax(xs)
		yMin, yMax := minMax(ys)
		if xMax == xMin {
			xMax = xMin + 1
		}
		if yMax == yMin {
			yMax = yMin + 1
		}
		for i := range xs {
			// The fraction first, so the largest x truncates to exactly w-1.
			c := int(float64(w-1) * ((xs[i] - xMin) / (xMax - xMin)))
			r := h - 1 - int(float64(h-1)*(ys[i]-yMin)/(yMax-yMin)+0.5)
			if c >= 0 && c < w && r >= 0 && r < h {
				grid[r][c] = '*'
			}
		}
	}
	out := make([]string, h)
	for r := range grid {
		out[r] = string(grid[r])
	}
	return out
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// ResidualPlot renders residuals against fitted values — the paper's
// Fig. 4.
func ResidualPlot(fitted, residuals []float64, width, height int) string {
	if len(fitted) != len(residuals) || len(fitted) == 0 {
		return "(empty residual plot)\n"
	}
	if width <= 0 {
		width = 60
	}
	if height <= 0 {
		height = 14
	}
	var b strings.Builder
	b.WriteString("Residuals vs Fitted\n")
	rows := scatterCell(fitted, residuals, width, height)
	// Mark the zero line.
	_, rMaxAbs := minMax(absAll(residuals))
	_ = rMaxAbs
	rMin, rMax := minMax(residuals)
	zeroRow := -1
	if rMin < 0 && rMax > 0 {
		zeroRow = height - 1 - int(float64(height-1)*(0-rMin)/(rMax-rMin)+0.5)
	}
	for r, row := range rows {
		marker := " "
		if r == zeroRow {
			marker = "0"
		}
		fmt.Fprintf(&b, "%s |%s|\n", marker, row)
	}
	fmt.Fprintf(&b, "   %s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "   fitted: %.3g .. %.3g, residuals: %.3g .. %.3g\n",
		fitted[0], fitted[len(fitted)-1], rMin, rMax)
	return b.String()
}

func absAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Abs(x)
	}
	return out
}

// Pct formats a fractional change as a signed percentage string.
func Pct(frac float64) string { return fmt.Sprintf("%+.2f%%", 100*frac) }

// Improvement returns the fractional reduction of got versus base
// (positive = got is lower/better).
func Improvement(base, got float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - got) / base
}
