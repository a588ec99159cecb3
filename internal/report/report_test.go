package report

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Headers: []string{"name", "value"},
	}
	tb.AddRow("alpha", "1")
	tb.AddRow("beta-long-name", "22222")
	out := tb.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") {
		t.Errorf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + rule + 2 rows.
	if len(lines) != 5 {
		t.Errorf("table has %d lines, want 5:\n%s", len(lines), out)
	}
	// Columns align: both rows start their second column at the same
	// offset.
	i1 := strings.Index(lines[3], "1")
	i2 := strings.Index(lines[4], "22222")
	if i1 != i2 {
		t.Errorf("columns misaligned: %d vs %d", i1, i2)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := &Table{Headers: []string{"a"}}
	tb.AddRow("x", "extra", "more")
	out := tb.Render()
	if !strings.Contains(out, "more") {
		t.Error("ragged rows should still render")
	}
}

// fmtTable is the fmt-based rendering Table.Render must reproduce byte
// for byte: every cell written with %-*s at its column's byte width plus
// two, which fmt counts in runes.
func fmtTable(t *Table) string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		cols = max(cols, len(r))
	}
	width := make([]int, cols)
	for _, r := range append([][]string{t.Headers}, t.Rows...) {
		for i, c := range r {
			width[i] = max(width[i], len(c))
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", width[i]+2, c)
		}
		b.WriteString("\n")
	}
	if len(t.Headers) > 0 {
		line(t.Headers)
		total := 0
		for _, w := range width {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total) + "\n")
	}
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Render pads by runes exactly as fmt's width does, including multi-byte
// headers and cells, ragged rows, and tables without a title or headers;
// and it sizes its output up front, so a render of any size costs three
// allocations (widths, output, header rule).
func TestTableRenderMatchesFmt(t *testing.T) {
	tables := []*Table{
		{Title: "platform × scenario × governor grid",
			Headers: []string{"scenario", "avg T (°C)", "peak T (°C)", "δ energy"},
			Rows: [][]string{
				{"sunlight", "61.2", "84.0", "−3.1%"},
				{"rush-hour", "58.9", "96.4"},
				{"×", "°", "δδδδδδδδδδδδ", "±0.2", "extra"},
			}},
		{Headers: []string{"a", "bb"}, Rows: [][]string{{"ccc", ""}, {}}},
		{Title: "rows only", Rows: [][]string{{"x", "yy"}, {"zzz"}}},
		{},
	}
	for i, tb := range tables {
		got, want := tb.Render(), fmtTable(tb)
		if got != want {
			t.Errorf("table %d:\n--- Render ---\n%q\n--- fmt ---\n%q", i, got, want)
		}
		if allocs := testing.AllocsPerRun(20, func() { _ = tb.Render() }); allocs > 3 {
			t.Errorf("table %d: Render made %v allocations, want at most 3", i, allocs)
		}
	}
}

func TestBarChart(t *testing.T) {
	c := &BarChart{
		Title:  "energy",
		Unit:   "J",
		Series: []string{"EEMP", "TEEM"},
		Groups: []BarGroup{
			{Label: "CV", Values: []float64{400, 300}},
			{Label: "SR", Values: []float64{260, 220}},
		},
		Width: 20,
	}
	out := c.Render()
	for _, want := range []string{"energy", "CV", "SR", "EEMP", "TEEM", "#", "400.0 J"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// The larger value gets the longer bar.
	lines := strings.Split(out, "\n")
	var eempBar, teemBar int
	for _, l := range lines {
		if strings.Contains(l, "400.0") {
			eempBar = strings.Count(l, "#")
		}
		if strings.Contains(l, "300.0") {
			teemBar = strings.Count(l, "#")
		}
	}
	if eempBar <= teemBar {
		t.Errorf("bar lengths wrong: %d vs %d", eempBar, teemBar)
	}
}

func TestBarChartZeroValues(t *testing.T) {
	c := &BarChart{Series: []string{"a"}, Groups: []BarGroup{{Label: "x", Values: []float64{0}}}}
	if out := c.Render(); !strings.Contains(out, "0.0") {
		t.Error("zero-value chart should render")
	}
}

func TestScatterMatrix(t *testing.T) {
	sm := &ScatterMatrix{
		Names: []string{"M", "AT"},
		Cols: [][]float64{
			{1, 2, 3, 4},
			{90, 88, 86, 84},
		},
	}
	out := sm.Render()
	if !strings.Contains(out, "M") || !strings.Contains(out, "AT") {
		t.Error("diagonal labels missing")
	}
	if !strings.Contains(out, "*") {
		t.Error("no scatter points rendered")
	}
	empty := &ScatterMatrix{}
	if out := empty.Render(); !strings.Contains(out, "empty") {
		t.Error("empty matrix should render placeholder")
	}
}

func TestResidualPlot(t *testing.T) {
	fitted := []float64{1, 2, 3, 4, 5}
	resid := []float64{0.1, -0.2, 0.05, -0.1, 0.15}
	out := ResidualPlot(fitted, resid, 40, 10)
	if !strings.Contains(out, "Residuals vs Fitted") || !strings.Contains(out, "*") {
		t.Errorf("residual plot incomplete:\n%s", out)
	}
	// Zero line marked when residuals straddle zero.
	if !strings.Contains(out, "0 |") {
		t.Error("zero line not marked")
	}
	if out := ResidualPlot(nil, nil, 10, 5); !strings.Contains(out, "empty") {
		t.Error("empty input should render placeholder")
	}
}

func TestPctAndImprovement(t *testing.T) {
	if got := Pct(0.155); got != "+15.50%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(-0.05); got != "-5.00%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Improvement(100, 80); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Improvement = %g", got)
	}
	if got := Improvement(0, 10); got != 0 {
		t.Errorf("Improvement with zero base = %g", got)
	}
}

// The point with the largest x lands in the last column even where
// scaling before dividing would round the quotient just below w-1
// (0 and 1.7000000000000004 over 20 columns gave column 18).
func TestScatterMaxXLastColumn(t *testing.T) {
	for _, xs := range [][]float64{{0, 1.7000000000000004}, {0.1, 1.8000000000000005}, {0.5, 8.4999999999999858}} {
		rows := scatterCell(xs, []float64{0, 1}, 20, 5)
		if rows[0][19] != '*' {
			t.Errorf("x %v: max-x point not in the last column:\n%s", xs, strings.Join(rows, "\n"))
		}
	}
}
