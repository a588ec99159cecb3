package obs

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Exposition accumulates metric families in Prometheus text exposition
// format 0.0.4 (the `text/plain; version=0.0.4` wire form): one
// `# HELP` and `# TYPE` line per family followed by its samples.
// Families render in the order first declared; callers keep output
// byte-stable by declaring in a fixed order and sorting label sets.
type Exposition struct {
	buf bytes.Buffer
}

// ContentType is the Content-Type for the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Metric opens a new family: mtype is counter, gauge, histogram or
// untyped. Help text has newlines and backslashes escaped per the
// format. Returns a handle to append samples.
func (e *Exposition) Metric(name, mtype, help string) *Metric {
	fmt.Fprintf(&e.buf, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(&e.buf, "# TYPE %s %s\n", name, mtype)
	return &Metric{e: e, name: name}
}

// Metric is one open family; Sample appends sample lines to it.
type Metric struct {
	e    *Exposition
	name string
}

// Sample appends one sample with the given label key/value pairs
// (alternating key, value). Label values are escaped per the format.
func (m *Metric) Sample(v float64, labels ...string) {
	m.sample("", v, labels)
}

func (m *Metric) sample(suffix string, v float64, labels []string) {
	b := &m.e.buf
	b.WriteString(m.name)
	b.WriteString(suffix)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(labels[i])
			b.WriteString(`="`)
			b.WriteString(escapeLabel(labels[i+1]))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(FormatValue(v))
	b.WriteByte('\n')
}

// Histogram writes a full histogram family from a snapshot: cumulative
// `_bucket` lines with `le` labels (ending at +Inf), then `_sum` and
// `_count`. Extra labels apply to every line.
func (e *Exposition) Histogram(name, help string, h HistSnapshot, labels ...string) {
	m := e.Metric(name, "histogram", help)
	cum := int64(0)
	for i, ub := range h.Bounds {
		cum += h.Counts[i]
		m.sample("_bucket", float64(cum), append(append([]string{}, labels...), "le", FormatValue(ub)))
	}
	m.sample("_bucket", float64(h.Count), append(append([]string{}, labels...), "le", "+Inf"))
	m.sample("_sum", h.Sum, labels)
	m.sample("_count", float64(h.Count), labels)
}

// Bytes returns the accumulated exposition.
func (e *Exposition) Bytes() []byte { return e.buf.Bytes() }

// FormatValue renders a sample value: shortest round-trip float, with
// the format's spellings for infinities and NaN.
func FormatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the format: backslash, double
// quote and newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// SortedKeys returns the map's keys sorted, for byte-stable per-tenant
// label ordering in expositions.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
