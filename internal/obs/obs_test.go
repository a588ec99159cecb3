package obs

import (
	"math"
	"regexp"
	"strings"
	"testing"
)

// TestExpositionGolden pins the writer's byte-exact output for a small
// fixed exposition: HELP/TYPE ordering, label escaping, histogram
// rendering with cumulative buckets.
func TestExpositionGolden(t *testing.T) {
	var e Exposition
	e.Metric("teemd_jobs_done_total", "counter", "Jobs completed successfully.").Sample(42)
	m := e.Metric("teemd_tenant_submitted_total", "counter", "Per-tenant submissions.")
	m.Sample(7, "tenant", `a"b\c`)
	m.Sample(9, "tenant", "plain")
	h := NewHistogram(0.1, 1, 10)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(99)
	e.Histogram("teemd_job_latency_seconds", "Submit to done latency.", h.Snapshot())

	want := `# HELP teemd_jobs_done_total Jobs completed successfully.
# TYPE teemd_jobs_done_total counter
teemd_jobs_done_total 42
# HELP teemd_tenant_submitted_total Per-tenant submissions.
# TYPE teemd_tenant_submitted_total counter
teemd_tenant_submitted_total{tenant="a\"b\\c"} 7
teemd_tenant_submitted_total{tenant="plain"} 9
# HELP teemd_job_latency_seconds Submit to done latency.
# TYPE teemd_job_latency_seconds histogram
teemd_job_latency_seconds_bucket{le="0.1"} 1
teemd_job_latency_seconds_bucket{le="1"} 3
teemd_job_latency_seconds_bucket{le="10"} 3
teemd_job_latency_seconds_bucket{le="+Inf"} 4
teemd_job_latency_seconds_sum 100.05
teemd_job_latency_seconds_count 4
`
	if got := string(e.Bytes()); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if err := ValidateExposition(strings.NewReader(want)); err != nil {
		t.Errorf("golden exposition fails its own validator: %v", err)
	}
}

// TestValidateExposition exercises the validator's rejection paths.
func TestValidateExposition(t *testing.T) {
	valid := `# HELP x_total things
# TYPE x_total counter
x_total{a="b"} 1
`
	if err := ValidateExposition(strings.NewReader(valid)); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}

	cases := map[string]string{
		"no TYPE": `x_total 1
`,
		"no HELP": `# TYPE x_total counter
x_total 1
`,
		"TYPE after samples": `# HELP x things
# TYPE x gauge
x 1
# TYPE x counter
`,
		"duplicate TYPE": `# HELP x things
# TYPE x gauge
# TYPE x gauge
`,
		"unknown type": `# HELP x things
# TYPE x widget
`,
		"negative counter": `# HELP x_total things
# TYPE x_total counter
x_total -1
`,
		"duplicate series": `# HELP x things
# TYPE x gauge
x{a="b"} 1
x{a="b"} 2
`,
		"bad metric name": `# HELP 9x things
# TYPE 9x gauge
`,
		"bad label name": `# HELP x things
# TYPE x gauge
x{9a="b"} 1
`,
		"bad escape": `# HELP x things
# TYPE x gauge
x{a="b\t"} 1
`,
		"unterminated label": `# HELP x things
# TYPE x gauge
x{a="b} 1
`,
		"unsorted buckets": `# HELP h things
# TYPE h histogram
h_bucket{le="1"} 1
h_bucket{le="0.5"} 2
h_bucket{le="+Inf"} 2
h_sum 1
h_count 2
`,
		"decreasing buckets": `# HELP h things
# TYPE h histogram
h_bucket{le="1"} 3
h_bucket{le="2"} 1
h_bucket{le="+Inf"} 3
h_sum 1
h_count 3
`,
		"missing +Inf": `# HELP h things
# TYPE h histogram
h_bucket{le="1"} 1
h_sum 1
h_count 1
`,
		"count mismatch": `# HELP h things
# TYPE h histogram
h_bucket{le="1"} 1
h_bucket{le="+Inf"} 3
h_sum 1
h_count 4
`,
	}
	for name, body := range cases {
		if err := ValidateExposition(strings.NewReader(body)); err == nil {
			t.Errorf("%s: validator accepted invalid exposition:\n%s", name, body)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram(LatencyBuckets()...)
	for _, v := range []float64{0.0005, 0.003, 0.003, 1.5, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if s.Sum != 0.0005+0.003+0.003+1.5+100 {
		t.Errorf("sum = %v", s.Sum)
	}
	var inBuckets int64
	for _, c := range s.Counts {
		inBuckets += c
	}
	// 100 s overflows the last bucket and lives only in _count/+Inf.
	if inBuckets != 4 {
		t.Errorf("bucketed observations = %d, want 4", inBuckets)
	}
}

// Quantile must agree with Prometheus' histogram_quantile on the same
// buckets, and stay defined where that function returns NaN.
func TestHistogramQuantile(t *testing.T) {
	cases := []struct {
		name   string
		bounds []float64
		obs    []float64
		q      float64
		want   float64
	}{
		{"empty", []float64{1, 2, 4}, nil, 0.5, 0},
		{"empty q=1", []float64{1, 2, 4}, nil, 1, 0},
		{"one observation", []float64{1, 2, 4}, []float64{1.5}, 0.5, 1.5},
		{"inside a bucket", []float64{1, 2, 4}, []float64{0.5, 1.5, 1.5, 3, 3}, 0.5, 1.75},
		{"inside the last bucket", []float64{1, 2, 4}, []float64{0.5, 1.5, 1.5, 3, 3}, 0.9, 3.5},
		{"first bucket starts at 0", []float64{1, 2, 4}, []float64{0.5, 0.5, 3, 3}, 0.25, 0.5},
		{"rank in the overflow bucket", []float64{1, 2}, []float64{0.5, 5, 5, 5}, 0.5, 2},
		{"q=0", []float64{1, 2, 4}, []float64{3, 3.5}, 0, 2},
		{"q=1", []float64{1, 2, 4}, []float64{0.5, 1.5, 1.5, 3, 3}, 1, 4},
		{"q=1 with overflow", []float64{1, 2, 4}, []float64{0.5, 9}, 1, 4},
	}
	for _, c := range cases {
		h := NewHistogram(c.bounds...)
		for _, v := range c.obs {
			h.Observe(v)
		}
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Quantile(%g) = %g, want %g", c.name, c.q, got, c.want)
		}
	}
}

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Errorf("trace ids collide: %s", a)
	}
	if len(a) != 16 {
		t.Errorf("trace id %q has length %d, want 16", a, len(a))
	}
}

// The entropy-failure fallback must keep the documented 16-hex-char
// shape, not a distinguishable variant.
func TestFallbackTraceIDFormat(t *testing.T) {
	hexID := regexp.MustCompile(`^[0-9a-f]{16}$`)
	a, b := fallbackTraceID(), fallbackTraceID()
	if a == b {
		t.Errorf("fallback trace ids collide: %s", a)
	}
	for _, id := range []string{a, b} {
		if !hexID.MatchString(id) {
			t.Errorf("fallback trace id %q is not 16 hex chars", id)
		}
	}
}

func TestRunStatsAddAndString(t *testing.T) {
	var agg RunStats
	agg.Add(RunStats{Ticks: 10, Supersteps: 2, SuperstepTicks: 100, MaxJump: 64, RejectMeter: 3})
	agg.Add(RunStats{Ticks: 5, MaxJump: 32, TMUTrips: 1, ThermalNanos: 1000})
	if agg.Ticks != 15 || agg.MaxJump != 64 || agg.Rejections() != 3 {
		t.Errorf("aggregate = %+v", agg)
	}
	out := agg.String()
	for _, want := range []string{"115 ticks advanced", "max jump 64", "meter 3", "tmu trips 1", "phase wall"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	var noTiming RunStats
	if strings.Contains(noTiming.String(), "phase wall") {
		t.Error("zero-timing render should omit the phase wall line")
	}
}
