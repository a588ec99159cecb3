package service

import (
	"bytes"
	"expvar"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"teem/internal/obs"
)

// goldenMetrics is one fixed counter state: every service counter and
// gauge holds a distinct value, two tenants hold distinct values in
// every tenant counter, and both histograms hold the same fixed
// observations, so each golden below pins exactly one rendering.
func goldenMetrics() *Metrics {
	m := newMetrics()
	for i, c := range []*expvar.Int{
		&m.queued, &m.running, &m.done, &m.failed, &m.cancelled, &m.cacheHits,
		&m.shed, &m.retried, &m.quotaRejected, &m.recoveries, &m.recoverySkipped,
		&m.journalAppends, &m.journalErrors, &m.journalCompactions, &m.journalBytes,
	} {
		c.Set(int64(i + 1))
	}
	for i, name := range []string{"beta", "alpha"} {
		t := m.tenant(name)
		for j, c := range []*expvar.Int{&t.queued, &t.submitted, &t.done, &t.shed, &t.quotaRejected} {
			c.Set(int64(10*(i+1) + j))
		}
	}
	for _, ms := range []int{3, 40, 40, 700, 9000} {
		m.observeLatency(time.Duration(ms) * time.Millisecond)
		m.observeRun(time.Duration(ms/2) * time.Millisecond)
	}
	return &Metrics{m: m}
}

// checkMetricsGolden compares got with testdata/<name> byte for byte.
func checkMetricsGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden bytes\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestMetricsJSONGolden pins the /metrics JSON document for a fixed
// counter state. The two latency percentile lines are dropped before
// the comparison: they are estimates whose method may change, while
// every counter key and value must stay byte-stable for scrapers.
func TestMetricsJSONGolden(t *testing.T) {
	w := httptest.NewRecorder()
	goldenMetrics().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	var kept []string
	for _, ln := range strings.SplitAfter(w.Body.String(), "\n") {
		if !strings.Contains(ln, `"latency_p50_s"`) && !strings.Contains(ln, `"latency_p99_s"`) {
			kept = append(kept, ln)
		}
	}
	checkMetricsGolden(t, "metrics.json.golden", []byte(strings.Join(kept, "")))
}

// TestMetricsPromGolden pins the Prometheus text exposition for the
// same fixed counter state, histograms included.
func TestMetricsPromGolden(t *testing.T) {
	prom := goldenMetrics().prom()
	if err := obs.ValidateExposition(bytes.NewReader(prom)); err != nil {
		t.Fatalf("golden exposition invalid: %v", err)
	}
	checkMetricsGolden(t, "metrics.prom.golden", prom)
}

// newExpvarNames are the names /debug/vars gained when the expvar set
// started to mirror every counter of the JSON document.
var newExpvarNames = []string{"teemd.recovery_skipped", "teemd.journal_appends", "teemd.journal_compactions"}

// TestExpvarNamesGolden pins the teemd.* names PublishExpvar binds:
// every name in the golden list must stay published, and the only
// names beyond it are newExpvarNames.
func TestExpvarNamesGolden(t *testing.T) {
	goldenMetrics().PublishExpvar()
	var got []string
	expvar.Do(func(kv expvar.KeyValue) {
		if strings.HasPrefix(kv.Key, "teemd.") {
			got = append(got, kv.Key)
		}
	})
	raw, err := os.ReadFile(filepath.Join("testdata", "expvar_names.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(raw))
	for _, name := range want {
		if !slices.Contains(got, name) {
			t.Errorf("expvar %s is no longer published", name)
		}
	}
	for _, name := range got {
		if !slices.Contains(want, name) && !slices.Contains(newExpvarNames, name) {
			t.Errorf("unexpected expvar %s", name)
		}
	}
}

// TestExpvarMirrorsJSON checks that /debug/vars lists every counter:
// each top-level key of the /metrics JSON document except "tenants" is
// published as teemd.<key>, and nothing else is.
func TestExpvarMirrorsJSON(t *testing.T) {
	v := goldenMetrics()
	v.PublishExpvar()
	var want []string
	for key := range v.vars() {
		if key != "tenants" {
			want = append(want, "teemd."+key)
		}
	}
	var got []string
	expvar.Do(func(kv expvar.KeyValue) {
		if strings.HasPrefix(kv.Key, "teemd.") {
			got = append(got, kv.Key)
		}
	})
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("teemd.* expvars = %v, want %v", got, want)
	}
}
