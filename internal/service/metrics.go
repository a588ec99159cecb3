package service

import (
	"encoding/json"
	"expvar"
	"fmt"
	"maps"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"teem/internal/buildinfo"
	"teem/internal/obs"
)

// counter is one metric declared once: the value it reads, its key in
// the /metrics JSON document (for a service counter also its expvar
// name, "teemd."+key), and its Prometheus family, type and help text.
type counter struct {
	v                        *expvar.Int
	key, family, mtype, help string
}

// tenantStats are one tenant's admission counters: how much work it has
// in the system right now and how admission control has treated it.
// The tenant table (counters) says what each one counts; submitted
// excludes cache hits.
type tenantStats struct {
	queued        expvar.Int
	submitted     expvar.Int
	done          expvar.Int
	shed          expvar.Int
	quotaRejected expvar.Int
}

// counters is the tenant table, in exposition order. Tenants appear in
// the JSON document (under "tenants") and as tenant-labelled Prometheus
// families, not as expvars.
func (t *tenantStats) counters() []counter {
	return []counter{
		{&t.queued, "queued", "teemd_tenant_jobs_active", "gauge", "Per-tenant non-terminal jobs (queued + running)."},
		{&t.submitted, "submitted", "teemd_tenant_submitted_total", "counter", "Per-tenant accepted submissions."},
		{&t.done, "done", "teemd_tenant_done_total", "counter", "Per-tenant successful completions."},
		{&t.shed, "shed", "teemd_tenant_shed_total", "counter", "Per-tenant jobs displaced from the queue."},
		{&t.quotaRejected, "quota_rejected", "teemd_tenant_quota_rejected_total", "counter", "Per-tenant quota rejections."},
	}
}

func (t *tenantStats) vars() map[string]int64 {
	out := make(map[string]int64)
	for _, c := range t.counters() {
		out[c.key] = c.v.Value()
	}
	return out
}

// metrics are the service's operational counters, held as expvar types
// so the daemon can publish them into the process-wide expvar registry
// (/debug/vars) while tests run many isolated services without
// colliding on the global namespace.
type metrics struct {
	queued    expvar.Int
	running   expvar.Int
	done      expvar.Int
	failed    expvar.Int
	cancelled expvar.Int
	cacheHits expvar.Int

	// Robustness counters: load shedding, transient-failure retries,
	// quota rejections, journal health and crash recovery.
	shed               expvar.Int
	retried            expvar.Int
	quotaRejected      expvar.Int
	recoveries         expvar.Int
	recoverySkipped    expvar.Int
	journalAppends     expvar.Int
	journalErrors      expvar.Int
	journalCompactions expvar.Int
	journalBytes       expvar.Int

	tenantMu sync.Mutex
	tenants  map[string]*tenantStats //teem:guards tenantMu

	mu sync.Mutex
	// latHist and runHist are the job latency distributions: submit→
	// finish and start→finish. latHist is also the one source of the
	// latency percentiles.
	latHist *obs.Histogram //teem:guards mu
	runHist *obs.Histogram //teem:guards mu
}

// counters is the service table, in exposition order.
func (m *metrics) counters() []counter {
	return []counter{
		{&m.queued, "jobs_queued", "teemd_jobs_queued", "gauge", "Jobs accepted and waiting for a worker."},
		{&m.running, "jobs_running", "teemd_jobs_running", "gauge", "Jobs currently executing."},
		{&m.done, "jobs_done", "teemd_jobs_done_total", "counter", "Jobs finished successfully."},
		{&m.failed, "jobs_failed", "teemd_jobs_failed_total", "counter", "Jobs finished in failure."},
		{&m.cancelled, "jobs_cancelled", "teemd_jobs_cancelled_total", "counter", "Jobs cancelled before or during execution."},
		{&m.shed, "jobs_shed", "teemd_jobs_shed_total", "counter", "Queued jobs displaced by higher-priority submissions."},
		{&m.retried, "jobs_retried", "teemd_jobs_retried_total", "counter", "Transient-failure re-executions."},
		{&m.cacheHits, "cache_hits", "teemd_cache_hits_total", "counter", "Submissions answered by the request-hash cache."},
		{&m.quotaRejected, "quota_rejected", "teemd_quota_rejected_total", "counter", "Submissions refused by tenant quotas."},
		{&m.recoveries, "recoveries", "teemd_recoveries_total", "counter", "Jobs re-run from the journal at startup."},
		{&m.recoverySkipped, "recovery_skipped", "teemd_recovery_skipped_total", "counter", "Journal records skipped during recovery."},
		{&m.journalAppends, "journal_appends", "teemd_journal_appends_total", "counter", "Fsynced journal batches."},
		{&m.journalErrors, "journal_errors", "teemd_journal_errors_total", "counter", "Dropped or failed journal writes."},
		{&m.journalCompactions, "journal_compactions", "teemd_journal_compactions_total", "counter", "Journal rewrites to the live image."},
		{&m.journalBytes, "journal_bytes", "teemd_journal_bytes", "gauge", "Journal file size after the last flush."},
	}
}

// readings are the JSON keys (and teemd.* expvars) computed on read
// rather than counted.
func (m *metrics) readings() map[string]func() any {
	return map[string]func() any{
		"version":       func() any { return buildinfo.Version },
		"latency_p50_s": func() any { return m.latencyQuantile(0.50) },
		"latency_p99_s": func() any { return m.latencyQuantile(0.99) },
	}
}

func newMetrics() *metrics {
	return &metrics{
		tenants: make(map[string]*tenantStats),
		latHist: obs.NewHistogram(obs.LatencyBuckets()...),
		runHist: obs.NewHistogram(obs.LatencyBuckets()...),
	}
}

// tenant returns (creating if needed) the named tenant's counters.
func (m *metrics) tenant(name string) *tenantStats {
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	t, ok := m.tenants[name]
	if !ok {
		t = &tenantStats{}
		m.tenants[name] = t
	}
	return t
}

// observeLatency records one job's submit→finish latency.
func (m *metrics) observeLatency(d time.Duration) {
	m.mu.Lock()
	m.latHist.Observe(d.Seconds())
	m.mu.Unlock()
}

// observeRun records one job's start→finish run duration.
func (m *metrics) observeRun(d time.Duration) {
	m.mu.Lock()
	m.runHist.Observe(d.Seconds())
	m.mu.Unlock()
}

// latencyQuantile estimates the q-quantile of job submit→finish latency
// in seconds, over every job since the service started.
func (m *metrics) latencyQuantile(q float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latHist.Quantile(q)
}

// Metrics is the read-only view of a service's counters.
type Metrics struct{ m *metrics }

// Queued/Running/Done/Failed/Cancelled/CacheHits read the counters.
func (v *Metrics) Queued() int64    { return v.m.queued.Value() }
func (v *Metrics) Running() int64   { return v.m.running.Value() }
func (v *Metrics) Done() int64      { return v.m.done.Value() }
func (v *Metrics) Failed() int64    { return v.m.failed.Value() }
func (v *Metrics) Cancelled() int64 { return v.m.cancelled.Value() }
func (v *Metrics) CacheHits() int64 { return v.m.cacheHits.Value() }

// Shed counts queued jobs displaced by higher-priority submissions;
// Retried counts transient-failure re-executions; Recoveries counts jobs
// re-run from the journal at startup.
func (v *Metrics) Shed() int64       { return v.m.shed.Value() }
func (v *Metrics) Retried() int64    { return v.m.retried.Value() }
func (v *Metrics) Recoveries() int64 { return v.m.recoveries.Value() }

// LatencyP50 and LatencyP99 estimate the job submit→finish latency
// percentiles, in seconds, from the teemd_job_latency_seconds histogram:
// lifetime values, interpolated inside a bucket like Prometheus'
// histogram_quantile.
func (v *Metrics) LatencyP50() float64 { return v.m.latencyQuantile(0.50) }
func (v *Metrics) LatencyP99() float64 { return v.m.latencyQuantile(0.99) }

// vars returns the metric set as a JSON-marshalable map — served at
// /metrics. Every top-level key but "tenants" is also a teemd.* expvar.
func (v *Metrics) vars() map[string]any {
	out := map[string]any{}
	for k, f := range v.m.readings() {
		out[k] = f()
	}
	for _, c := range v.m.counters() {
		out[c.key] = c.v.Value()
	}
	tenants := map[string]map[string]int64{}
	v.m.tenantMu.Lock()
	for name, t := range v.m.tenants {
		tenants[name] = t.vars()
	}
	v.m.tenantMu.Unlock()
	if len(tenants) > 0 {
		out["tenants"] = tenants
	}
	return out
}

// prom renders the metric set in Prometheus text exposition format
// 0.0.4: the service table, the tenant table as tenant-labelled
// families in sorted tenant order (byte-stable output for a fixed
// counter state), and the latency/run-duration histograms.
func (v *Metrics) prom() []byte {
	m := v.m
	var e obs.Exposition
	e.Metric("teemd_build_info", "gauge",
		"Build metadata; the version label carries the daemon version.").
		Sample(1, "version", buildinfo.Version)
	for _, c := range m.counters() {
		e.Metric(c.family, c.mtype, c.help).Sample(float64(c.v.Value()))
	}

	m.tenantMu.Lock()
	tenants := maps.Clone(m.tenants)
	m.tenantMu.Unlock()
	names := obs.SortedKeys(tenants)
	rows := make([][]counter, len(names))
	for i, name := range names {
		rows[i] = tenants[name].counters()
	}
	if len(rows) > 0 {
		for f, fam := range rows[0] {
			pm := e.Metric(fam.family, fam.mtype, fam.help)
			for i, name := range names {
				pm.Sample(float64(rows[i][f].v.Value()), "tenant", name)
			}
		}
	}

	m.mu.Lock()
	lat := m.latHist.Snapshot()
	run := m.runHist.Snapshot()
	m.mu.Unlock()
	e.Histogram("teemd_job_latency_seconds", "Job submit-to-finish latency.", lat)
	e.Histogram("teemd_job_run_seconds", "Job start-to-finish run duration.", run)
	return e.Bytes()
}

// wantsProm reports whether the request negotiates the Prometheus text
// exposition: an Accept media range whose type is text/plain or an
// openmetrics dialect, with a non-zero quality (q=0 is an explicit
// refusal, RFC 9110 §12.4.2). Everything else — including no Accept at
// all — gets the original JSON document, byte-stable for existing
// scrapers and the soak tests.
func wantsProm(r *http.Request) bool {
	for _, rng := range strings.Split(r.Header.Get("Accept"), ",") {
		mediaType, params, _ := strings.Cut(rng, ";")
		mt := strings.ToLower(strings.TrimSpace(mediaType))
		if mt != "text/plain" && !strings.Contains(mt, "openmetrics") {
			continue
		}
		if acceptQ(params) > 0 {
			return true
		}
	}
	return false
}

// acceptQ extracts the q weight from one media range's parameters,
// defaulting to 1 when absent or malformed.
func acceptQ(params string) float64 {
	for _, p := range strings.Split(params, ";") {
		k, v, ok := strings.Cut(p, "=")
		if !ok || strings.ToLower(strings.TrimSpace(k)) != "q" {
			continue
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return 1
		}
		return q
	}
	return 1
}

// ServeHTTP serves the metric set (the /metrics endpoint): Prometheus
// text exposition when the client asks for it, JSON otherwise.
func (v *Metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r != nil && wantsProm(r) {
		w.Header().Set("Content-Type", obs.ContentType)
		_, _ = w.Write(v.prom())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v.vars())
}

// publishOnce guards the process-global expvar namespace: the daemon
// runs one Service, tests run many, and expvar.Publish panics on
// duplicate names.
var publishOnce sync.Once

// PublishExpvar publishes the service's counters into the process-wide
// expvar registry under "teemd.*" (visible at /debug/vars): every
// top-level key of the /metrics JSON document except "tenants". Only
// the first service in the process binds; later calls are no-ops — the
// daemon use case, where exactly one service exists.
func (v *Metrics) PublishExpvar() {
	publishOnce.Do(func() {
		for _, c := range v.m.counters() {
			expvar.Publish("teemd."+c.key, c.v)
		}
		for k, f := range v.m.readings() {
			expvar.Publish("teemd."+k, expvar.Func(f))
		}
	})
}

// String renders a one-line summary for logs.
func (v *Metrics) String() string {
	return fmt.Sprintf("queued=%d running=%d done=%d failed=%d cancelled=%d shed=%d retried=%d cache_hits=%d recoveries=%d p50=%.3fs p99=%.3fs",
		v.Queued(), v.Running(), v.Done(), v.Failed(), v.Cancelled(), v.Shed(), v.Retried(),
		v.CacheHits(), v.Recoveries(), v.LatencyP50(), v.LatencyP99())
}
