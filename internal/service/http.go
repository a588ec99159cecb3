package service

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"

	"teem/internal/buildinfo"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit a job (JobRequest JSON) → JobStatus
//	GET    /v1/jobs             list retained jobs → []JobStatus
//	GET    /v1/jobs/{id}        poll one job → JobStatus
//	GET    /v1/jobs/{id}/result rendered result text (byte-identical to the CLI)
//	GET    /v1/jobs/{id}/stream live NDJSON telemetry (replays history, then follows)
//	POST   /v1/jobs/{id}/cancel cancel (DELETE /v1/jobs/{id} is an alias)
//	GET    /healthz             liveness + queue counts + journal health
//	GET    /metrics             service counters: JSON by default, Prometheus
//	                            text exposition under `Accept: text/plain`
//	GET    /trace               job lifecycle spans as NDJSON (?follow=1 streams)
//	GET    /debug/vars          process-wide expvar (includes teemd.* when published)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /trace", s.handleTrace)
	mux.Handle("GET /metrics", s.Metrics())
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, err error) {
	// Admission rejections — quota or queue pressure — are 429 with a
	// Retry-After hint: the condition is per-tenant and transient, not a
	// daemon-wide 503.
	var re *RetryError
	if errors.As(err, &re) {
		secs := int(math.Ceil(re.After.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
		return
	}
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrQuotaExceeded), errors.Is(err, ErrBusy):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrNotDone), errors.Is(err, ErrAlreadyDone):
		code = http.StatusConflict
	}
	writeJSON(w, code, apiError{Error: err.Error()})
}

// maxRequestBytes caps a submit body. Inline scenarios and arrival
// traces are kilobytes; a larger body answers 413 before anything is
// admitted, so it creates no job and no journal record.
const maxRequestBytes = 1 << 20

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, apiError{Error: fmt.Sprintf("decoding request: %v", err)})
		return
	}
	j, cached, err := s.Submit(&req)
	if err != nil {
		if errors.Is(err, ErrBusy) || errors.Is(err, ErrClosed) || errors.Is(err, ErrQuotaExceeded) {
			writeError(w, err)
		} else {
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		}
		return
	}
	js := j.Snapshot()
	js.Cached = cached
	code := http.StatusAccepted
	if cached {
		code = http.StatusOK
	}
	writeJSON(w, code, js)
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	text, _, err := j.Result()
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(text))
}

func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	serveNDJSON(w, r, j.stream, true)
}

// serveNDJSON writes an event log to the client as NDJSON, flushing
// after every line: the replay, then — with live — everything new until
// the log closes or the client disconnects.
func serveNDJSON(w http.ResponseWriter, r *http.Request, l *eventLog, live bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	_ = l.follow(r.Context(), live, func(line []byte) error {
		if _, werr := w.Write(line); werr != nil {
			return werr
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		if errors.Is(err, ErrNotFound) {
			writeError(w, err)
		} else {
			writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
		}
		return
	}
	j, err := s.Job(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// handleTrace serves the service-wide lifecycle-span ring as NDJSON:
// the buffered spans, then — with ?follow=1 — everything new until the
// client disconnects.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	serveNDJSON(w, r, s.spans, r.URL.Query().Get("follow") == "1")
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	jh := s.journal.health()
	status := "ok"
	code := http.StatusOK
	if jh.Degraded {
		// The daemon serves, but the last journal flush failed:
		// acknowledged work may not survive a crash until one lands.
		status = "degraded"
	}
	if closed {
		// A draining daemon fails its health check so load balancers
		// stop routing to it while in-flight jobs finish.
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	body := map[string]any{"status": status, "version": buildinfo.Version, "journal": jh}
	m := s.metrics
	reported := []*expvar.Int{&m.queued, &m.running, &m.recoveries}
	for _, c := range m.counters() {
		if slices.Contains(reported, c.v) {
			body[c.key] = c.v.Value()
		}
	}
	writeJSON(w, code, body)
}
