package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"wsnlink/internal/obs"
	"wsnlink/internal/scenario"
)

// LastRowIndexHeader is the resume header of the rows endpoint: the index
// of the last row the client already holds; the stream restarts after it.
const LastRowIndexHeader = "Last-Row-Index"

// RequestIDHeader carries the request correlation ID. The middleware takes
// the caller's value (or mints one), echoes it on the response, stashes it
// in the request context for log lines, and stamps it into error
// envelopes — so a coordinator→runner hop is traceable end to end with one
// grep.
const RequestIDHeader = "X-Request-ID"

// ListResponse is the GET /v1/campaigns body.
type ListResponse struct {
	Stats Stats       `json:"stats"`
	Jobs  []JobStatus `json:"jobs"`
}

// errorResponse is the JSON error envelope every non-2xx answer carries.
// RequestID echoes the request's correlation ID so a failure report can be
// matched to the server-side log line without the response headers.
type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/campaigns            submit a CampaignSpec → job status
//	                                (200 on a cache hit, 202 otherwise)
//	GET    /v1/campaigns            server stats + every job
//	GET    /v1/campaigns/{id}       one job's status
//	DELETE /v1/campaigns/{id}       cancel (in-flight work checkpoints)
//	GET    /v1/campaigns/{id}/rows  NDJSON row stream; resumes after the
//	                                Last-Row-Index header (or ?after=N)
//	GET    /healthz                 liveness: 200 while the process serves
//	GET    /readyz                  readiness: 503 once draining begins
//	GET    /metrics                 Prometheus text exposition (503 when no
//	                                metrics registry is configured)
//
// Every API route runs through the telemetry middleware (request counts by
// status class, in-flight gauge, per-route latency); the probes and the
// scrape endpoint stay out of their own measurements.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.instrument("/v1/campaigns", "POST", s.handleSubmit))
	mux.HandleFunc("GET /v1/campaigns", s.instrument("/v1/campaigns", "GET", s.handleList))
	mux.HandleFunc("GET /v1/campaigns/{id}", s.instrument("/v1/campaigns/{id}", "GET", s.handleStatus))
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.instrument("/v1/campaigns/{id}", "DELETE", s.handleCancel))
	mux.HandleFunc("GET /v1/campaigns/{id}/rows", s.instrument("/v1/campaigns/{id}/rows", "GET", s.handleRows))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", s.opts.Registry.Handler())
	return mux
}

// handleHealthz is the liveness probe: the process is up and its listener
// answers. It stays 200 during a drain — the process is alive precisely so
// in-flight work can checkpoint.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: it flips to 503 the moment a drain
// begins, so load balancers route new campaigns elsewhere while the drain's
// checkpointing finishes behind it.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// instrument wraps one route with request-ID propagation and, when a
// registry is configured, the HTTP telemetry: request counter by status
// class, in-flight gauge, latency histogram. The request-ID half always
// runs — correlation must not depend on metrics being enabled.
func (s *Server) instrument(route, method string, h http.HandlerFunc) http.HandlerFunc {
	var lat *obs.Histogram
	if s.tel != nil {
		lat = s.tel.httpLatency.With(route)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(RequestIDHeader)
		if rid == "" {
			rid = obs.NewRequestID()
		}
		w.Header().Set(RequestIDHeader, rid)
		r = r.WithContext(obs.WithRequestID(r.Context(), rid))
		if s.tel == nil {
			h(w, r)
			return
		}
		start := time.Now()
		s.tel.httpInflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		s.tel.httpInflight.Add(-1)
		lat.Observe(time.Since(start).Seconds())
		s.tel.httpRequests.With(route, method, statusClass(rec.code)).Inc()
	}
}

// statusRecorder captures the response status for the request counter. It
// must keep implementing http.Flusher: the rows handler streams NDJSON
// through it and flushes each time it catches up with the runner.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if fl, ok := r.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// statusClass buckets a status code into the label the request counter
// uses; an untouched recorder means the handler wrote nothing, which the
// net/http server sends as 200.
func statusClass(code int) string {
	switch {
	case code == 0 || code/100 == 2:
		return "2xx"
	case code/100 == 3:
		return "3xx"
	case code/100 == 4:
		return "4xx"
	default:
		return "5xx"
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad campaign spec: %w", err))
		return
	}
	st, err := s.SubmitCtx(r.Context(), spec)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	code := http.StatusAccepted
	if st.CacheHit {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ListResponse{Stats: s.Stats(), Jobs: s.List()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.Status(id)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	after := -1
	if v := r.Header.Get(LastRowIndexHeader); v != "" {
		after, err = strconv.Atoi(v)
	} else if v := r.URL.Query().Get("after"); v != "" {
		after, err = strconv.Atoi(v)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad resume index: %w", err))
		return
	}

	fl, _ := w.(http.Flusher)
	scenarioJob := st.Spec.ScenarioKind() != scenario.KindLink
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Campaign-Id", st.ID)
	h.Set("X-Campaign-Fingerprint", st.Fingerprint)
	if scenarioJob {
		h.Set("X-Campaign-Scenario", string(st.Spec.ScenarioKind()))
	}
	w.WriteHeader(http.StatusOK)
	if fl != nil {
		fl.Flush() // commit headers before the first row is ready
	}

	var caughtUp func()
	if fl != nil {
		caughtUp = fl.Flush
	}
	s.streamLines(r.Context(), id, after, func(lines []byte) error { //nolint:errcheck // the stream just ends; the client re-checks status
		_, err := w.Write(lines)
		return err
	}, caughtUp)
}

// errStatus maps service errors onto HTTP status codes; anything
// unrecognized is a client-side validation failure.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing left to report to this client
}

// writeError renders the error envelope, echoing the correlation ID the
// middleware already stamped on the response headers.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{
		Error:     err.Error(),
		RequestID: w.Header().Get(RequestIDHeader),
	})
}
