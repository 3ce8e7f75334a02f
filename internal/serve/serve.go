// Package serve exposes the experiment suite as a versioned JSON HTTP
// service — simulation as a service. The API speaks canonical
// simulation requests (package simreq): POST /v1/simulate runs (or
// returns the cached result of) one request, GET /v1/results/{hash}
// fetches a completed result by its canonical hash, and GET
// /v1/stream/{hash} replays the same simulation with the epoch
// telemetry observer attached, streaming JSONL as epochs retire.
//
// The server rides the suite's scheduler unchanged: concurrent
// requests for one canonical hash collapse onto a single simulation
// (per-key singleflight), trace memory stays bounded by Suite.Jobs, and
// a client disconnect cancels the underlying simulation once no other
// waiter wants its result. Result bodies are encoded exactly once and
// served verbatim afterwards, so repeated requests return byte-identical
// bytes — the cache-hit contract CI's service smoke job pins. Telemetry
// streams are never buffered: every /v1/stream request replays live and
// holds one epoch record at a time.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"droplet/internal/exp"
	"droplet/internal/sim"
	"droplet/internal/simreq"
	"droplet/internal/telemetry"
)

// Metrics is the monotonic counter set /metrics reports.
type Metrics struct {
	Requests     atomic.Int64
	CacheHits    atomic.Int64
	Simulations  atomic.Int64
	SimErrors    atomic.Int64
	BadRequests  atomic.Int64
	Streams      atomic.Int64
	Cancellation atomic.Int64
}

// result is one completed simulation: the response body as served (the
// byte-identity contract) plus the canonical request, kept so
// /v1/stream can re-execute the same simulation.
type result struct {
	body []byte
	req  simreq.Request
}

// Server is the HTTP facade over one exp.Suite.
type Server struct {
	suite *exp.Suite
	mux   *http.ServeMux

	mu      sync.Mutex
	results map[string]*result

	metrics Metrics
}

// New wraps suite in a Server. Every request resolves its own machine,
// so of the suite's settings only Jobs and Progress apply; its Base
// shapes experiment tables alone. TelemetryDir should stay empty (the
// service streams telemetry per request instead).
func New(suite *exp.Suite) *Server {
	s := &Server{
		suite:   suite,
		mux:     http.NewServeMux(),
		results: make(map[string]*result),
	}
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /v1/results/{hash}", s.handleResult)
	s.mux.HandleFunc("GET /v1/stream/{hash}", s.handleStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the routable handler (mountable under a prefix).
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// MetricsSnapshot returns the current counter values (for tests).
func (s *Server) MetricsSnapshot() map[string]int64 {
	return map[string]int64{
		"requests_total":      s.metrics.Requests.Load(),
		"cache_hits_total":    s.metrics.CacheHits.Load(),
		"simulations_total":   s.metrics.Simulations.Load(),
		"sim_errors_total":    s.metrics.SimErrors.Load(),
		"bad_requests_total":  s.metrics.BadRequests.Load(),
		"streams_total":       s.metrics.Streams.Load(),
		"cancellations_total": s.metrics.Cancellation.Load(),
	}
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error  string             `json:"error"`
	Fields simreq.FieldErrors `json:"fields,omitempty"`
}

// resultBody is the JSON shape of a completed simulation. Request holds
// the canonical request bytes verbatim, so a client can re-derive the
// hash from the response alone.
type resultBody struct {
	Version int             `json:"version"`
	Hash    string          `json:"hash"`
	Request json.RawMessage `json:"request"`
	Summary sim.Summary     `json:"summary"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.metrics.BadRequests.Add(1)
	body := errorBody{Error: err.Error()}
	var fe simreq.FieldErrors
	if errors.As(err, &fe) {
		body.Fields = fe
	}
	writeJSON(w, http.StatusBadRequest, body)
}

// handleSimulate decodes one canonical request, executes it through the
// suite's singleflight scheduler, and serves the stored body. The first
// completion encodes the body; every later hit — concurrent or not —
// serves those exact bytes with X-Cache: hit.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	q, err := simreq.Decode(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.badRequest(w, err)
		return
	}
	if q.Variant != "" {
		s.badRequest(w, simreq.FieldErrors{{
			Field: "variant",
			Error: "named machine variants exist only inside experiment tables and cannot be served",
		}})
		return
	}
	hash, err := q.Hash()
	if err != nil {
		s.badRequest(w, err)
		return
	}

	if body, ok := s.cachedBody(hash); ok {
		s.metrics.CacheHits.Add(1)
		s.serveBody(w, body, "hit")
		return
	}

	res, err := s.suite.SimResult(r.Context(), q)
	if err != nil {
		if errors.Is(err, context.Canceled) || r.Context().Err() != nil {
			// Client gone: nothing to write, nothing leaked — the
			// scheduler cancels the simulation when the last waiter
			// leaves.
			s.metrics.Cancellation.Add(1)
			return
		}
		s.metrics.SimErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	s.metrics.Simulations.Add(1)

	body, err := s.storeResult(hash, q, res)
	if err != nil {
		s.metrics.SimErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	s.serveBody(w, body, "miss")
}

// cachedBody returns the stored response body for hash, if present.
func (s *Server) cachedBody(hash string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if res, ok := s.results[hash]; ok {
		return res.body, true
	}
	return nil, false
}

// storeResult encodes the response body for hash exactly once. When two
// waiters of one flight race here, the first stored body wins and both
// serve it, preserving byte identity.
func (s *Server) storeResult(hash string, q simreq.Request, res *sim.Result) ([]byte, error) {
	canon, err := q.Canonical()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(resultBody{
		Version: simreq.Version,
		Hash:    hash,
		Request: canon,
		Summary: res.Summarize(),
	})
	if err != nil {
		return nil, err
	}
	b = append(b, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.results[hash]; ok {
		return prev.body, nil
	}
	s.results[hash] = &result{body: b, req: q}
	return b, nil
}

func (s *Server) serveBody(w http.ResponseWriter, body []byte, cache string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	w.Write(body)
}

// handleResult serves a previously completed result by hash.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	hash := r.PathValue("hash")
	body, ok := s.cachedBody(hash)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("serve: no result for hash %q (POST /v1/simulate first)", hash)})
		return
	}
	s.metrics.CacheHits.Add(1)
	s.serveBody(w, body, "hit")
}

// handleStream replays the simulation behind a completed hash with the
// epoch telemetry observer attached and streams the JSONL records as
// epochs retire. The observer is non-perturbing, so the replay's result
// matches the cached one bit for bit, and its stream is byte-identical
// across requests. Nothing is buffered: a stream's size grows with the
// run's length over its epoch, which the request chooses.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	s.metrics.Streams.Add(1)
	hash := r.PathValue("hash")
	s.mu.Lock()
	res, ok := s.results[hash]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("serve: no result for hash %q (POST /v1/simulate first)", hash)})
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	sink := &flushSink{enc: json.NewEncoder(w), flusher: flusher}
	if _, err := s.suite.SimTelemetry(r.Context(), res.req, sink); err != nil && !sink.began {
		// Nothing is written yet, so the failure can still be the status.
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// flushSink is a telemetry sink that encodes JSONL and flushes the HTTP
// response after every record, so clients observe epochs as they retire
// rather than at simulation end. began records that writing (and with it
// the 200 status) has started.
type flushSink struct {
	enc     *json.Encoder
	flusher http.Flusher
	began   bool
}

type metaLine struct {
	Meta *telemetry.RunMeta `json:"meta"`
}

func (s *flushSink) Begin(meta *telemetry.RunMeta) error {
	s.began = true
	if err := s.enc.Encode(metaLine{Meta: meta}); err != nil {
		return err
	}
	s.flush()
	return nil
}

func (s *flushSink) Emit(rec *telemetry.EpochRecord) error {
	if err := s.enc.Encode(rec); err != nil {
		return err
	}
	s.flush()
	return nil
}

func (s *flushSink) End() error { s.flush(); return nil }

func (s *flushSink) flush() {
	if s.flusher != nil {
		s.flusher.Flush()
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}
