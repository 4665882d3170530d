// Package cashd is the network-facing simulation service: an HTTP/JSON
// daemon wrapping the internal/serve batch engine behind the versioned
// wire API of package spatial/api. It is the paper's "replicate the
// circuit" argument at datacenter scale — one compiled program, served
// to any number of callers, from any number of daemons.
//
// Routes (all under the frozen api.Version prefix):
//
//	POST /v1/compile    compile (and cache) a program without running it
//	POST /v1/run        one simulation; "trace": true records a downloadable trace
//	POST /v1/batch      many simulations, results in request order
//	GET  /v1/trace/{id} Chrome trace-event JSON of a recorded run
//	GET  /metrics       Prometheus text: cache, queue, shed, latency
//	GET  /healthz       liveness
//
// Every endpoint that compiles or runs submits jobs to the engine, whose
// one bounded queue admits, counts and drains them all; /v1/compile and
// /v1/run are shed with 429 when it is full.
// Failures carry a typed api.Error body whose class fixes the HTTP
// status (compile/sim → 422, overload → 429 + Retry-After, deadline →
// 504, internal → 500). A daemon is peer-unaware: it serves every
// program it is sent. Splitting the key space across several daemons is
// the client's job (package spatial/client routes by api.Ring).
package cashd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"spatial/api"
	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/serve"
)

// maxBodyBytes bounds request bodies; programs are text, a megabyte of
// cMinor is enormous.
const maxBodyBytes = 4 << 20

// Config parameterizes a Server.
type Config struct {
	// Engine configures the wrapped batch engine (workers, queue,
	// cache bound).
	Engine serve.Config
	// MaxTraces bounds the recorded traces held for download; 0 means 32.
	MaxTraces int
}

// Server is the daemon: an http.Handler plus the engine it wraps.
type Server struct {
	eng    *serve.Engine
	mux    *http.ServeMux
	met    *metrics
	traces *traceStore
}

// New builds a server. Its error result is always nil.
func New(cfg Config) (*Server, error) {
	if cfg.MaxTraces <= 0 {
		cfg.MaxTraces = 32
	}
	s := &Server{
		eng:    serve.New(cfg.Engine),
		met:    newMetrics(),
		traces: newTraceStore(cfg.MaxTraces),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /"+api.Version+"/compile", s.instrument("compile", s.handleCompile))
	mux.HandleFunc("POST /"+api.Version+"/run", s.instrument("run", s.handleRun))
	mux.HandleFunc("POST /"+api.Version+"/batch", s.instrument("batch", s.handleBatch))
	mux.HandleFunc("GET /"+api.Version+"/trace/{id}", s.instrument("trace", s.handleTrace))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	s.mux = mux
	return s, nil
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler { return s.mux }

// Engine exposes the wrapped batch engine (stats, and direct submission
// in tests).
func (s *Server) Engine() *serve.Engine { return s.eng }

// Close drains and stops the engine. In-flight HTTP requests should be
// drained first (http.Server.Shutdown).
func (s *Server) Close() { s.eng.Close() }

// instrument wraps a handler with the request counter and status capture.
func (s *Server) instrument(endpoint string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		s.met.countRequest(endpoint, sw.status())
	}
}

// statusWriter captures the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// decode reads a strict JSON body into v: unknown fields and trailing
// garbage are bad requests — a versioned API that silently drops fields
// would hide client bugs until they ship.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// writeJSON writes a 200 response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// overloadRetryAfter is the backoff hint handed to shed clients.
const overloadRetryAfter = 25 * time.Millisecond

// writeError writes a typed error body with its class's status. 429
// responses also carry Retry-After (seconds, ceiling) for generic
// HTTP clients.
func writeError(w http.ResponseWriter, e *api.Error) {
	status := e.Class.HTTPStatus()
	e.Status = status
	w.Header().Set("Content-Type", "application/json")
	if e.Class == api.ClassOverload {
		e.RetryAfterMS = overloadRetryAfter.Milliseconds()
		secs := (e.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(e)
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeError(w, &api.Error{Class: api.ClassBadRequest, Message: fmt.Sprintf(format, args...)})
}

// errorFor classifies an engine/library failure into its wire class.
// Order matters: deadline conditions ride inside ErrSim-classed errors
// (the simulator aborts with dataflow.ErrCanceled when its context
// dies), so they are peeled off first.
func errorFor(err error) *api.Error {
	e := &api.Error{Message: err.Error()}
	switch {
	case errors.Is(err, serve.ErrOverload):
		e.Class = api.ClassOverload
	case errors.Is(err, serve.ErrClosed):
		e.Class = api.ClassClosed
	case errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled),
		errors.Is(err, dataflow.ErrCanceled):
		e.Class = api.ClassDeadline
	case errors.Is(err, core.ErrCompile):
		e.Class = api.ClassCompile
	case errors.Is(err, core.ErrSim):
		e.Class = api.ClassSim
		// Attach the structured diagnosis when one exists; the first
		// line of a StuckReport names the cycle or the missing producer.
		var dead *dataflow.DeadlockError
		var live *dataflow.LivelockError
		if errors.As(err, &dead) {
			e.Report = dead.Report.Render()
		} else if errors.As(err, &live) {
			e.Report = live.Report.Render()
		}
	default:
		e.Class = api.ClassInternal
	}
	return e
}

// toServeRequest lifts a wire run request into the engine's form.
func toServeRequest(rr api.RunRequest) serve.Request {
	return serve.Request{
		Program:  rr.Program,
		Entry:    rr.Entry,
		Args:     rr.Args,
		Trace:    rr.Trace,
		Deadline: time.Duration(rr.TimeoutMS) * time.Millisecond,
	}
}

// runResponse builds the wire form of one engine response; traceID names
// its stored trace, if any.
func runResponse(resp *serve.Response, traceID string) *api.RunResponse {
	return &api.RunResponse{
		Value:    resp.Value,
		Stats:    toWireStats(resp.Stats),
		CacheHit: resp.CacheHit,
		WaitNS:   resp.Wait.Nanoseconds(),
		TotalNS:  resp.Total.Nanoseconds(),
		TraceID:  traceID,
	}
}

func toWireStats(st dataflow.Stats) api.Stats {
	return api.Stats{
		Cycles:    st.Cycles,
		Events:    st.Events,
		OpsFired:  st.OpsFired,
		DynLoads:  st.DynLoads,
		DynStores: st.DynStores,
		NullMem:   st.NullMem,
		Calls:     st.Calls,
	}
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req api.CompileRequest
	if err := decode(r, &req); err != nil {
		badRequest(w, "compile: %v", err)
		return
	}
	if req.Source == "" {
		badRequest(w, "compile: empty source")
		return
	}
	start := time.Now()
	hit, err := s.eng.Compile(r.Context(), req)
	if err != nil {
		writeError(w, errorFor(err))
		return
	}
	if !hit {
		s.met.observe(&s.met.compile, time.Since(start))
	}
	writeJSON(w, api.CompileResponse{Key: req.Key().String(), CacheHit: hit})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	if err := decode(r, &req); err != nil {
		badRequest(w, "run: %v", err)
		return
	}
	if req.Source == "" {
		badRequest(w, "run: empty source")
		return
	}
	start := time.Now()
	resp, err := s.eng.Do(r.Context(), toServeRequest(req))
	if err != nil {
		writeError(w, errorFor(err))
		return
	}
	s.met.observe(&s.met.run, time.Since(start))
	var traceID string
	if resp.Trace != nil {
		traceID = s.traces.add(resp.Trace)
	}
	writeJSON(w, runResponse(resp, traceID))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if err := decode(r, &req); err != nil {
		badRequest(w, "batch: %v", err)
		return
	}
	if len(req.Runs) == 0 {
		badRequest(w, "batch: empty runs")
		return
	}
	reqs := make([]serve.Request, len(req.Runs))
	for i, rr := range req.Runs {
		if rr.Source == "" {
			badRequest(w, "batch: runs[%d]: empty source", i)
			return
		}
		if rr.Trace {
			badRequest(w, "batch: runs[%d]: trace is not supported in batches; use /%s/run", i, api.Version)
			return
		}
		reqs[i] = toServeRequest(rr)
	}
	results := s.eng.DoBatch(r.Context(), reqs)
	out := api.BatchResponse{Results: make([]api.BatchItem, len(results))}
	for i, br := range results {
		if br.Err != nil {
			e := errorFor(br.Err)
			e.Status = e.Class.HTTPStatus()
			out.Results[i] = api.BatchItem{Err: e}
			continue
		}
		// One histogram entry per completed run, as the engine counts
		// them, timed by the item's own residence in the engine.
		s.met.observe(&s.met.run, br.Resp.Total)
		out.Results[i] = api.BatchItem{Run: runResponse(br.Resp, "")}
	}
	writeJSON(w, out)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := s.traces.get(id)
	if tr == nil {
		writeError(w, &api.Error{Class: api.ClassNotFound, Message: fmt.Sprintf("no trace %q (traces are held in a bounded in-memory store)", id)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", "trace-"+id+".json"))
	_ = tr.WriteChrome(w)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w, s.eng.Stats(), s.traces.len())
}
