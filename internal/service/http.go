package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"nonmask/internal/protocols/registry"
)

// maxBodyBytes bounds POST /v1/jobs request bodies (GCL sources are small;
// 1 MiB is generous).
const maxBodyBytes = 1 << 20

// ProtocolInfo is one GET /v1/protocols catalog row.
type ProtocolInfo struct {
	// Name is the job spec "protocol" value.
	Name string `json:"name"`
	// Description is a one-line human summary.
	Description string `json:"description"`
	// Defaults shows the normalized zero-Params defaults for the entry.
	Defaults registry.Params `json:"defaults"`
	// Bounds advertises the validated parameter ranges enforced at
	// submission and batch-sweep expansion.
	Bounds registry.Bounds `json:"bounds"`
	// Analyses lists the analyses/job types the entry supports
	// ("verdict", "metrics", "saboteur"); submissions requesting an
	// unsupported one are rejected with 400.
	Analyses []string `json:"analyses"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs          submit a job (JobSpec) → JobStatus (202, or 200 on cache hit)
//	GET    /v1/jobs          list retained job records; ?limit=&offset= paginate
//	GET    /v1/jobs/{id}     job status; ?wait=2s long-polls for completion
//	DELETE /v1/jobs/{id}     cancel a queued or running job
//	POST   /v1/batches       submit a batch (BatchSpec) → BatchStatus (202)
//	GET    /v1/batches/{id}  batch status; ?wait=5s long-polls for the whole set
//	DELETE /v1/batches/{id}  cancel a batch and its non-terminal members
//	GET    /v1/jobs/{id}/events     SSE stream of one job's events (replay + tail)
//	GET    /v1/batches/{id}/events  SSE stream of one batch's events
//	GET    /v1/events        SSE firehose across every source; ?types=a,b filters
//	GET    /v1/protocols     built-in protocol catalog with advertised bounds
//	GET    /v1/version       build identity (module, version, go toolchain)
//	POST   /v1/replicate     anti-entropy pull: one page of the store log (peers); ?wait=2s long-polls
//	GET    /healthz          liveness (always "ok" while the process serves)
//	GET    /readyz           readiness ("ok", or 503 once draining begins)
//	GET    /metrics          Prometheus text exposition
//
// With a tokens file loaded, /v1/* requires a bearer token; in a
// cluster, id-addressed requests for records on other nodes are
// reverse-proxied to them, and submissions are forwarded to the
// fingerprint's owner node. Every request is logged to the server's
// Logger with a request id, which is also echoed in the X-Request-Id
// response header.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", serveSubmit(s, "job", s.submitJob))
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", serveByID(s, "job", nil, (*job).status))
	mux.HandleFunc("DELETE /v1/jobs/{id}", serveByID(s, "job", s.cancelJob, (*job).status))
	mux.HandleFunc("POST /v1/batches", serveSubmit(s, "batch", s.submitBatch))
	mux.HandleFunc("GET /v1/batches/{id}", serveByID(s, "batch", nil, (*batch).status))
	mux.HandleFunc("DELETE /v1/batches/{id}", serveByID(s, "batch", s.cancelBatch, (*batch).status))
	mux.HandleFunc("GET /v1/jobs/{id}/events", serveEvents[*job](s, "job"))
	mux.HandleFunc("GET /v1/batches/{id}/events", serveEvents[*batch](s, "batch"))
	mux.HandleFunc("GET /v1/events", s.handleFirehose)
	mux.HandleFunc("GET /v1/protocols", s.handleProtocols)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("POST /v1/replicate", s.handleReplicate)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.withRequestLog(s.withAuth(mux))
}

// reqSeq numbers requests across all servers in the process; the ids only
// need to be unique within one log stream.
var reqSeq atomic.Uint64

// statusRecorder captures the response code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer, so the SSE handlers can stream
// through the request-log middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withRequestLog assigns each request an id, echoes it as X-Request-Id,
// and logs method, path, status and latency at debug level (health and
// metrics probes would drown info-level logs).
func (s *Server) withRequestLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := "r-" + strconv.FormatUint(reqSeq.Add(1), 10)
		w.Header().Set("X-Request-Id", id)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		s.log.Debug("http request",
			"request", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.code,
			"elapsed_ms", float64(time.Since(start))/float64(time.Millisecond),
		)
	})
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit, err := queryInt(q.Get("limit"), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad limit %q: want a non-negative integer", q.Get("limit"))
		return
	}
	offset, err := queryInt(q.Get("offset"), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad offset %q: want a non-negative integer", q.Get("offset"))
		return
	}
	writeJSON(w, http.StatusOK, s.ListJobs(limit, offset))
}

// queryInt parses a non-negative integer query parameter, empty meaning
// the default.
func queryInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	return n, nil
}

// writeSubmitError renders a submission error, naming the charged tenant
// in the X-CSServed-Tenant header so a 429's principal is identifiable
// without parsing the body.
func writeSubmitError(w http.ResponseWriter, err error) {
	if tenant := errorTenant(err); tenant != "" {
		w.Header().Set(TenantHeader, tenant)
	}
	writeError(w, errorCode(err), "%v", err)
}

// serveSubmit serves POST /v1/{jobs,batches}: it decodes the bounded
// body as a T with unknown fields rejected, charges the tenant's
// submission rate (the entry node pays; peer-authenticated forwarded hops
// are exempt, so they are not charged twice), submits, and replies 202,
// or 200 when submit reports the answer came from cache.
func serveSubmit[T any](s *Server, noun string, submit func(spec T, info tenantInfo, r *http.Request) (status any, cached bool, err error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var spec T
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeError(w, http.StatusBadRequest, "decode %s spec: %v", noun, err)
			return
		}
		info := tenantFrom(r.Context())
		if se := s.rateLimit(info); se != nil {
			writeSubmitError(w, se)
			return
		}
		st, cached, err := submit(spec, info, r)
		if err != nil {
			writeSubmitError(w, err)
			return
		}
		code := http.StatusAccepted
		if cached {
			code = http.StatusOK
		}
		writeJSON(w, code, st)
	}
}

// submitJob admits one job; a job already terminal was served from cache.
func (s *Server) submitJob(spec JobSpec, info tenantInfo, r *http.Request) (any, bool, error) {
	forwarded := info.cluster && r.Header.Get(ForwardedHeader) != ""
	st, err := s.SubmitAs(spec, info.name, forwarded)
	return st, st.State.terminal(), err
}

// submitBatch admits one batch. It consumes one submission from the rate
// bucket; its members are bounded by the tenant's in-flight quota as they
// admit.
func (s *Server) submitBatch(spec BatchSpec, info tenantInfo, _ *http.Request) (any, bool, error) {
	st, err := s.SubmitBatchAs(spec, info.name)
	return st, false, err
}

// serveByID serves GET and DELETE /v1/{jobs,batches}/{id} for records of
// type T through byID: proxied to the owning node in a cluster, 404
// naming noun when absent. GET long-polls with ?wait=; DELETE applies
// act, the cancel.
func serveByID[T entry, S any](s *Server, noun string, act func(T), status func(T) S) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if s.proxyByID(w, r, id) {
			return
		}
		var wait time.Duration
		if ws := r.URL.Query().Get("wait"); ws != "" && act == nil {
			d, err := time.ParseDuration(ws)
			if err != nil || d < 0 {
				writeError(w, http.StatusBadRequest, "bad wait %q (want a duration like 2s)", ws)
				return
			}
			wait = d
		}
		st, ok := byID(r.Context(), s, id, wait, act, status)
		if !ok {
			writeError(w, http.StatusNotFound, "no %s %q", noun, id)
			return
		}
		writeJSON(w, http.StatusOK, st)
	}
}

func (s *Server) handleProtocols(w http.ResponseWriter, _ *http.Request) {
	entries := registry.Entries()
	out := make([]ProtocolInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, ProtocolInfo{
			Name:        e.Name,
			Description: e.Description,
			Defaults:    e.Normalize(registry.Params{}),
			Bounds:      e.Bounds,
			Analyses:    e.SupportedAnalyses(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz is pure liveness: the process is up and serving. It
// stays 200 through a drain — restarting a draining node would destroy
// the very work the drain is preserving. Routability is /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: whether this node should receive new work.
// Shutdown flips it before admission closes (DrainGrace), so balancers
// and peers stop routing here while submissions still succeed.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ready := !s.notReady && !s.draining
	s.mu.Unlock()
	if !ready {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
	s.writeEventMetrics(w)
	writeBuildInfo(w)
	s.writeStoreMetrics(w)
	if rt := s.cfg.Router; rt != nil {
		rt.WriteMetrics(w)
	}
}
