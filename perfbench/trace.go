package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nonmask/internal/service"
)

// Spans are recorded by the benchmark's own code around its calls into
// each layer: the client calls, an http.Handler wrapper on every node, a
// service.Router decorator around the cluster, job and pass spans derived
// from the event bus, and the direct layer probes. They are kept in
// memory and written out when the run ends. A nil *tracer records
// nothing, which is how untraced runs stay free of tracing work.

// span is one timed interval at a layer boundary. Spans of one request
// share Req (the job or batch id). Times are nanoseconds since the
// tracer's start.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, " ")
	l, _, _ := strings.Cut(name, ".")
	return l
}

type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span; a zero id is assigned a fresh one.
func (t *tracer) add(s span) int64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// record adds a span from start to now.
func (t *tracer) record(id, parent int64, name, req string, start time.Time) int64 {
	if t == nil {
		return 0
	}
	return t.add(span{ID: id, Parent: parent, Name: name, Req: req, Start: t.ns(start), End: t.ns(time.Now())})
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type spanKey struct{}

func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// spanHeader carries the caller's span id from the traced transport to
// the traced handler on the other side of the socket.
const spanHeader = "X-Perfbench-Span"

// route collapses ids out of a request path.
func route(p string) string {
	for _, prefix := range []string{"/v1/jobs/", "/v1/batches/"} {
		if rest, ok := strings.CutPrefix(p, prefix); ok && rest != "" {
			suffix := ""
			if i := strings.Index(rest, "/"); i >= 0 {
				suffix = rest[i:]
			}
			return prefix + "{id}" + suffix
		}
	}
	return p
}

// tracedTransport records a span per HTTP exchange (request sent to
// response headers received) and tells the server side its id.
type tracedTransport struct {
	base http.RoundTripper
	tr   *tracer
	name string // span name prefix: "client.http" or "cluster.http"
}

func (t *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id := t.tr.newID()
	parent := spanFrom(r.Context())
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	t.tr.record(id, parent, t.name+" "+r.Method+" "+route(r.URL.Path), "", start)
	return resp, err
}

// CloseIdleConnections closes the idle connections of the wrapped
// transport (http.Client.CloseIdleConnections looks for this method).
func (t *tracedTransport) CloseIdleConnections() {
	if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// traceHandler wraps a node's handler: one span per request, timed from
// dispatch to the handler's return. Event streams are long-lived and are
// left out. handlerUS collects the same durations for
// service.handler_us_p50.
func traceHandler(tr *tracer, h http.Handler, handlerUS *samples) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		handlerUS.add(float64(time.Since(start).Nanoseconds()) / 1e3)
		tr.record(0, parent, "service.handler "+r.Method+" "+route(r.URL.Path), "", start)
	})
}

// timedRouter decorates the cluster's service.Router with spans and
// duration samples for forwarded submissions and proxied reads.
type timedRouter struct {
	service.Router
	tr        *tracer
	forwardMS *samples
	proxyMS   *samples
}

func (r *timedRouter) SubmitRemote(ctx context.Context, node, tenant string, spec service.JobSpec) (service.JobStatus, error) {
	start := time.Now()
	st, err := r.Router.SubmitRemote(ctx, node, tenant, spec)
	r.forwardMS.add(float64(time.Since(start).Nanoseconds()) / 1e6)
	r.tr.record(0, 0, "cluster.forward", st.ID, start)
	return st, err
}

func (r *timedRouter) RunRemote(ctx context.Context, node, tenant string, spec service.JobSpec) (service.JobStatus, error) {
	start := time.Now()
	st, err := r.Router.RunRemote(ctx, node, tenant, spec)
	r.tr.record(0, 0, "cluster.run_remote", st.ID, start)
	return st, err
}

func (r *timedRouter) ProxyHTTP(node string, w http.ResponseWriter, req *http.Request) bool {
	start := time.Now()
	ok := r.Router.ProxyHTTP(node, w, req)
	r.proxyMS.add(float64(time.Since(start).Nanoseconds()) / 1e6)
	parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
	r.tr.record(0, parent, "cluster.proxy", "", start)
	return ok
}

// samples is a concurrency-safe list of observations.
type samples struct {
	mu   sync.Mutex
	vals []float64
}

func (s *samples) add(v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.vals = append(s.vals, v)
	s.mu.Unlock()
}

func (s *samples) get() []float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.vals...)
}

// resolve fills in request ids and parents the recording sites could not
// know: a span without a request id inherits its parent's, and a span
// without a parent is attached to the shortest span of the same request
// that contains it in time.
func resolve(spans []span) []span {
	byID := make(map[int64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	var reqOf func(i int, depth int) string
	reqOf = func(i int, depth int) string {
		s := &spans[i]
		if s.Req != "" || s.Parent == 0 || depth > 64 {
			return s.Req
		}
		if p, ok := byID[s.Parent]; ok {
			s.Req = reqOf(p, depth+1)
		}
		return s.Req
	}
	for i := range spans {
		reqOf(i, 0)
	}
	groups := make(map[string][]int)
	for i, s := range spans {
		if s.Req != "" {
			groups[s.Req] = append(groups[s.Req], i)
		}
	}
	for _, idx := range groups {
		for _, i := range idx {
			s := &spans[i]
			if s.Parent != 0 {
				continue
			}
			best, bestLen := int64(0), int64(-1)
			for _, j := range idx {
				c := spans[j]
				if j == i || c.Start > s.Start || c.End < s.End {
					continue
				}
				l := c.End - c.Start
				if l == s.End-s.Start && c.ID > s.ID {
					continue // equal intervals: the earlier-recorded span is the parent
				}
				if bestLen < 0 || l < bestLen {
					best, bestLen = c.ID, l
				}
			}
			s.Parent = best
		}
	}
	return spans
}

// layerTime is one layer's share of the traced time.
type layerTime struct {
	Spans   int
	TotalMS float64
	SelfMS  float64
}

// selfTimes sums, per layer, each span's duration and its self time: the
// duration minus the part of its interval its children cover.
func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.layer()]
		if lt == nil {
			lt = &layerTime{}
			out[s.layer()] = lt
		}
		d := s.End - s.Start
		lt.Spans++
		lt.TotalMS += float64(d) / 1e6
		lt.SelfMS += float64(d-covered(s.Start, s.End, children[s.ID])) / 1e6
	}
	return out
}

// covered is the length of [lo, hi] covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	started := false
	for _, iv := range clipped {
		switch {
		case !started:
			curA, curB, started = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLayerTable prints the per-layer span table, layers by self time.
func printLayerTable(w io.Writer, lt map[string]*layerTime) {
	names := make([]string, 0, len(lt))
	for n := range lt {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return lt[names[i]].SelfMS > lt[names[j]].SelfMS })
	fmt.Fprintf(w, "  %-10s %8s %12s %12s\n", "layer", "spans", "total_ms", "self_ms")
	for _, n := range names {
		l := lt[n]
		fmt.Fprintf(w, "  %-10s %8d %12.1f %12.1f\n", n, l.Spans, l.TotalMS, l.SelfMS)
	}
}
