package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"time"
)

// This file is the service's cluster surface: the Router the peer layer
// (internal/cluster) plugs in, the forwarding headers, the bearer-token
// auth middleware, and the anti-entropy pull endpoint. The service never
// imports the cluster package — cmd/csserved wires a cluster.Cluster
// into Config.Router — so a single-node server carries no peer code.

// Forwarding headers. Both are trusted only on cluster-authenticated
// requests (the shared -cluster-token); a regular client setting them
// changes nothing.
const (
	// TenantHeader carries the originating tenant of a forwarded request,
	// so quota is charged to the real principal on the node that runs the
	// job. On 401/429 responses it names the rejected tenant.
	TenantHeader = "X-CSServed-Tenant"
	// ForwardedHeader marks a submission already routed by a peer; the
	// receiving node runs it locally instead of re-forwarding, which is
	// what makes the routing loop-free even under membership disagreement.
	ForwardedHeader = "X-CSServed-Forwarded"
)

// Router is the peer layer's surface as the service sees it. Implemented
// by internal/cluster; nil means single-node (every key is local).
type Router interface {
	// NodeName returns this node's cluster name (n0..nK).
	NodeName() string
	// Owner maps a job fingerprint to its owning node via rendezvous
	// hashing; local reports that this node is the owner.
	Owner(key string) (node string, local bool)
	// SubmitRemote forwards a submission to the owner node on behalf of
	// tenant and returns the remote admission status. Errors that carry an
	// HTTPStatus are the remote's verdict (pass them through); anything
	// else is transport failure (the caller falls back to running
	// locally).
	SubmitRemote(ctx context.Context, node, tenant string, spec JobSpec) (JobStatus, error)
	// RunRemote forwards a submission and waits for its terminal status
	// (batch fan-out members).
	RunRemote(ctx context.Context, node, tenant string, spec JobSpec) (JobStatus, error)
	// ProxyHTTP reverse-proxies the request to the named node, reporting
	// whether it handled the request (false: unknown node).
	ProxyHTTP(node string, w http.ResponseWriter, r *http.Request) bool
	// WriteMetrics appends the peer layer's Prometheus text metrics.
	WriteMetrics(w io.Writer)
}

// HTTPStatusError is an error that carries an HTTP status — the typed
// client's APIError and the service's own submission errors both
// implement it, which is how a remote rejection (429 quota, 400 bad
// spec) crosses the forwarding hop without being mistaken for a
// transport failure.
type HTTPStatusError interface {
	error
	HTTPStatus() int
}

// HTTPStatus implements HTTPStatusError.
func (e *submitError) HTTPStatus() int { return e.code }

// errorTenant extracts the tenant a submission error charges, for the
// X-CSServed-Tenant response header.
func errorTenant(err error) string {
	var se *submitError
	if errors.As(err, &se) {
		return se.tenant
	}
	return ""
}

// bearerToken extracts the Authorization bearer token ("" when absent).
func bearerToken(r *http.Request) string {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) > len(prefix) && strings.EqualFold(h[:len(prefix)], prefix) {
		return h[len(prefix):]
	}
	return ""
}

// tenantCtxKey keys the request's resolved tenant identity.
type tenantCtxKey struct{}

// tenantInfo is the auth middleware's verdict on a request.
type tenantInfo struct {
	// name is the tenant to account the request to ("" when auth is off).
	name string
	// cluster marks peer-authenticated requests: exempt from rate limits,
	// trusted to carry forwarding headers.
	cluster bool
}

func tenantFrom(ctx context.Context) tenantInfo {
	info, _ := ctx.Value(tenantCtxKey{}).(tenantInfo)
	return info
}

// withAuth authenticates /v1/* requests when a tokens file is loaded:
// the bearer token must resolve to a tenant (401 otherwise), and the
// resolved identity rides the request context. The shared cluster token
// authenticates peers as the _cluster pseudo-tenant, attributed to the
// TenantHeader principal when one is forwarded. Liveness, readiness,
// and metrics stay unauthenticated — load balancers and scrapers probe
// them.
func (s *Server) withAuth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tok := bearerToken(r)
		if ct := s.cfg.ClusterToken; ct != "" && tok == ct {
			info := tenantInfo{name: r.Header.Get(TenantHeader), cluster: true}
			if info.name == "" {
				info.name = ClusterTenant
			}
			next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, info)))
			return
		}
		if s.cfg.Tenants == nil {
			next.ServeHTTP(w, r)
			return
		}
		switch r.URL.Path {
		case "/healthz", "/readyz", "/metrics":
			next.ServeHTTP(w, r)
			return
		}
		tn, ok := s.cfg.Tenants.Lookup(tok)
		if !ok {
			s.metrics.AuthFailures.Add(1)
			writeError(w, http.StatusUnauthorized, "invalid or missing bearer token")
			return
		}
		info := tenantInfo{name: tn.Name()}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, info)))
	})
}

// rateLimit consumes one submission from the tenant's token bucket,
// returning the 429 to send when the bucket is empty. Cluster-forwarded
// submissions pass (the entry node already charged them).
func (s *Server) rateLimit(info tenantInfo) *submitError {
	if s.cfg.Tenants == nil || info.cluster {
		return nil
	}
	tn := s.cfg.Tenants.ByName(info.name)
	if tn.AllowSubmit() {
		return nil
	}
	s.metrics.RateLimited.Add(1)
	return &submitError{code: http.StatusTooManyRequests,
		msg:    "tenant " + info.name + " rate limit exceeded; retry later",
		tenant: info.name}
}

// proxyByID routes id-addressed requests (job/batch status, cancel,
// event streams) to the node that owns the record: clustered ids are
// node-prefixed ("n1.j-00000042"), so the owner is read off the id
// instead of re-hashing. Returns true when the request was proxied.
func (s *Server) proxyByID(w http.ResponseWriter, r *http.Request, id string) bool {
	rt := s.cfg.Router
	if rt == nil {
		return false
	}
	node, _, ok := strings.Cut(id, ".")
	if !ok || node == rt.NodeName() {
		return false
	}
	if !rt.ProxyHTTP(node, w, r) {
		return false // unknown node; fall through to the local 404
	}
	s.metrics.Proxied.Add(1)
	return true
}

// handleReplicate serves POST /v1/replicate: one page of the local
// store's log from the caller's cursor. Peer-only when a cluster token
// is configured. With ?wait=, a caught-up cursor long-polls: the
// request parks on the store's tip until a record lands (and answers
// with it), the wait (capped at MaxReplicateWait) elapses, the caller
// goes away, or the server finishes draining — then it answers the
// empty page.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if ct := s.cfg.ClusterToken; ct != "" && bearerToken(r) != ct {
		s.metrics.AuthFailures.Add(1)
		writeError(w, http.StatusUnauthorized, "replication requires the cluster token")
		return
	}
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotFound, "no persistent store configured (-store); nothing to replicate")
		return
	}
	var wait time.Duration
	if ws := r.URL.Query().Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "bad wait %q (want a duration like 2s)", ws)
			return
		}
		wait = min(d, MaxReplicateWait)
	}
	var req ReplicateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode replicate request: %v", err)
		return
	}
	st := s.cfg.Store
	recs, gen, next, more, err := st.Since(req.Gen, req.Offset, req.MaxBytes)
	if err == nil && len(recs) == 0 && !more && wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-st.Changed(gen, next):
			recs, gen, next, more, err = st.Since(gen, next, req.MaxBytes)
		case <-t.C:
		case <-r.Context().Done():
		case <-s.baseCtx.Done():
		}
		t.Stop()
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "read log: %v", err)
		return
	}
	resp := ReplicateResponse{Node: s.cfg.NodeName, Gen: gen, Next: next, More: more}
	for _, rec := range recs {
		resp.Records = append(resp.Records, ReplicateRecord{Key: rec.Key, Value: json.RawMessage(rec.Value)})
	}
	writeJSON(w, http.StatusOK, resp)
}
