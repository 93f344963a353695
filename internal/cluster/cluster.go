// Package cluster is csserved's peer layer: static membership over a
// -peers list, rendezvous (HRW) hashing from job fingerprints to owner
// nodes, forwarding clients, id-prefix reverse proxies, and the
// gossip-free anti-entropy pulls that converge the replicas' verdict
// stores. It implements service.Router; cmd/csserved wires a Cluster
// into service.Config, and a single-node server never loads this
// package's code path (Router stays nil).
//
// The design leans on the content-addressed fingerprints the service
// already computes: the same spec hashes to the same key on every node,
// so ownership needs no coordination — every replica independently
// agrees on the owner. Verdicts are immutable (a fingerprint fully
// determines its result), which is what makes last-writer-wins
// anti-entropy safe: shipping any node's record for a key to any other
// node can never ship a conflicting value.
package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nonmask/internal/obs"
	"nonmask/internal/service"
	"nonmask/internal/service/client"
	"nonmask/internal/store"
)

// DefaultReplicateInterval is how long one anti-entropy pull waits for
// a new record, and the backoff after a failed pull.
const DefaultReplicateInterval = 2 * time.Second

// forwardTimeout bounds one forwarded submission; forwarded submissions
// are admission calls (the remote returns once queued or cached), not
// full check runs.
const forwardTimeout = 15 * time.Second

// Config describes one node's view of the cluster.
type Config struct {
	// Self is this node's advertised base URL; it must appear in Peers.
	Self string
	// Peers lists every replica's base URL, self included. Node names
	// (n0..nK) follow the sorted URL order, so every replica derives the
	// same naming without coordination.
	Peers []string
	// ClusterToken is the shared secret peer calls authenticate with.
	// Empty works only when the service runs without tenant auth.
	ClusterToken string
	// Store, when set, is pulled from and applied to by the anti-entropy
	// loops. Nil disables replication (routing and proxying still work).
	Store *store.Store
	// ReplicateInterval is the longest one anti-entropy pull waits for a
	// peer's log to grow, and the backoff after a failed pull (default
	// 2s).
	ReplicateInterval time.Duration
	// HTTPClient is the transport for peer calls (default
	// http.DefaultClient; tests inject httptest clients).
	HTTPClient *http.Client
	// Logger receives peer-layer records. Nil discards them.
	Logger *slog.Logger
}

// peer is one remote replica: its name, URL, forwarding client, and
// reverse proxy.
type peer struct {
	name  string
	url   string
	cli   *client.Client
	proxy *httputil.ReverseProxy

	// gen and offset are this node's anti-entropy cursor into the peer's
	// store log. Only the peer's pull loop (or replicateOnce, on a
	// Cluster that was never started) touches them.
	gen    uint64
	offset int64
}

// Cluster implements service.Router over a static peer set.
type Cluster struct {
	self     string // this node's name
	selfURL  string
	token    string
	store    *store.Store
	interval time.Duration
	hc       *http.Client
	log      *slog.Logger

	// nodes maps name → peer for every *remote* replica; names lists
	// every member (self included) in sorted-URL order.
	nodes map[string]*peer
	names []string

	// Anti-entropy counters (WriteMetrics renders them).
	replicatedRecords atomic.Int64
	replicatePulls    atomic.Int64
	replicateErrors   atomic.Int64

	// ctx ends every pull loop and parked pull; Close cancels it and
	// waits on loops.
	ctx    context.Context
	cancel context.CancelFunc
	loops  sync.WaitGroup
}

// New validates the membership list and builds the peer table. Start
// launches the anti-entropy loops; a Cluster that is never started still
// routes and proxies.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Peers) < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 peers, have %d", len(cfg.Peers))
	}
	urls := make([]string, 0, len(cfg.Peers))
	seen := make(map[string]bool, len(cfg.Peers))
	for _, p := range cfg.Peers {
		u := strings.TrimRight(strings.TrimSpace(p), "/")
		if u == "" {
			return nil, fmt.Errorf("cluster: empty peer URL")
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate peer %s", u)
		}
		seen[u] = true
		urls = append(urls, u)
	}
	sort.Strings(urls)
	selfURL := strings.TrimRight(strings.TrimSpace(cfg.Self), "/")
	if !seen[selfURL] {
		return nil, fmt.Errorf("cluster: -self %s is not in the peer list %v", selfURL, urls)
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	interval := cfg.ReplicateInterval
	if interval <= 0 {
		interval = DefaultReplicateInterval
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Cluster{
		selfURL:  selfURL,
		token:    cfg.ClusterToken,
		store:    cfg.Store,
		interval: interval,
		hc:       hc,
		log:      logger,
		nodes:    make(map[string]*peer, len(urls)),
		ctx:      ctx,
		cancel:   cancel,
	}
	for i, u := range urls {
		name := fmt.Sprintf("n%d", i)
		c.names = append(c.names, name)
		if u == selfURL {
			c.self = name
			continue
		}
		target, err := url.Parse(u)
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %s: %w", u, err)
		}
		p := &peer{
			name: name,
			url:  u,
			// The replication client retries pushback itself; forwarding
			// clients are built per call with the caller's tenant headers.
			cli: client.New(u, hc).WithToken(cfg.ClusterToken),
		}
		p.proxy = newProxy(target, name, logger)
		c.nodes[name] = p
	}
	return c, nil
}

// newProxy builds the reverse proxy for id-addressed requests owned by
// a peer. FlushInterval is negative so proxied SSE streams flush every
// event immediately instead of buffering.
func newProxy(target *url.URL, name string, logger *slog.Logger) *httputil.ReverseProxy {
	rp := httputil.NewSingleHostReverseProxy(target)
	rp.FlushInterval = -1
	rp.ErrorLog = slog.NewLogLogger(logger.Handler(), slog.LevelWarn)
	rp.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		logger.Warn("proxy failed", "node", name, "path", r.URL.Path, "error", err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprintf(w, `{"error":%q}`, "node "+name+" unreachable: "+err.Error())
	}
	return rp
}

// Nodes lists every member's name in sorted-URL order (self included).
func (c *Cluster) Nodes() []string { return append([]string(nil), c.names...) }

// NodeName implements service.Router.
func (c *Cluster) NodeName() string { return c.self }

// Owner implements service.Router: rendezvous hashing picks, for each
// fingerprint, the member whose (node, key) hash is highest. Every
// replica computes the same winner, and removing a node only remaps the
// keys that node owned.
func (c *Cluster) Owner(key string) (string, bool) {
	var (
		best     string
		bestHash uint64
	)
	for _, name := range c.names {
		if s := rendezvousScore(name, key); best == "" || s > bestHash || (s == bestHash && name < best) {
			best, bestHash = name, s
		}
	}
	return best, best == c.self
}

// rendezvousScore hashes one (node, key) pair. FNV-1a alone is not
// enough here: a difference only in the key's trailing bytes barely
// perturbs the sum's high bits, so keys sharing a long prefix would
// rank the members identically and ownership would collapse onto one
// node. The splitmix64 finalizer avalanches every input bit across the
// whole word, which is what makes the per-key member ranking
// independent across keys.
func rendezvousScore(name, key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, name)
	h.Write([]byte{0})
	io.WriteString(h, key)
	s := h.Sum64()
	s ^= s >> 30
	s *= 0xbf58476d1ce4e5b9
	s ^= s >> 27
	s *= 0x94d049bb133111eb
	s ^= s >> 31
	return s
}

// forwardClient builds the per-call client a forwarded submission uses:
// cluster-authenticated, attributing the originating tenant, marked
// forwarded so the owner runs it locally (loop-freedom).
func (c *Cluster) forwardClient(p *peer, tenant string) *client.Client {
	fc := client.New(p.url, c.hc).WithToken(c.token).
		WithHeader(service.ForwardedHeader, "1")
	if tenant != "" {
		fc = fc.WithHeader(service.TenantHeader, tenant)
	}
	return fc
}

// SubmitRemote implements service.Router.
func (c *Cluster) SubmitRemote(ctx context.Context, node, tenant string, spec service.JobSpec) (service.JobStatus, error) {
	p, ok := c.nodes[node]
	if !ok {
		return service.JobStatus{}, fmt.Errorf("cluster: unknown node %s", node)
	}
	ctx, cancel := context.WithTimeout(ctx, forwardTimeout)
	defer cancel()
	return c.forwardClient(p, tenant).Submit(ctx, spec)
}

// RunRemote implements service.Router: it forwards the submission and
// waits for the terminal state — the batch fan-out's member path. No
// timeout beyond ctx: the check may legitimately run to its deadline.
func (c *Cluster) RunRemote(ctx context.Context, node, tenant string, spec service.JobSpec) (service.JobStatus, error) {
	p, ok := c.nodes[node]
	if !ok {
		return service.JobStatus{}, fmt.Errorf("cluster: unknown node %s", node)
	}
	return c.forwardClient(p, tenant).Run(ctx, spec)
}

// ProxyHTTP implements service.Router.
func (c *Cluster) ProxyHTTP(node string, w http.ResponseWriter, r *http.Request) bool {
	p, ok := c.nodes[node]
	if !ok {
		return false
	}
	p.proxy.ServeHTTP(w, r)
	return true
}

// Start launches one anti-entropy pull loop per peer. No-op without a
// store.
func (c *Cluster) Start() {
	if c.store == nil {
		return
	}
	for _, p := range c.nodes {
		c.loops.Add(1)
		go c.pullLoop(p)
	}
}

// Close cancels every pull loop, parked pulls included, and waits for
// the loops to exit.
func (c *Cluster) Close() {
	c.cancel()
	c.loops.Wait()
}

// pullLoop keeps this node's copy of one peer's log converged. Pull (not
// push) keeps the protocol gossip-free and self-healing: a node that was
// down simply resumes from its cursor, and a peer that compacted or
// restarted bumps its generation, which resets the cursor to a full
// re-read — idempotent Apply makes the re-read cheap. The loop starts
// with a catch-up that returns at once; every later pull long-polls, so
// a record written on the peer lands here as soon as it is appended.
// Each peer has its own loop, so a dead or hung peer never holds back
// the live ones.
func (c *Cluster) pullLoop(p *peer) {
	defer c.loops.Done()
	wait := min(c.interval, service.MaxReplicateWait)
	var pause time.Duration
	if c.failed(p, c.catchUp(c.ctx, p)) {
		pause = c.interval
	}
	for c.sleep(pause) {
		start := time.Now()
		resp, err := c.pullPeer(c.ctx, p, wait)
		switch {
		case c.failed(p, err):
			pause = c.interval
		case len(resp.Records) == 0 && !resp.More:
			// Pacing: an empty page that came back before its wait ran
			// out (a peer that predates ?wait=, or one that is draining)
			// is followed by the rest of the wait, not by a hot loop.
			pause = wait - time.Since(start)
		default:
			pause = 0
		}
	}
}

// sleep waits d (not at all when d <= 0) and reports whether the loops
// should go on, false once Close has run.
func (c *Cluster) sleep(d time.Duration) bool {
	if d <= 0 {
		return c.ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.ctx.Done():
		return false
	}
}

// failed counts and logs a failed pull; a pull cut short by Close is not
// a failure.
func (c *Cluster) failed(p *peer, err error) bool {
	if err == nil || c.ctx.Err() != nil {
		return false
	}
	c.replicateErrors.Add(1)
	c.log.Debug("anti-entropy pull failed", "peer", p.name, "error", err)
	return true
}

// replicateOnce is the one-shot catch-up of every peer at once: it
// returns when each peer's log is drained to its tip or its pull failed.
// It must not run while Start's loops are live (they own the cursors).
func (c *Cluster) replicateOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range c.nodes {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			c.failed(p, c.catchUp(ctx, p))
		}(p)
	}
	wg.Wait()
}

// catchUp drains one peer's log from the cursor to its tip, without
// waiting for new records.
func (c *Cluster) catchUp(ctx context.Context, p *peer) error {
	for {
		resp, err := c.pullPeer(ctx, p, 0)
		if err != nil || !resp.More {
			return err
		}
	}
}

// pullPeer pulls one page of a peer's log from the saved cursor, waiting
// up to wait for a record when the cursor is caught up, applies it to
// the local store, and advances the cursor.
func (c *Cluster) pullPeer(ctx context.Context, p *peer, wait time.Duration) (service.ReplicateResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, wait+forwardTimeout)
	resp, err := p.cli.Replicate(ctx, service.ReplicateRequest{Gen: p.gen, Offset: p.offset}, wait)
	cancel()
	if err != nil {
		return resp, err
	}
	applied := 0
	for _, rec := range resp.Records {
		fresh, aerr := c.store.Apply(rec.Key, rec.Value)
		if aerr != nil {
			return resp, fmt.Errorf("apply %s: %w", rec.Key, aerr)
		}
		if fresh {
			applied++
		}
	}
	p.gen, p.offset = resp.Gen, resp.Next
	c.replicatePulls.Add(1)
	if applied > 0 {
		c.replicatedRecords.Add(int64(applied))
		c.log.Info("replicated records", "peer", p.name, "records", applied)
	}
	return resp, nil
}

// WriteMetrics implements service.Router: the peer layer's Prometheus
// text metrics, appended to the service's /metrics exposition.
func (c *Cluster) WriteMetrics(w io.Writer) {
	obs.WriteScalar(w, "csserved_cluster_peers", "gauge", "Cluster membership size (self included).", int64(len(c.names)))
	obs.WriteScalar(w, "csserved_replicated_records_total", "counter", "Store records applied from peers by anti-entropy pulls.", c.replicatedRecords.Load())
	obs.WriteScalar(w, "csserved_replicate_rounds_total", "counter", "Completed anti-entropy pulls (pages answered by peers).", c.replicatePulls.Load())
	obs.WriteScalar(w, "csserved_replicate_errors_total", "counter", "Failed anti-entropy pulls (dead or lagging peers).", c.replicateErrors.Load())
}
