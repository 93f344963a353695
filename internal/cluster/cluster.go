// Package cluster is csserved's peer layer: static membership over a
// -peers list, rendezvous (HRW) hashing from job fingerprints to owner
// nodes, forwarding clients, id-prefix reverse proxies, and the
// gossip-free anti-entropy loop that converges the replicas' verdict
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

// DefaultReplicateInterval is the anti-entropy pull cadence.
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
	// loop. Nil disables replication (routing and proxying still work).
	Store *store.Store
	// ReplicateInterval is the anti-entropy cadence (default 2s).
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
	// store log (guarded by the Cluster's replication loop, which is the
	// only writer).
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
	replicateRounds   atomic.Int64
	replicateErrors   atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New validates the membership list and builds the peer table. Start
// launches the anti-entropy loop; a Cluster that is never started still
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
	c := &Cluster{
		selfURL:  selfURL,
		token:    cfg.ClusterToken,
		store:    cfg.Store,
		interval: interval,
		hc:       hc,
		log:      logger,
		nodes:    make(map[string]*peer, len(urls)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
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

// Start launches the anti-entropy loop. No-op without a store.
func (c *Cluster) Start() {
	if c.store == nil {
		close(c.done)
		return
	}
	go c.replicateLoop()
}

// Close stops the anti-entropy loop and waits for it to exit.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// replicateLoop pulls every peer's store log on the configured cadence.
// Pull (not push) keeps the protocol gossip-free and self-healing: a
// node that was down simply resumes from its cursors, and a peer that
// compacted or restarted bumps its generation, which resets the cursor
// to a full re-read — idempotent Apply makes the re-read cheap.
func (c *Cluster) replicateLoop() {
	defer close(c.done)
	t := time.NewTicker(c.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.replicateOnce(context.Background())
		case <-c.stop:
			return
		}
	}
}

// replicateOnce runs one anti-entropy round: for each peer, drain its
// log from the cursor to the tip, applying every record to the local
// store. Errors count and log but never stop the round — a dead peer
// must not block convergence with the live ones.
func (c *Cluster) replicateOnce(ctx context.Context) {
	c.replicateRounds.Add(1)
	for _, name := range c.names {
		p, ok := c.nodes[name]
		if !ok {
			continue // self
		}
		if err := c.pullPeer(ctx, p); err != nil {
			c.replicateErrors.Add(1)
			c.log.Debug("anti-entropy pull failed", "peer", p.name, "error", err)
		}
	}
}

// pullPeer drains one peer's log from the saved cursor.
func (c *Cluster) pullPeer(ctx context.Context, p *peer) error {
	for {
		ctx, cancel := context.WithTimeout(ctx, forwardTimeout)
		resp, err := p.cli.Replicate(ctx, service.ReplicateRequest{Gen: p.gen, Offset: p.offset})
		cancel()
		if err != nil {
			return err
		}
		applied := 0
		for _, rec := range resp.Records {
			fresh, aerr := c.store.Apply(rec.Key, rec.Value)
			if aerr != nil {
				return fmt.Errorf("apply %s: %w", rec.Key, aerr)
			}
			if fresh {
				applied++
			}
		}
		p.gen, p.offset = resp.Gen, resp.Next
		if applied > 0 {
			c.replicatedRecords.Add(int64(applied))
			c.log.Info("replicated records", "peer", p.name, "records", applied)
		}
		if !resp.More {
			return nil
		}
	}
}

// WriteMetrics implements service.Router: the peer layer's Prometheus
// text metrics, appended to the service's /metrics exposition.
func (c *Cluster) WriteMetrics(w io.Writer) {
	obs.WriteScalar(w, "csserved_cluster_peers", "gauge", "Cluster membership size (self included).", int64(len(c.names)))
	obs.WriteScalar(w, "csserved_replicated_records_total", "counter", "Store records applied from peers by anti-entropy pulls.", c.replicatedRecords.Load())
	obs.WriteScalar(w, "csserved_replicate_rounds_total", "counter", "Completed anti-entropy rounds.", c.replicateRounds.Load())
	obs.WriteScalar(w, "csserved_replicate_errors_total", "counter", "Failed anti-entropy pulls (dead or lagging peers).", c.replicateErrors.Load())
}
