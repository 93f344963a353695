package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"nonmask/internal/cluster"
	"nonmask/internal/obs"
	"nonmask/internal/service"
	"nonmask/internal/service/client"
	"nonmask/internal/store"
)

// stackConfig is the deployment the harness starts: one node or a
// replica set, each node with its own store.
type stackConfig struct {
	Nodes     int
	CacheSize int // memory result cache per node (0 = service default)
	Replicate time.Duration
	Dir       string // parent of the node store directories
	Tracer    *tracer
}

type node struct {
	name string
	dir  string // store directory
	url  string
	svc  *service.Server
	st   *store.Store
	cl   *cluster.Cluster
	// replicating is set once the node's anti-entropy loop runs.
	replicating bool
	srv         *http.Server
	cli         *client.Client
	hc          *http.Client // cli's transport
}

// stack is one started deployment. The samples are nil on untraced runs.
type stack struct {
	nodes     []*node
	handlerUS *samples // server-side handler time per request
	forwardMS *samples // cluster: forwarded submissions
	proxyMS   *samples // cluster: proxied id-addressed reads
}

// eventBuffer is each SSE subscriber's channel size: the firehose sees
// two to three job events per submission, and a buffer that covers a
// few seconds of them keeps a momentarily descheduled subscriber from
// losing completions.
const eventBuffer = 8192

// newClient returns a client, and the HTTP client under it, whose
// transport is traced when tr is set.
func newClient(url string, tr *tracer, spanName string) (*client.Client, *http.Client) {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: 30 * time.Second}
	if tr != nil {
		rt = &tracedTransport{base: rt, tr: tr, name: spanName}
	}
	hc := &http.Client{Transport: rt}
	return client.New(url, hc), hc
}

// startStack opens every node's store, starts the services and HTTP
// listeners, wires the replica set, and waits until every node answers
// /readyz. The replica set's anti-entropy waits for startReplication.
func startStack(cfg stackConfig) (*stack, error) {
	s := &stack{}
	if cfg.Tracer != nil {
		s.handlerUS, s.forwardMS, s.proxyMS = &samples{}, &samples{}, &samples{}
	}
	lns := make([]net.Listener, cfg.Nodes)
	urls := make([]string, cfg.Nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns)
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := 0; i < cfg.Nodes; i++ {
		dir := nodeDir(cfg, i)
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			closeAll(lns[i:])
			s.stop()
			return nil, err
		}
		n := &node{url: urls[i], st: st, dir: dir}
		scfg := service.Config{
			Store:       st,
			CacheSize:   cfg.CacheSize,
			EventBuffer: eventBuffer,
			MaxRecords:  1 << 14,
			// One worker per check: a check sharded over both cores waits
			// at every pass barrier for whichever core GC, the HTTP side
			// or the host took, which doubled single checks' times from
			// run to run. The traced run's worker sweep measures the
			// sharded speed-up separately.
			CheckWorkers: 1,
		}
		if cfg.Nodes > 1 {
			cl, err := cluster.New(cluster.Config{
				Self:              urls[i],
				Peers:             urls,
				Store:             st,
				ReplicateInterval: cfg.Replicate,
				HTTPClient:        peerHTTPClient(cfg.Tracer),
			})
			if err != nil {
				st.Close()
				closeAll(lns[i:])
				s.stop()
				return nil, err
			}
			n.cl = cl
			scfg.NodeName = cl.NodeName()
			scfg.Router = cl
			if cfg.Tracer != nil {
				scfg.Router = &timedRouter{Router: cl, tr: cfg.Tracer, forwardMS: s.forwardMS, proxyMS: s.proxyMS}
			}
			n.name = cl.NodeName()
		}
		n.svc = service.New(scfg)
		var h http.Handler = n.svc.Handler()
		if cfg.Tracer != nil {
			h = traceHandler(cfg.Tracer, h, s.handlerUS)
		}
		n.srv = &http.Server{Handler: h}
		go n.srv.Serve(lns[i])
		n.cli, n.hc = newClient(n.url, cfg.Tracer, "client.http")
		s.nodes = append(s.nodes, n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range s.nodes {
		if err := n.cli.Readyz(ctx); err != nil {
			s.stop()
			return nil, fmt.Errorf("node %s not ready: %w", n.url, err)
		}
	}
	return s, nil
}

func nodeDir(cfg stackConfig, i int) string {
	return filepath.Join(cfg.Dir, fmt.Sprintf("node%d", i))
}

func peerHTTPClient(tr *tracer) *http.Client {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: 30 * time.Second}
	if tr != nil {
		rt = &tracedTransport{base: rt, tr: tr, name: "cluster.http"}
	}
	return &http.Client{Transport: rt}
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// detach closes the harness clients' idle connections and waits until
// no node still serves an event subscription (a server notices a closed
// stream a moment after the client closes it), so that neither side of
// the harness's connections is live when the heap is read.
func (s *stack) detach() {
	for _, n := range s.nodes {
		n.hc.CloseIdleConnections()
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, n := range s.nodes {
		for n.svc.Bus().Stats().Subscribers > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
}

// stop drains every node and releases its listener and store. It waits
// for the services' executors, the anti-entropy loops and the HTTP
// servers to exit.
func (s *stack) stop() {
	for _, n := range s.nodes {
		if n.replicating {
			n.cl.Close()
		}
	}
	for _, n := range s.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		n.svc.Shutdown(ctx)
		n.srv.Shutdown(ctx)
		cancel()
		n.srv.Close()
	}
	for _, n := range s.nodes {
		n.st.Close()
	}
	s.nodes = nil // a stopped stack holds nothing
}

// firehose is one SSE subscriber on a node's /v1/events stream. It
// hands every event to onEvent with its receive time, until the stream
// ends.
type firehose struct {
	w    *client.Watcher
	done chan struct{}
	seen int64
}

func watchFirehose(ctx context.Context, url string, types []obs.EventType, onEvent func(obs.Event, time.Time)) (*firehose, error) {
	c, _ := newClient(url, nil, "")
	w, err := c.WatchEvents(ctx, 0, types...)
	if err != nil {
		return nil, err
	}
	f := &firehose{w: w, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		for {
			ev, done, err := w.Next()
			if done || err != nil {
				return
			}
			f.seen++
			onEvent(ev, time.Now())
		}
	}()
	return f, nil
}

// close ends the stream and waits for the reader to exit; it returns the
// number of events the subscriber received.
func (f *firehose) close() int64 {
	f.w.Close()
	<-f.done
	return f.seen
}
