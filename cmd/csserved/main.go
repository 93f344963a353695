// Command csserved serves verification jobs over HTTP: GCL sources or
// named built-in protocol instances are compiled, queued, model-checked
// through verify.Check, and content-address cached, so repeated
// submissions of the same instance are answered in microseconds.
//
// Usage:
//
//	csserved                                  # serve on 127.0.0.1:8080
//	csserved -addr :9090 -queue 128 -executors 8
//	csserved -store ./verdicts                # crash-safe persistent results
//	csserved -log debug -pprof                # per-pass spans + /debug/pprof/
//	csserved -load -load-jobs 200 -load-clients 8   # self-benchmark
//	csserved -peers http://a:8080,http://b:8080 -self http://a:8080 \
//	         -cluster-token secret -store ./verdicts   # replica of a cluster
//
// Endpoints: POST /v1/jobs, GET /v1/jobs[?limit=&offset=],
// GET /v1/jobs/{id}[?wait=2s], DELETE /v1/jobs/{id}, POST /v1/batches,
// GET /v1/batches/{id}[?wait=5s], DELETE /v1/batches/{id},
// GET /v1/jobs/{id}/events and /v1/batches/{id}/events (SSE streams,
// replay + live tail), GET /v1/events (SSE firehose, ?types= filters),
// GET /v1/protocols, GET /v1/version, GET /healthz (liveness),
// GET /readyz (readiness; 503 while draining), POST /v1/replicate
// (peer anti-entropy), GET /metrics (including per-pass latency
// histograms). With -pprof, net/http/pprof is mounted under
// /debug/pprof/.
//
// With -peers, the server is one replica of a static cluster: job
// fingerprints map to owner nodes by rendezvous hashing, submissions
// and id-addressed reads are forwarded or proxied to the owner, and
// (with -store) an anti-entropy loop converges every replica's verdict
// store, so any node answers for any cached fingerprint even after the
// owner dies. -tokens-file adds bearer-token tenants with per-tenant
// rate limits and in-flight quotas; jobs may submit with
// options.priority "high" to preempt queue order.
//
// With -store DIR, every verdict is written through to an append-only,
// CRC-checksummed log in DIR, recovered on boot, and served read-through
// on cache misses, so a restarted server answers previously checked
// instances without re-verification.
//
// SIGINT/SIGTERM drain gracefully: new submissions get 503, queued jobs
// are canceled, in-flight checks finish (up to -drain-timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nonmask/internal/cluster"
	"nonmask/internal/service"
	"nonmask/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		queueSize    = flag.Int("queue", 64, "job queue bound; submissions beyond it get 429")
		executors    = flag.Int("executors", 4, "concurrent check executors")
		checkWorkers = flag.Int("check-workers", 0, "default verify workers per check (0 = all CPUs)")
		maxStates    = flag.Int64("max-states", 0, "default state-space cap (0 = verify default)")
		maxDeadline  = flag.Duration("max-deadline", 60*time.Second, "per-job wall-clock budget cap")
		spillDir     = flag.String("spill-dir", "", "directory for the checker's disk tier (CSR segments, frontier runs) when jobs pin or escalate to spill mode (empty = OS temp dir)")
		cacheSize    = flag.Int("cache", 1024, "content-addressed result cache entries")
		recordTTL    = flag.Duration("record-ttl", 0, "finished job record retention (0 = 15m default, negative disables the sweep)")
		storeDir     = flag.String("store", "", "persistent verdict store directory; verdicts survive restarts and warm the cache (empty = memory only)")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight checks")
		logLevel     = flag.String("log", "info", "structured log level on stderr: debug | info | warn | error | off (debug includes per-pass spans and request logs)")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the service address")
		eventHist    = flag.Int("event-history", 0, "retained events per stream for SSE replay (0 = 1024 default)")
		eventBuf     = flag.Int("event-buffer", 0, "per-subscriber event buffer; slow consumers drop beyond it (0 = 256 default)")
		progressIvl  = flag.Duration("progress-interval", 0, "progress event sampling interval (0 = 250ms default, negative disables)")
		heartbeat    = flag.Duration("heartbeat", 0, "SSE keepalive comment interval (0 = 15s default)")

		peers        = flag.String("peers", "", "comma-separated replica base URLs (self included) for cluster mode; empty = single node")
		self         = flag.String("self", "", "this node's advertised base URL; must appear in -peers")
		clusterToken = flag.String("cluster-token", "", "shared secret peers authenticate forwarded and replication calls with")
		tokensFile   = flag.String("tokens-file", "", "bearer-token file enabling tenant auth: \"<token> <tenant> [quota=N] [rate=R] [burst=B]\" per line")
		replicateIvl = flag.Duration("replicate-interval", 0, "anti-entropy pull cadence between replica stores (0 = 2s default; needs -peers and -store)")
		drainGrace   = flag.Duration("drain-grace", 0, "how long shutdown keeps admitting after /readyz drops, so routers stop sending first")

		load        = flag.Bool("load", false, "self-benchmark: hammer an in-process server and print a latency table")
		loadJobs    = flag.Int("load-jobs", 200, "load mode: total submissions")
		loadClients = flag.Int("load-clients", 8, "load mode: concurrent clients")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csserved:", err)
		os.Exit(2)
	}

	cfg := service.Config{
		QueueSize:        *queueSize,
		Executors:        *executors,
		CheckWorkers:     *checkWorkers,
		MaxStates:        *maxStates,
		MaxDeadline:      *maxDeadline,
		SpillDir:         *spillDir,
		CacheSize:        *cacheSize,
		RecordTTL:        *recordTTL,
		EventHistory:     *eventHist,
		EventBuffer:      *eventBuf,
		ProgressInterval: *progressIvl,
		Heartbeat:        *heartbeat,
		Logger:           logger,
		ClusterToken:     *clusterToken,
		DrainGrace:       *drainGrace,
	}
	if *tokensFile != "" {
		tenants, err := service.LoadTenantsFile(*tokensFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "csserved: tokens file:", err)
			os.Exit(1)
		}
		cfg.Tenants = tenants
		fmt.Printf("csserved: auth on: %d tenants loaded from %s\n", len(tenants.Names()), *tokensFile)
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{Logger: logger})
		if err != nil {
			fmt.Fprintln(os.Stderr, "csserved: open store:", err)
			os.Exit(1)
		}
		defer st.Close()
		stats := st.Stats()
		fmt.Printf("csserved: store %s: %d verdicts recovered", *storeDir, stats.RecoveredRecords)
		if stats.SkippedCorrupt > 0 || stats.TruncatedBytes > 0 {
			fmt.Printf(" (%d corrupt records skipped, %d torn-tail bytes truncated)",
				stats.SkippedCorrupt, stats.TruncatedBytes)
		}
		fmt.Println()
		cfg.Store = st
	}

	if *peers != "" {
		cl, err := cluster.New(cluster.Config{
			Self:              *self,
			Peers:             strings.Split(*peers, ","),
			ClusterToken:      *clusterToken,
			Store:             cfg.Store,
			ReplicateInterval: *replicateIvl,
			Logger:            logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "csserved:", err)
			os.Exit(1)
		}
		cfg.NodeName = cl.NodeName()
		cfg.Router = cl
		cl.Start()
		defer cl.Close()
		fmt.Printf("csserved: cluster node %s of %v\n", cl.NodeName(), cl.Nodes())
	}

	if *load {
		if err := runLoad(cfg, *loadJobs, *loadClients); err != nil {
			fmt.Fprintln(os.Stderr, "csserved:", err)
			os.Exit(1)
		}
		return
	}
	if err := serve(*addr, cfg, *drainWait, *pprofOn); err != nil {
		fmt.Fprintln(os.Stderr, "csserved:", err)
		os.Exit(1)
	}
}

// buildLogger makes the stderr text logger for -log, or a discarding one
// for "off" (service.Config treats a nil Logger as discard).
func buildLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	case "off":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown -log level %q (want debug | info | warn | error | off)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

func serve(addr string, cfg service.Config, drainWait time.Duration, pprofOn bool) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	svc := service.New(cfg)
	handler := svc.Handler()
	if pprofOn {
		// Opt-in only: the profiling endpoints expose stacks and heap
		// contents, so they stay off unless -pprof is set.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	httpSrv := &http.Server{Handler: handler}

	// The bound address line is load-bearing: the CI smoke test (and any
	// script using port 0) scrapes the port from it.
	fmt.Printf("csserved: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Println("csserved: draining (queued jobs canceled, in-flight checks finishing)")
	drainCtx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	// Drain the job queue first so in-flight checks finish, then close the
	// HTTP side (which waits for response writers).
	svcErr := svc.Shutdown(drainCtx)
	httpErr := httpSrv.Shutdown(drainCtx)
	if svcErr != nil {
		return fmt.Errorf("drain: %w", svcErr)
	}
	if httpErr != nil && !errors.Is(httpErr, http.ErrServerClosed) {
		return fmt.Errorf("http shutdown: %w", httpErr)
	}
	fmt.Println("csserved: drained, bye")
	return nil
}
