// Package service turns the one-shot checker pipeline (gcl compile +
// verify.Check) into a long-running verification service: an HTTP/JSON API
// over a bounded in-process job queue with per-job deadlines and
// cancellation, admission control, a content-addressed result cache, and
// Prometheus-text metrics. cmd/csserved is the binary; package client is
// the typed caller.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"nonmask/internal/obs"
	"nonmask/internal/store"
)

// Defaults for Config's zero values.
const (
	defaultQueueSize        = 64
	defaultExecutors        = 4
	defaultMaxDeadline      = 60 * time.Second
	defaultMaxRecords       = 4096
	defaultCacheSize        = 1024
	defaultRecordTTL        = 15 * time.Minute
	defaultEventHistory     = 1024
	defaultEventBuffer      = 256
	defaultProgressInterval = 250 * time.Millisecond
	defaultHeartbeat        = 15 * time.Second
)

// Config sizes the server. The zero value is ready for production-ish
// defaults; tests shrink the queue to exercise admission control.
type Config struct {
	// QueueSize bounds the number of jobs waiting for an executor;
	// submissions beyond it are rejected with 429 (default 64).
	QueueSize int
	// Executors is the number of goroutines running checks (default 4;
	// negative means none, which parks every submission in the queue —
	// used by tests exercising admission control). Each check additionally
	// shards its own passes across CheckWorkers goroutines, so total
	// parallelism is Executors × CheckWorkers.
	Executors int
	// CheckWorkers is the default verify worker count per job (0 = all
	// CPUs); jobs may override it, it does not affect cache keys.
	CheckWorkers int
	// MaxStates is the default state-space cap (0 = verify default).
	MaxStates int64
	// SpillDir is where the checker's disk tier puts CSR segment and
	// frontier-run files when a job escalates (or pins itself) to spill
	// mode. Empty means the OS temp directory. Server policy, never client
	// input; cmd/csserved exposes it as -spill-dir.
	SpillDir string
	// MaxDeadline caps each job's wall-clock budget; job-requested
	// deadlines beyond it are clamped (default 60s).
	MaxDeadline time.Duration
	// MaxRecords bounds retained job records; the oldest finished records
	// are evicted past it (default 4096).
	MaxRecords int
	// CacheSize bounds the content-addressed result cache (default 1024).
	CacheSize int
	// RecordTTL bounds how long finished job records are retained: a
	// background sweep evicts records whose terminal transition is older.
	// Zero means the 15-minute default; negative disables the sweep
	// (records then live until MaxRecords evicts them). Live jobs are
	// never swept.
	RecordTTL time.Duration
	// Store is an optional persistent backend layered under the result
	// cache (read-through/write-through): verdicts survive restarts and
	// memory-tier eviction. The caller owns the store's lifecycle — open
	// it before New, close it after Shutdown.
	Store *store.Store
	// Logger receives the server's structured job-lifecycle and request
	// records (log/slog). Nil discards them; pass spans stream as job
	// events instead.
	Logger *slog.Logger
	// EventHistory bounds each event stream's in-memory replay ring (the
	// per-job/per-batch event log SSE attaches drain before tailing).
	// Zero means 1024.
	EventHistory int
	// EventBuffer bounds each SSE subscriber's channel; a consumer
	// falling further behind than this loses events (counted in
	// csserved_events_dropped_total). Zero means 256.
	EventBuffer int
	// ProgressInterval governs how often a running job samples its
	// progress counter into a "progress" event. Zero means 250ms;
	// negative disables progress events (passes and lifecycle still
	// stream).
	ProgressInterval time.Duration
	// Heartbeat is the SSE keepalive comment interval that keeps idle
	// streams alive through proxies. Zero means 15s.
	Heartbeat time.Duration
	// NodeName names this node in a cluster (n0..nK). Job and batch ids
	// are prefixed with it ("n1.j-00000042") so any peer can route an
	// id-addressed request to the record's node; events carry it as their
	// node field. Empty on a single-node server.
	NodeName string
	// Router is the peer layer (internal/cluster) that owns fingerprint
	// routing, forwarding, and anti-entropy. Nil means single-node.
	Router Router
	// Tenants enables bearer-token auth and per-tenant admission limits
	// (csserved -tokens-file). Nil disables auth entirely.
	Tenants *Tenants
	// ClusterToken is the shared secret peers authenticate with; requests
	// carrying it bypass tenant rate limits and may assert a forwarded
	// tenant identity. Empty disables peer auth (and locks down
	// /v1/replicate only by Tenants, when set).
	ClusterToken string
	// DrainGrace is how long Shutdown keeps accepting work after flipping
	// /readyz to 503, giving load balancers and peers time to stop
	// routing here before submissions start bouncing.
	DrainGrace time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = defaultQueueSize
	}
	if c.Executors == 0 {
		c.Executors = defaultExecutors
	} else if c.Executors < 0 {
		c.Executors = 0
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = defaultMaxDeadline
	}
	if c.MaxRecords <= 0 {
		c.MaxRecords = defaultMaxRecords
	}
	if c.CacheSize <= 0 {
		c.CacheSize = defaultCacheSize
	}
	if c.RecordTTL == 0 {
		c.RecordTTL = defaultRecordTTL
	} else if c.RecordTTL < 0 {
		c.RecordTTL = 0
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.EventHistory <= 0 {
		c.EventHistory = defaultEventHistory
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = defaultEventBuffer
	}
	if c.ProgressInterval == 0 {
		c.ProgressInterval = defaultProgressInterval
	} else if c.ProgressInterval < 0 {
		c.ProgressInterval = 0
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = defaultHeartbeat
	}
	return c
}

// Server is the verification service: it owns the job queue, the executor
// pool, the job records, and the result cache. Create with New, mount
// Handler on an http.Server, and stop with Shutdown.
type Server struct {
	cfg     Config
	metrics Metrics
	cache   *cache
	log     *slog.Logger

	// bus fans live events out to SSE subscribers; serverEvents is the
	// bus's "server" stream, carrying lifecycle announcements (draining).
	bus          *obs.Bus
	serverEvents *obs.Stream

	baseCtx context.Context // parent of every check context
	stop    context.CancelFunc

	mu       sync.Mutex
	notReady bool // /readyz fails; admission still open (drain grace)
	draining bool
	// queue and queueHigh are the two-level admission queues: executors
	// drain queueHigh first (biased select), so high-priority jobs
	// preempt queue order — never running work.
	queue     chan queued
	queueHigh chan queued
	// table holds every job and batch record (record.go).
	table    table
	seq      uint64
	batchSeq uint64
	// inflight maps a content-address to its executed job from enqueue
	// until that job's terminal transition; identical submissions in that
	// window become coalesced mirrors of it instead of running a check.
	inflight map[string]*job

	wg        sync.WaitGroup // executor goroutines
	batchWG   sync.WaitGroup // batch runner goroutines
	mirrors   sync.WaitGroup // goroutines finishing coalesced and mirrored records
	sweepStop chan struct{}  // closed by Shutdown to halt the TTL sweeper
	sweepDone chan struct{}
}

// New starts a server: Config.Executors goroutines begin waiting on the
// queue immediately.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		cache:     newCache(cfg.CacheSize, cfg.Store),
		log:       cfg.Logger,
		baseCtx:   ctx,
		stop:      cancel,
		queue:     make(chan queued, cfg.QueueSize),
		queueHigh: make(chan queued, cfg.QueueSize),
		inflight:  make(map[string]*job),
		bus:       obs.NewBus(cfg.EventHistory),
		metrics:   Metrics{queueWait: obs.NewHistogram(queueWaitBuckets)},
		sweepStop: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	s.table = table{bus: s.bus, byID: make(map[string]entry),
		jobs: order{max: cfg.MaxRecords}, batches: order{max: maxBatches}}
	s.bus.SetNode(cfg.NodeName)
	s.serverEvents = s.bus.Stream("server")
	for i := 0; i < cfg.Executors; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	go s.sweeper()
	return s
}

// sweeper periodically evicts finished job records older than RecordTTL,
// so the record map and GET /v1/jobs stay bounded under sustained load
// even below the MaxRecords ceiling.
func (s *Server) sweeper() {
	defer close(s.sweepDone)
	if s.cfg.RecordTTL <= 0 {
		return
	}
	interval := s.cfg.RecordTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n := s.sweepExpired(time.Now()); n > 0 {
				s.log.Info("swept job records", "evicted", n, "ttl", s.cfg.RecordTTL)
			}
		case <-s.sweepStop:
			return
		}
	}
}

// sweepExpired removes finished job records whose terminal transition is
// older than RecordTTL, returning how many were evicted.
func (s *Server) sweepExpired(now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.evict(&s.table.jobs, len(s.table.jobs.ids), now.Add(-s.cfg.RecordTTL))
}

// Metrics exposes the server's counters (read-only use).
func (s *Server) Metrics() *Metrics { return &s.metrics }

// writeStoreMetrics renders the persistent backend's counters in
// Prometheus text form; without -store nothing is emitted (scrapers can
// key dashboards off the metric's presence).
func (s *Server) writeStoreMetrics(w io.Writer) {
	if s.cfg.Store == nil {
		return
	}
	st := s.cfg.Store.Stats()
	obs.WriteScalar(w, "csserved_store_keys", "gauge", "Live keys in the persistent verdict store.", int64(st.Keys))
	obs.WriteScalar(w, "csserved_store_log_bytes", "gauge", "Persistent store log file size.", st.LogBytes)
	obs.WriteScalar(w, "csserved_store_live_bytes", "gauge", "Bytes the newest record per key occupies (gap to log_bytes is compactable garbage).", st.LiveBytes)
	obs.WriteScalar(w, "csserved_store_recovered_records_total", "counter", "Valid records replayed by the store's recovery scan at open.", st.RecoveredRecords)
	obs.WriteScalar(w, "csserved_store_skipped_corrupt_records_total", "counter", "Records the recovery scan dropped on checksum or decode mismatch.", st.SkippedCorrupt)
	obs.WriteScalar(w, "csserved_store_truncated_bytes_total", "counter", "Torn-tail bytes the recovery scan cut off.", st.TruncatedBytes)
	obs.WriteScalar(w, "csserved_store_appends_total", "counter", "Records appended to the store log.", st.Appends)
	obs.WriteScalar(w, "csserved_store_compactions_total", "counter", "Completed store compaction rewrites.", st.Compactions)
	obs.WriteScalar(w, "csserved_store_syncs_total", "counter", "fsyncs issued by the store (batched flushes, compactions, close).", st.Syncs)
}

// submitError carries an HTTP status for the transport layer, plus the
// tenant a rejection charges (echoed as X-CSServed-Tenant).
type submitError struct {
	code   int
	msg    string
	tenant string
}

func (e *submitError) Error() string { return e.msg }

// reject counts a refused submission and returns its error.
func (s *Server) reject(code int, tenant, format string, args ...any) error {
	s.metrics.Rejected.Add(1)
	return &submitError{code: code, msg: fmt.Sprintf(format, args...), tenant: tenant}
}

// errorCode maps an error to its HTTP status (500 for unknown errors).
func errorCode(err error) int {
	var he HTTPStatusError
	if errors.As(err, &he) {
		return he.HTTPStatus()
	}
	return http.StatusInternalServerError
}

// JobsPage is one page of job records returned by ListJobs and
// GET /v1/jobs.
type JobsPage struct {
	// Jobs is the page, newest submissions first.
	Jobs []JobStatus `json:"jobs"`
	// Total is the number of retained records before paging.
	Total int `json:"total"`
	// Limit and Offset echo the effective paging window.
	Limit  int `json:"limit"`
	Offset int `json:"offset"`
}

// maxJobsPageSize caps one ListJobs page.
const maxJobsPageSize = 500

// ListJobs returns a page of retained job records, newest first. limit is
// clamped to [1, 500] (0 means the cap); a negative or past-the-end offset
// yields an empty page with the true total.
func (s *Server) ListJobs(limit, offset int) JobsPage {
	if limit <= 0 || limit > maxJobsPageSize {
		limit = maxJobsPageSize
	}
	if offset < 0 {
		offset = 0
	}
	s.mu.Lock()
	// Snapshot the page's job pointers under s.mu, then render statuses
	// outside it: status() takes each job's own lock.
	total := 0
	var page []*job
	ids := s.table.jobs.ids
	for i := len(ids) - 1; i >= 0; i-- {
		if total >= offset && len(page) < limit {
			page = append(page, s.table.byID[ids[i]].(*job))
		}
		total++
	}
	s.mu.Unlock()
	out := JobsPage{Jobs: make([]JobStatus, 0, len(page)), Total: total, Limit: limit, Offset: offset}
	for _, j := range page {
		out.Jobs = append(out.Jobs, j.status())
	}
	return out
}

// prefixID stamps the node name onto an id in cluster mode
// ("n1.j-00000042"): any peer routes an id-addressed request by the
// prefix, without re-hashing or a lookup table.
func (s *Server) prefixID(id string) string {
	if s.cfg.NodeName == "" {
		return id
	}
	return s.cfg.NodeName + "." + id
}

// Job returns a job's status by id.
func (s *Server) Job(id string) (JobStatus, bool) {
	return byID(context.Background(), s, id, 0, nil, (*job).status)
}

// WaitJob blocks until the job reaches a terminal state, the wait elapses,
// or ctx is done, then returns the current status.
func (s *Server) WaitJob(ctx context.Context, id string, wait time.Duration) (JobStatus, bool) {
	return byID(ctx, s, id, wait, nil, (*job).status)
}

// Cancel cancels a queued or running job. It reports whether the job
// exists; already-terminal jobs are left untouched.
func (s *Server) Cancel(id string) (JobStatus, bool) {
	return byID(context.Background(), s, id, 0, s.cancelJob, (*job).status)
}

// queued is one queue entry: an executed job's record and the compiled
// program its executor runs.
type queued struct {
	j *job
	c *Compiled
}

// executor pulls jobs off the queues and runs them through Compiled.Run.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		e, ok := s.nextJob()
		if !ok {
			return
		}
		s.metrics.QueueDepth.Add(-1)
		s.runJob(e.j, e.c)
	}
}

// nextJob dequeues the next job, high-priority first: a non-blocking
// probe of queueHigh precedes the blocking wait, so a waiting
// high-priority job always beats a waiting normal one — queue order,
// never running work, is what priority preempts. Returns false once a
// queue is closed: Shutdown closes them only while it cancels every job
// still queued, so nothing is left for an executor to run.
func (s *Server) nextJob() (queued, bool) {
	select {
	case e, ok := <-s.queueHigh:
		return e, ok
	default:
	}
	select {
	case e, ok := <-s.queueHigh:
		return e, ok
	case e, ok := <-s.queue:
		return e, ok
	}
}

// testHookJobRunning, when non-nil, runs after a job transitions to
// running and before its check starts; white-box tests use it to hold a
// job deterministically in flight.
var testHookJobRunning func(id string)

// runJob executes job j's program c. The check context is the server's
// base context (so Shutdown's hard-stop cancels in-flight checks) plus the
// job's deadline; verify.Check applies Options.Deadline itself.
func (s *Server) runJob(j *job, c *Compiled) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !j.markRunning(cancel) {
		return // canceled while queued
	}
	if testHookJobRunning != nil {
		testHookJobRunning(j.id)
	}
	s.metrics.ObserveQueueWait(time.Since(j.submitted).Seconds())
	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)

	jlog := s.log.With("job", j.id, "program", j.name)
	jlog.Info("job running")
	start := time.Now()
	// Sample the job's progress counter into "progress" events at the
	// governed interval; the final snapshot on stop lands before the
	// terminal transition, so a tailing stream always ends on the true
	// final counts.
	var prog *obs.Progress
	stopProg := func() {}
	if s.cfg.ProgressInterval > 0 {
		prog = &obs.Progress{}
		stopProg = prog.Watch(s.cfg.ProgressInterval, func(snap obs.Snapshot) {
			if snap.Pass == "" {
				return
			}
			j.events.Publish(obs.Event{Type: obs.EventProgress,
				Pass: snap.Pass, Done: snap.Done, Total: snap.Total})
		})
	}
	defer stopProg()
	// The job's event stream turns each pass span (the saboteur's search
	// included) into pass_start/pass_end events for live subscribers; the
	// report collects the same spans. Incumbent improvements stream as
	// saboteur events.
	rep, sabRes, err := c.Run(ctx, j.events, prog, func(cost, faults int, expanded int64) {
		j.events.Publish(obs.Event{Type: obs.EventSaboteur,
			Cost: int64(cost), Faults: faults, Done: expanded})
	})
	if rep != nil {
		// Release the space's disk tier (mmap'd CSR segments) once the job
		// is finished; a no-op for in-RAM spaces.
		defer func() {
			if cerr := rep.Close(); cerr != nil {
				jlog.Warn("space close failed", "error", cerr)
			}
		}()
	}
	// Stop the progress watcher before the terminal transition: streams
	// end at the terminal job event, so nothing may publish after it.
	stopProg()
	now := time.Now()
	if err != nil {
		state := StateFailed
		if ctx.Err() == context.Canceled {
			// Explicit cancel or hard shutdown, not a job failure; a
			// deadline expiry surfaces as DeadlineExceeded from the
			// check's own timeout context and stays a failure.
			state = StateCanceled
			err = fmt.Errorf("canceled: %w", err)
		}
		s.finish(j, StateRunning, outcome{state: state, err: err})
		jlog.Warn("job "+string(state), "error", err, "elapsed_ms", now.Sub(start).Seconds()*1000)
		return
	}
	res := c.Result(rep, sabRes)
	if sabRes != nil {
		s.metrics.SaboteurJobs.Add(1)
		s.metrics.SaboteurExpanded.Add(sabRes.Expanded)
		if sabRes.Optimal {
			s.metrics.SaboteurOptimal.Add(1)
		} else {
			s.metrics.SaboteurBudgetExhausted.Add(1)
		}
	}
	if perr := s.cache.put(c.key, res); perr != nil {
		// A failed persistent write degrades durability, not correctness:
		// the verdict still lands in the memory tier and the job record.
		s.metrics.StoreErrors.Add(1)
		jlog.Warn("persistent store write failed", "error", perr)
	} else if s.cfg.Store != nil {
		s.metrics.StorePuts.Add(1)
	}
	if res.Verdict == VerdictSatisfied {
		s.metrics.Satisfied.Add(1)
	} else {
		s.metrics.Violated.Add(1)
	}
	s.metrics.ObserveLatency(now.Sub(start).Seconds())
	for _, p := range res.Passes {
		s.metrics.ObservePass(p)
	}
	s.finish(j, StateRunning, outcome{state: StateDone, result: res})
	jlog.Info("job done", "verdict", res.Verdict, "daemon", res.Daemon,
		"states", res.States, "elapsed_ms", res.ElapsedMS)
}

// Shutdown drains the server. Readiness flips first: /readyz fails while
// admission stays open for DrainGrace, so load balancers and peers stop
// routing here before anything bounces. Then new submissions get 503,
// queued jobs are canceled, and in-flight checks are given until ctx is
// done to finish before being cancelled hard. It returns nil when every
// executor exited cleanly.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.notReady || s.draining {
		s.mu.Unlock()
		return fmt.Errorf("service: Shutdown called twice")
	}
	s.notReady = true
	s.mu.Unlock()
	// Announce the drain on the firehose before canceling anything, so
	// operators tailing /v1/events see why the job streams are ending.
	s.serverEvents.Publish(obs.Event{Type: obs.EventServer, State: "draining"})
	if g := s.cfg.DrainGrace; g > 0 {
		s.log.Info("drain grace: readiness down, admission still open", "grace", g)
		t := time.NewTimer(g)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	// Cancel everything still waiting in the queues. Draining the channels
	// here (rather than letting executors see the canceled jobs) frees the
	// executors to exit as soon as their current check completes. This runs
	// outside s.mu: draining is set, so no new submission can race the
	// close, and the queued-cancel transitions must be free to take s.mu
	// when they release their coalescing entries.
	for _, q := range []chan queued{s.queueHigh, s.queue} {
	loop:
		for {
			select {
			case e := <-q:
				s.metrics.QueueDepth.Add(-1)
				s.cancelJob(e.j)
			default:
				break loop
			}
		}
		close(q)
	}
	s.log.Info("draining")
	close(s.sweepStop)
	<-s.sweepDone
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stop()
		s.closeBus()
		return nil
	case <-ctx.Done():
		s.stop() // hard-cancel in-flight checks
		<-done
		s.closeBus()
		return ctx.Err()
	}
}

// closeBus waits for the batch runners and the mirror goroutines, then
// publishes the terminal server event and shuts the event bus down,
// ending every SSE stream. It runs after the executors exit and s.stop
// ends every remote wait, so every job and batch stream has already
// carried its terminal event.
func (s *Server) closeBus() {
	s.batchWG.Wait()
	s.mirrors.Wait()
	s.serverEvents.Publish(obs.Event{Type: obs.EventServer, State: "stopped"})
	s.bus.Close()
}

// Bus exposes the server's event bus (read-only use: stats, test
// subscriptions).
func (s *Server) Bus() *obs.Bus { return s.bus }
