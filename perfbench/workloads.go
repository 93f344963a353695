package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nonmask/internal/obs"
	"nonmask/internal/service"
	"nonmask/internal/service/client"
)

// env is what one invocation of the harness works with.
type env struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Dir      string // scratch directory for stores, removed at exit
	SpanFile string
}

// reading is one reported metric with the sample count behind it.
type reading struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Absent string  `json:"absent,omitempty"` // why the metric was not measured
}

// tally counts attempted and failed operations and keeps the first few
// failure messages.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

func (t *tally) attempt() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...interface{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.msgs) < 10 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) errorRate() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// phase is what one timed phase of a workload measured.
type phase struct {
	latMS      []float64 // submit → verdict, from the scheduled send
	batchMS    []float64
	lagMS      []float64 // how late the generator sent each operation
	wall       time.Duration
	states     int64 // Σ full-product states of the verdicts (verify-cold)
	peakHeap   float64
	retainedMB float64
	results    []*service.Result // fresh (non-cached) check results
	queueMS    []float64
	runMS      []float64
	events     int64
	dropped    int64
	counters   counters
	replLagMS  []float64
	rounds     int64
	replicated int64
	forward    float64 // share of submissions forwarded to another owner
	handlerUS  []float64
	forwardMS  []float64
	proxyMS    []float64
	hitSpecs   []service.JobSpec // specs the final stack has cached
	storeDirs  []string
	jobs       []string  // verify-cold: one line per job
	refMS      []float64 // verify-cold: a machine-reference round after each job
}

// counters sums the service counters the per-layer ratios need.
type counters struct {
	submitted, hits, storeHits, coalesced, misses, rejected, fallbacks int64
	appends, syncs                                                     int64
}

func readCounters(s *stack) counters {
	var c counters
	for _, n := range s.nodes {
		m := n.svc.Metrics()
		c.submitted += m.Submitted.Load()
		c.hits += m.CacheHits.Load()
		c.storeHits += m.StoreHits.Load()
		c.coalesced += m.Coalesced.Load()
		c.misses += m.CacheMisses.Load()
		c.rejected += m.Rejected.Load()
		c.fallbacks += m.ForwardFallbacks.Load()
		st := n.st.Stats()
		c.appends += st.Appends
		c.syncs += st.Syncs
	}
	return c
}

func (c counters) minus(b counters) counters {
	return counters{
		submitted: c.submitted - b.submitted, hits: c.hits - b.hits, storeHits: c.storeHits - b.storeHits,
		coalesced: c.coalesced - b.coalesced, misses: c.misses - b.misses, rejected: c.rejected - b.rejected,
		fallbacks: c.fallbacks - b.fallbacks, appends: c.appends - b.appends, syncs: c.syncs - b.syncs,
	}
}

// liveHeapMB forces a collection and returns the live heap in MiB. It
// collects twice: objects parked in sync.Pools (encoder and bufio
// buffers) survive the first collection in the pools' victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// settledHeapMB is liveHeapMB once a torn-down stack's last goroutines
// (connection handlers finishing after the listener closed) have exited
// and released it: it collects until two readings agree.
func settledHeapMB() float64 {
	prev := liveHeapMB()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		cur := liveHeapMB()
		if math.Abs(cur-prev) < 1.0/16 {
			return cur
		}
		prev = cur
	}
	return prev
}

// retainedHeapMB is the heap a running stack holds: the live heap now
// minus the live heap once release has torn the stack down. Everything
// in keep is the harness's own state; it stays live across both readings
// so that it cancels out of the difference.
func retainedHeapMB(release func(), keep ...any) float64 {
	before := liveHeapMB()
	release()
	after := settledHeapMB()
	runtime.KeepAlive(keep)
	return before - after
}

// heapSampler records the peak of heap memory in use by objects,
// sampled from runtime/metrics every few milliseconds.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}

// setupReps is how many times each run sets its stack up; setup_s is the
// median. One set-up varies by up to a quarter from the next in the same
// process (the same warm-up check read 0.25–0.42 s), so the median needs
// several.
const setupReps = 5

// timedSetup starts a stack, runs warm (if any), and returns the stack
// with the time both took.
func timedSetup(cfg stackConfig, warm func(*stack) error) (*stack, time.Duration, error) {
	start := time.Now()
	s, err := startStack(cfg)
	if err != nil {
		return nil, 0, err
	}
	if warm != nil {
		if err := warm(s); err != nil {
			s.stop()
			return nil, 0, err
		}
	}
	if err := startReplication(s); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// setUp performs reps set-ups in fresh directories, keeps the last stack
// running, and returns it with every set-up time in seconds.
func setUp(e *env, base stackConfig, warm func(*stack) error, reps int, tag string) (*stack, []float64, error) {
	var times []float64
	for r := 0; r < reps; r++ {
		cfg := base
		cfg.Dir = filepath.Join(e.Dir, fmt.Sprintf("%s-setup%d", tag, r))
		s, d, err := timedSetup(cfg, warm)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
		if r < reps-1 {
			s.stop()
			os.RemoveAll(cfg.Dir)
			continue
		}
		return s, times, nil
	}
	panic("unreachable")
}

// ---------------------------------------------------------------------
// verify-cold

// runVerifyCold runs the closed loop: one client, one job at a time,
// through a fresh single-node server and store, so every job misses the
// cache. Whole passes of the job list run (each on a fresh stack) until
// d of check time has been measured, so every run measures the same
// jobs, each the same number of times.
func runVerifyCold(e *env, jobs []job, d time.Duration, tr *tracer, pr *probes, tl *tally, setupS *[]float64, tag string) (*phase, error) {
	ph := &phase{}
	var elapsed time.Duration
	heap := startHeapSampler()
	warm := checkOne(coldWarmUp())
	for pass := 0; elapsed < d; pass++ {
		var s *stack
		var err error
		cfg := stackConfig{Nodes: 1, Tracer: tr}
		if pass == 0 {
			var times []float64
			s, times, err = setUp(e, cfg, warm, setupReps, tag)
			*setupS = append(*setupS, times...)
		} else {
			cfg.Dir = filepath.Join(e.Dir, fmt.Sprintf("%s-pass%d", tag, pass))
			var dur time.Duration
			s, dur, err = timedSetup(cfg, warm)
			*setupS = append(*setupS, dur.Seconds())
		}
		if err != nil {
			heap.finish()
			return nil, err
		}
		var fh *firehose
		if tr != nil {
			fh, err = watchFirehose(context.Background(), s.nodes[0].url, []obs.EventType{obs.EventJob, obs.EventPassEnd}, busSpans(tr))
			if err != nil {
				s.stop()
				heap.finish()
				return nil, err
			}
		}
		cli := s.nodes[0].cli
		before := readCounters(s)
		for _, j := range jobs {
			tl.attempt()
			spanID := tr.newID()
			t0 := time.Now()
			st, err := cli.Run(withSpan(context.Background(), spanID), j.Spec)
			lat := time.Since(t0)
			tr.record(spanID, 0, "client.run", st.ID, t0)
			elapsed += lat
			if err != nil {
				tl.fail("%s: %v", j.Label, err)
				continue
			}
			if err := check(j.Want, st); err != nil {
				tl.fail("%s: %v", j.Label, err)
				continue
			}
			ms, ref := float64(lat.Nanoseconds())/1e6, refRound()
			ph.latMS = append(ph.latMS, ms)
			ph.refMS = append(ph.refMS, ref)
			ph.jobs = append(ph.jobs, fmt.Sprintf("%8.1f ms  %9d states  ref %5.2f ms  %s", ms, j.Want.States, ref, j.Label))
			ph.states += j.Want.States
			ph.results = append(ph.results, st.Result)
			ph.hitSpecs = append(ph.hitSpecs, j.Spec)
		}
		ph.counters = readCounters(s).minus(before)
		if fh != nil {
			ph.events += fh.close()
			ph.dropped += s.nodes[0].svc.Bus().Stats().Dropped
		}
		if elapsed < d {
			s.stop()
			continue
		}
		// Last pass: probe the live server and read the memory figures.
		ph.peakHeap = heap.finish()
		if pr != nil {
			if err := probeSubmitHit(pr, s.nodes[0].svc, ph.hitSpecs, tr); err != nil {
				s.stop()
				return nil, err
			}
		}
		ph.handlerUS = s.handlerUS.get()
		ph.storeDirs = []string{s.nodes[0].dir}
		s.detach()
		ph.retainedMB = retainedHeapMB(s.stop, jobs, ph, tl)
	}
	ph.wall = elapsed
	return ph, nil
}

// ---------------------------------------------------------------------
// open loop (service-mix, cluster-3node)

// tracker matches admissions to completions. Completion events can beat
// the admission response back to the harness; such a job's verdict is
// known to the caller when the admission returns.
type tracker struct {
	mu      sync.Mutex
	due     map[string]time.Time // admitted, not yet complete
	isBatch map[string]bool
	early   map[string]time.Time // completed before admission returned
	latMS   []float64
	batchMS []float64
	waiting int
	idle    chan struct{} // signalled when waiting drops to zero
	keys    map[string]string
	// fresh lists the jobs that ran a check, with their completion
	// times, in completion order (the replication-lag probe reads it).
	fresh []completion
}

type completion struct {
	id string
	at time.Time
}

func newTracker() *tracker {
	return &tracker{
		due: make(map[string]time.Time), isBatch: make(map[string]bool),
		early: make(map[string]time.Time), idle: make(chan struct{}, 1),
		keys: make(map[string]string),
	}
}

// finished records a completion latency for a request due at due.
func (t *tracker) finishedLocked(id string, due, at time.Time) {
	ms := float64(at.Sub(due).Nanoseconds()) / 1e6
	if t.isBatch[id] {
		t.batchMS = append(t.batchMS, ms)
	} else {
		t.latMS = append(t.latMS, ms)
	}
}

// admitted registers a request the server has not finished yet.
func (t *tracker) admitted(id string, due time.Time, batch bool, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.isBatch[id] = batch
	if _, ok := t.early[id]; ok {
		delete(t.early, id)
		t.finishedLocked(id, due, now)
		return
	}
	t.due[id] = due
	t.waiting++
}

// answered records a request that came back already complete.
func (t *tracker) answered(due, now time.Time) {
	t.mu.Lock()
	t.latMS = append(t.latMS, float64(now.Sub(due).Nanoseconds())/1e6)
	t.mu.Unlock()
}

// completed handles a terminal job or batch event.
func (t *tracker) completed(id string, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	due, ok := t.due[id]
	if !ok {
		t.early[id] = at
		return
	}
	delete(t.due, id)
	if !t.isBatch[id] {
		t.fresh = append(t.fresh, completion{id, at})
	}
	t.finishedLocked(id, due, at)
	t.waiting--
	if t.waiting == 0 {
		select {
		case t.idle <- struct{}{}:
		default:
		}
	}
}

func (t *tracker) pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.waiting
}

// mixShapes sizes the two open-loop workloads. service-mix runs at about
// half of what the service sustains on a 2-core machine; cluster-3node
// runs lower because three nodes and their anti-entropy share those
// cores.
var mixShapes = map[string]mixShape{
	"service-mix":   {Rate: 400, Catalog: 1500, Zipf: 2, ZipfV: 8, Warm: 64, Nodes: 1},
	"cluster-3node": {Rate: 120, Catalog: 1500, Zipf: 2, ZipfV: 8, Warm: 64, Nodes: 3, ReadShare: 0.08, BatchEach: 50},
}

// mixCacheSize is each node's memory result cache: smaller than the
// working set a run touches, so part of the hits come from the store.
const mixCacheSize = 96

// replicateInterval is the cluster's anti-entropy cadence: short, so the
// replication lag is measured rather than the default 2 s timer.
const replicateInterval = 250 * time.Millisecond

// sendersInFlight bounds the generator's concurrent requests (nproc on
// the reference machine).
const sendersInFlight = 2

// checkOne checks j on the first node and compares the verdict with the
// oracle.
func checkOne(j job) func(*stack) error {
	return func(s *stack) error {
		st, err := s.nodes[0].cli.Run(context.Background(), j.Spec)
		if err == nil {
			err = check(j.Want, st)
		}
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", j.Label, err)
		}
		return nil
	}
}

// warmUp checks the plan's most popular items before timing, two at a
// time, so the cache and store start warm; the cost is set-up time.
func warmUp(plan mixPlan) func(*stack) error {
	return func(s *stack) error {
		var wg sync.WaitGroup
		errs := make(chan error, len(plan.Warm))
		next := make(chan int)
		for w := 0; w < sendersInFlight; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					j := plan.Catalog[i]
					n := s.nodes[i%len(s.nodes)]
					st, err := n.cli.Run(context.Background(), j.Spec)
					if err == nil {
						err = check(j.Want, st)
					}
					if err != nil {
						errs <- fmt.Errorf("warm-up %s: %w", j.Label, err)
					}
				}
			}()
		}
		for _, i := range plan.Warm {
			next <- i
		}
		close(next)
		wg.Wait()
		close(errs)
		return <-errs
	}
}

// startReplication starts the replica set's anti-entropy loops and waits
// until every node's store holds every verdict the warm-up wrote anywhere
// in the set, so replicating the warm set is part of set-up rather than
// of the timed phase. The loops start only now, after the warm-up, so the
// wait is one replicate interval whatever the warm-up's length, not the
// time to whichever tick comes next. A single node returns at once.
func startReplication(s *stack) error {
	if len(s.nodes) < 2 {
		return nil
	}
	for _, n := range s.nodes {
		n.cl.Start()
		n.replicating = true
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		union := make(map[string]bool)
		for _, n := range s.nodes {
			for _, k := range n.st.Keys() {
				union[k] = true
			}
		}
		settled := true
		for _, n := range s.nodes {
			if n.st.Len() < len(union) {
				settled = false
				break
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication did not settle in 30 s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runMix runs one open-loop phase of plan on a fresh stack.
func runMix(e *env, sh mixShape, plan mixPlan, tr *tracer, pr *probes, tl *tally, setupS *[]float64, tag string) (*phase, error) {
	cfg := stackConfig{Nodes: sh.Nodes, CacheSize: mixCacheSize, Replicate: replicateInterval, Tracer: tr}
	s, times, err := setUp(e, cfg, warmUp(plan), setupReps, tag)
	if err != nil {
		return nil, err
	}
	*setupS = append(*setupS, times...)
	ph := &phase{}
	trk := newTracker()
	types := []obs.EventType{obs.EventJob, obs.EventBatch}
	if tr != nil {
		types = append(types, obs.EventPassEnd)
	}
	onEvent := func(ev obs.Event, at time.Time) {
		if (ev.Type == obs.EventJob && service.JobState(ev.State).Terminal()) ||
			(ev.Type == obs.EventBatch && (ev.State == string(service.BatchDone) || ev.State == string(service.BatchCanceled))) {
			trk.completed(ev.Source, at)
		}
	}
	if tr != nil {
		spans := busSpans(tr)
		plain := onEvent
		onEvent = func(ev obs.Event, at time.Time) {
			plain(ev, at)
			spans(ev, at)
		}
	}
	var hoses []*firehose
	for _, n := range s.nodes {
		fh, err := watchFirehose(context.Background(), n.url, types, onEvent)
		if err != nil {
			for _, h := range hoses {
				h.close()
			}
			s.stop()
			return nil, err
		}
		hoses = append(hoses, fh)
	}
	var lagProbe *replProbe
	if tr != nil && len(s.nodes) > 1 {
		lagProbe = startReplProbe(s, trk)
	}
	before := readCounters(s)
	replicated0, rounds0 := antiEntropy(s)
	m := &mixRun{s: s, plan: plan, tr: tr, tl: tl, trk: trk, ids: make([]string, len(plan.Ops))}
	start := time.Now()
	lags := dispatch(plan.Ops, start, sendersInFlight, m.send)
	// Wait for every admitted request to finish.
	deadline := time.After(60 * time.Second)
wait:
	for trk.pending() > 0 {
		select {
		case <-trk.idle:
		case <-deadline:
			break wait
		case <-time.After(50 * time.Millisecond):
		}
	}
	ph.wall = time.Since(start)
	if n := trk.pending(); n > 0 {
		for i := 0; i < n; i++ {
			tl.fail("request still unfinished 60 s after the last send")
		}
	}
	if lagProbe != nil {
		ph.replLagMS = lagProbe.finish()
	}
	ph.counters = readCounters(s).minus(before)

	// Check every verdict the admissions did not already carry.
	ctx := context.Background()
	for _, c := range m.checks {
		st, err := s.nodes[c.node].cli.Job(ctx, c.id, 0)
		if err == nil {
			err = check(c.want, st)
		}
		if err != nil {
			tl.fail("%v", err)
			continue
		}
		if !st.Cached && !st.Coalesced {
			ph.results = append(ph.results, st.Result)
		}
	}
	for _, b := range m.batches {
		bs, err := s.nodes[b.node].cli.Batch(ctx, b.id, 0)
		if err != nil {
			tl.fail("batch %s: %v", b.id, err)
			continue
		}
		if err := checkBatch(b.want, bs); err != nil {
			tl.fail("%v", err)
		}
	}
	for _, i := range plan.Warm {
		ph.hitSpecs = append(ph.hitSpecs, plan.Catalog[i].Spec)
	}
	if pr != nil {
		if err := probeSubmitHit(pr, s.nodes[0].svc, ph.hitSpecs, tr); err != nil {
			tl.fail("%v", err)
		}
	}
	trk.mu.Lock()
	ph.latMS, ph.batchMS = trk.latMS, trk.batchMS
	trk.mu.Unlock()
	ph.lagMS = lags
	if sub := m.submits.Load(); sub > 0 {
		ph.forward = float64(m.forwarded.Load()) / float64(sub)
	}
	for _, n := range s.nodes {
		ph.dropped += n.svc.Bus().Stats().Dropped
		ph.storeDirs = append(ph.storeDirs, n.dir)
	}
	replicated, rounds := antiEntropy(s)
	ph.replicated, ph.rounds = replicated-replicated0, rounds-rounds0
	ph.handlerUS, ph.forwardMS, ph.proxyMS = s.handlerUS.get(), s.forwardMS.get(), s.proxyMS.get()
	for _, h := range hoses {
		ph.events += h.close()
	}
	s.detach()
	m.s = nil
	ph.retainedMB = retainedHeapMB(s.stop, plan, trk, m, ph, lags, hoses, tl)
	return ph, nil
}

// dispatch sends ops on their schedule through senders concurrent
// workers. An op whose workers are all busy waits, and the wait counts:
// each op is handed its due time, which is what latency is measured
// from. It returns how late each op was handed over, in milliseconds.
func dispatch(ops []op, start time.Time, senders int, send func(i int, due time.Time)) []float64 {
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				send(i, start.Add(ops[i].At))
			}
		}()
	}
	lags := make([]float64, 0, len(ops))
	for i, o := range ops {
		due := start.Add(o.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		work <- i
		lags = append(lags, float64(time.Since(due).Nanoseconds())/1e6)
	}
	close(work)
	wg.Wait()
	return lags
}

// mixRun is the state the open-loop senders share.
type mixRun struct {
	s    *stack
	plan mixPlan
	tr   *tracer
	tl   *tally
	trk  *tracker

	mu      sync.Mutex
	ids     []string // op index → job id
	checks  []pendingCheck
	batches []pendingBatch

	submits, forwarded atomic.Int64
}

// pendingCheck is a job whose verdict is fetched after the timed phase.
type pendingCheck struct {
	id   string
	want expect
	node int
}

type pendingBatch struct {
	id   string
	want map[string]expect
	node int
}

// send performs open-loop operation i, due at due.
func (m *mixRun) send(i int, due time.Time) {
	o := m.plan.Ops[i]
	s, tr, tl := m.s, m.tr, m.tl
	tl.attempt()
	entry := s.nodes[o.Entry%len(s.nodes)]
	spanID := tr.newID()
	ctx := withSpan(context.Background(), spanID)
	t0 := time.Now()
	switch o.Kind {
	case opSubmit:
		j := m.plan.Catalog[o.Item]
		st, err := entry.cli.Submit(ctx, j.Spec)
		now := time.Now()
		tr.record(spanID, 0, "client.submit", st.ID, t0)
		if err != nil {
			tl.fail("submit %s: %v", j.Label, err)
			return
		}
		m.submits.Add(1)
		if entry.name != "" && !strings.HasPrefix(st.ID, entry.name+".") {
			m.forwarded.Add(1)
		}
		m.mu.Lock()
		m.ids[i] = st.ID
		m.mu.Unlock()
		m.trk.mu.Lock()
		m.trk.keys[st.ID] = st.Key
		m.trk.mu.Unlock()
		if st.State.Terminal() {
			m.trk.answered(due, now)
			if err := check(j.Want, st); err != nil {
				tl.fail("%v", err)
			}
			return
		}
		m.trk.admitted(st.ID, due, false, now)
		m.mu.Lock()
		m.checks = append(m.checks, pendingCheck{st.ID, j.Want, nodeOf(s, st.ID)})
		m.mu.Unlock()
	case opRead:
		m.mu.Lock()
		id := m.ids[o.Of]
		m.mu.Unlock()
		if id == "" {
			tl.fail("read of op %d: its submission has no id", o.Of)
			return
		}
		// Address the record through a node that does not hold it.
		owner := nodeOf(s, id)
		via := s.nodes[(owner+1+o.Entry%2)%len(s.nodes)]
		st, err := via.cli.Job(ctx, id, 0)
		tr.record(spanID, 0, "client.read", id, t0)
		if err != nil {
			tl.fail("read %s via %s: %v", id, via.name, err)
			return
		}
		if st.ID != id {
			tl.fail("read %s returned %s", id, st.ID)
			return
		}
		if st.State == service.StateDone {
			if err := check(m.plan.Catalog[m.plan.Ops[o.Of].Item].Want, st); err != nil {
				tl.fail("read: %v", err)
			}
		}
	case opBatch:
		bs, err := entry.cli.SubmitBatch(ctx, o.Batch)
		now := time.Now()
		tr.record(spanID, 0, "client.batch", bs.ID, t0)
		if err != nil {
			tl.fail("batch: %v", err)
			return
		}
		m.trk.admitted(bs.ID, due, true, now)
		m.mu.Lock()
		m.batches = append(m.batches, pendingBatch{bs.ID, o.Want, nodeOf(s, bs.ID)})
		m.mu.Unlock()
	}
}

// antiEntropy sums the replica set's applied-record and round counters
// (zero on a single node).
func antiEntropy(s *stack) (replicated, rounds int64) {
	for _, n := range s.nodes {
		r, k := n.antiEntropy()
		replicated += r
		rounds += k
	}
	return replicated, rounds
}

// antiEntropy reads one node's applied-record and round counters.
func (n *node) antiEntropy() (replicated, rounds int64) {
	if n.cl == nil {
		return 0, 0
	}
	var b strings.Builder
	n.cl.WriteMetrics(&b)
	r, _ := client.MetricValue(b.String(), "csserved_replicated_records_total")
	k, _ := client.MetricValue(b.String(), "csserved_replicate_rounds_total")
	return int64(r), int64(k)
}

// nodeOf maps a cluster record id ("n1.j-…") to its node index.
func nodeOf(s *stack, id string) int {
	for i, n := range s.nodes {
		if n.name != "" && strings.HasPrefix(id, n.name+".") {
			return i
		}
	}
	return 0
}

// checkBatch compares every member's verdict with the oracle.
func checkBatch(want map[string]expect, bs service.BatchStatus) error {
	if bs.State != service.BatchDone {
		return fmt.Errorf("batch %s ended %s", bs.ID, bs.State)
	}
	if len(bs.Jobs) != len(want) {
		return fmt.Errorf("batch %s has %d members, want %d", bs.ID, len(bs.Jobs), len(want))
	}
	for _, m := range bs.Jobs {
		w, ok := want[m.Program]
		if !ok {
			return fmt.Errorf("batch %s: unexpected member %s", bs.ID, m.Program)
		}
		if m.State != service.StateDone || m.Verdict != w.Verdict {
			return fmt.Errorf("batch %s member %s: %s %s, oracle says %s", bs.ID, m.Program, m.State, m.Verdict, w.Verdict)
		}
	}
	return nil
}

// busSpans turns job lifecycle and pass_end events into spans:
// service.job (queued → terminal) with children service.queue (queued →
// running) and service.run (running → terminal), and verify.<pass> spans
// inside the run.
func busSpans(tr *tracer) func(obs.Event, time.Time) {
	var mu sync.Mutex
	queued := make(map[string]time.Time)
	running := make(map[string]time.Time)
	return func(ev obs.Event, _ time.Time) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Type {
		case obs.EventJob:
			switch st := service.JobState(ev.State); {
			case st == service.StateQueued:
				queued[ev.Source] = ev.Time
			case st == service.StateRunning:
				running[ev.Source] = ev.Time
			case st.Terminal():
				q, okq := queued[ev.Source]
				r, okr := running[ev.Source]
				delete(queued, ev.Source)
				delete(running, ev.Source)
				if !okq || !okr {
					return // answered from cache or coalesced: never ran
				}
				jobID := tr.add(span{Name: "service.job", Req: ev.Source, Start: tr.ns(q), End: tr.ns(ev.Time)})
				tr.add(span{Parent: jobID, Name: "service.queue", Req: ev.Source, Start: tr.ns(q), End: tr.ns(r)})
				tr.add(span{Parent: jobID, Name: "service.run", Req: ev.Source, Start: tr.ns(r), End: tr.ns(ev.Time)})
			}
		case obs.EventPassEnd:
			if ev.Stat == nil {
				return
			}
			end := tr.ns(ev.Time)
			tr.add(span{Name: "verify." + ev.Stat.Pass, Req: ev.Source, Start: end - int64(ev.Stat.ElapsedMS*1e6), End: end})
		}
	}
}

// jobTimes extracts queue wait and run time per job from the bus spans.
func jobTimes(spans []span) (queueMS, runMS []float64) {
	for _, s := range spans {
		switch s.Name {
		case "service.queue":
			queueMS = append(queueMS, float64(s.End-s.Start)/1e6)
		case "service.run":
			runMS = append(runMS, float64(s.End-s.Start)/1e6)
		}
	}
	return queueMS, runMS
}

// replProbe measures replication lag: for every fresh verdict, the time
// from the owner's terminal event until the result is readable from
// every replica's store.
type replProbe struct {
	s    *stack
	trk  *tracker
	stop chan struct{}
	done chan struct{}
	lag  []float64
}

func startReplProbe(s *stack, trk *tracker) *replProbe {
	p := &replProbe{s: s, trk: trk, stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *replProbe) loop() {
	defer close(p.done)
	var queue []completion
	next := 0
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		p.trk.mu.Lock()
		queue = append(queue, p.trk.fresh[next:]...)
		next = len(p.trk.fresh)
		keys := make([]string, len(queue))
		for i, c := range queue {
			keys[i] = p.trk.keys[c.id]
		}
		p.trk.mu.Unlock()
		kept := queue[:0]
		for i, c := range queue {
			if keys[i] == "" || time.Since(c.at) > 5*time.Second {
				continue // no key known, or lost: not a lag sample
			}
			all := true
			for _, n := range p.s.nodes {
				if _, ok := n.st.Get(keys[i]); !ok {
					all = false
					break
				}
			}
			if all {
				p.lag = append(p.lag, float64(time.Since(c.at).Nanoseconds())/1e6)
				continue
			}
			kept = append(kept, c)
		}
		queue = kept
	}
}

func (p *replProbe) finish() []float64 {
	// Give the last verdicts one more replication round to land.
	time.Sleep(3 * replicateInterval)
	close(p.stop)
	<-p.done
	return p.lag
}
