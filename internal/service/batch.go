package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"nonmask/internal/obs"
	"nonmask/internal/protocols/registry"
)

// The batch subsystem turns the service's one-job API into a sweep
// engine: POST /v1/batches accepts either an explicit spec list or a
// declarative parameter sweep, expands it server-side against the
// registry's advertised bounds, and fans the members out through the
// existing queue under a per-batch concurrency window, so one batch can
// never monopolize admission. Aggregate progress, one long-poll over the
// whole set, and batch cancel ride on the same job machinery single
// submissions use — members hit the cache, coalesce, and drain exactly
// like standalone jobs.

const (
	// maxBatchJobs bounds one batch's expansion.
	maxBatchJobs = 256
	// maxBatches bounds retained batch records (oldest terminal evicted).
	maxBatches = 512
	// batchRetryDelay is the backoff between member-admission retries when
	// the queue pushes back with 429.
	batchRetryDelay = 50 * time.Millisecond
)

// RangeSpec is one swept parameter's inclusive range: From, From+Step, …
// up to To. Step 0 means 1.
type RangeSpec struct {
	From int `json:"from"`
	To   int `json:"to"`
	Step int `json:"step,omitempty"`
}

// values expands the range, capped so a typo cannot allocate unbounded.
func (r RangeSpec) values(name string) ([]int, error) {
	step := r.Step
	if step == 0 {
		step = 1
	}
	if step < 0 {
		return nil, fmt.Errorf("sweep range %s: negative step %d", name, step)
	}
	if r.To < r.From {
		return nil, fmt.Errorf("sweep range %s: to=%d below from=%d", name, r.To, r.From)
	}
	n := (r.To-r.From)/step + 1
	if n > maxBatchJobs {
		return nil, fmt.Errorf("sweep range %s: %d points exceeds the %d-job batch cap", name, n, maxBatchJobs)
	}
	out := make([]int, 0, n)
	for v := r.From; v <= r.To; v += step {
		out = append(out, v)
	}
	return out, nil
}

// SweepSpec is the declarative form of a batch: one protocol, fixed
// params, and per-parameter ranges expanded server-side into the
// cartesian product of points. Sweepable parameters are the integer ones:
// "n", "k", and "seed".
type SweepSpec struct {
	// Protocol names the catalog entry every point instantiates.
	Protocol string `json:"protocol"`
	// Params fixes the non-swept parameters (tree shape, graph, …).
	Params registry.Params `json:"params,omitempty"`
	// Ranges maps parameter name → range; the expansion is the cartesian
	// product across ranges, every point validated against the registry's
	// advertised bounds before anything touches the queue.
	Ranges map[string]RangeSpec `json:"ranges"`
	// Options applies to every member job.
	Options JobOptions `json:"options,omitempty"`
}

// BatchSpec is the submission payload of POST /v1/batches. Exactly one of
// Specs (explicit member list) or Sweep (declarative expansion) must be
// set.
type BatchSpec struct {
	// Specs lists members explicitly.
	Specs []JobSpec `json:"specs,omitempty"`
	// Sweep declares members as a parameter sweep.
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Concurrency caps how many members of this batch are in the queue or
	// running at once (0 = the server's executor count). The window keeps
	// a big sweep from starving interactive submissions.
	Concurrency int `json:"concurrency,omitempty"`
}

// BatchState enumerates a batch's lifecycle.
type BatchState string

// Batch lifecycle states. A batch is "done" when every member reached a
// terminal state (failed members included — the counts carry the detail),
// and "canceled" when it was canceled or the server began draining before
// every member was admitted.
const (
	BatchRunning  BatchState = "running"
	BatchDone     BatchState = "done"
	BatchCanceled BatchState = "canceled"
)

func (s BatchState) terminal() bool { return s == BatchDone || s == BatchCanceled }

// BatchCounts is the aggregate progress of a batch's members.
type BatchCounts struct {
	// Total is the expanded member count.
	Total int `json:"total"`
	// Pending counts members not yet admitted (waiting on the batch's
	// concurrency window or on queue admission).
	Pending int `json:"pending"`
	// Queued / Running / Done / Failed / Canceled count admitted members
	// by job state.
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	// Cached counts done members served from the result cache.
	Cached int `json:"cached"`
	// Coalesced counts members that attached to an identical in-flight job.
	Coalesced int `json:"coalesced"`
}

// BatchJobRef is one member's summary row inside a BatchStatus.
type BatchJobRef struct {
	ID      string   `json:"id"`
	State   JobState `json:"state"`
	Program string   `json:"program"`
	Cached  bool     `json:"cached,omitempty"`
	Verdict string   `json:"verdict,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// CurvePoint is one member's contribution to a batch's tolerance curve:
// the instance parameters paired with its quantitative stabilization
// metrics. A K-sweep over a token ring, for example, yields one point per
// K value — the curve of recovery time against counter-domain size.
type CurvePoint struct {
	// Program is the member's instance-qualified program name.
	Program string `json:"program"`
	// N, K, and Seed are the member's normalized sweepable parameters.
	N    int   `json:"n,omitempty"`
	K    int   `json:"k,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// MaxDistance is the deepest fault in the member's distance profile.
	MaxDistance int `json:"max_distance"`
	// WorstMeasured / WorstSteps are the exact worst-case stabilization
	// time (see ToleranceMetrics).
	WorstMeasured bool `json:"worst_measured"`
	WorstSteps    int  `json:"worst_steps"`
	// ExpectedMeasured / ExpectedSteps are the expected stabilization time
	// under the uniform-random daemon.
	ExpectedMeasured bool    `json:"expected_measured"`
	ExpectedSteps    float64 `json:"expected_steps"`
}

// BatchStatus is the wire form of a batch.
type BatchStatus struct {
	// ID addresses the batch in GET /v1/batches/{id}.
	ID string `json:"id"`
	// State is the batch lifecycle state.
	State BatchState `json:"state"`
	// Counts is the aggregate member progress.
	Counts BatchCounts `json:"counts"`
	// Jobs lists admitted members in admission order.
	Jobs []BatchJobRef `json:"jobs"`
	// Curve aggregates the members' tolerance metrics into one curve, in
	// admission (sweep-expansion) order. Present only when members ran
	// with the "metrics" analysis selected; members still in flight,
	// failed, or without metrics contribute no point.
	Curve []CurvePoint `json:"curve,omitempty"`
	// SubmittedAt stamps admission; FinishedAt stamps the terminal
	// transition (zero until then).
	SubmittedAt time.Time `json:"submitted_at"`
	FinishedAt  time.Time `json:"finished_at"`
}

// batch is the server-side record of one batch submission. Its event
// stream carries batch_member completions, aggregate progress, and the
// terminal batch event. It keeps its member count, not its compiled
// members: those live in the runner's arguments until admitted.
type batch struct {
	record
	concurrency int
	// total is the expanded member count.
	total int

	// Guarded by record.mu.
	state    BatchState
	jobs     []*job
	canceled bool
	// terminalMembers counts members that reached a terminal state; it
	// drives the batch stream's aggregate progress events.
	terminalMembers int

	// cancelCh is closed by cancel to wake the runner out of window waits
	// and admission backoffs.
	cancelCh chan struct{}
}

// status snapshots the wire form. Member job locks nest under b.mu
// (nothing takes them in the other order).
func (b *batch) status() BatchStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BatchStatus{
		ID:          b.id,
		State:       b.state,
		SubmittedAt: b.submitted,
		FinishedAt:  b.finished,
		Jobs:        make([]BatchJobRef, 0, len(b.jobs)),
	}
	st.Counts.Total = b.total
	st.Counts.Pending = b.total - len(b.jobs)
	for _, j := range b.jobs {
		js := j.status()
		ref := BatchJobRef{ID: js.ID, State: js.State, Program: js.Program,
			Cached: js.Cached, Error: js.Error}
		if js.Result != nil {
			ref.Verdict = js.Result.Verdict
			if p, ok := curvePoint(j, js); ok {
				st.Curve = append(st.Curve, p)
			}
		}
		st.Jobs = append(st.Jobs, ref)
		if js.Coalesced {
			st.Counts.Coalesced++
		}
		switch js.State {
		case StateQueued:
			st.Counts.Queued++
		case StateRunning:
			st.Counts.Running++
		case StateDone:
			st.Counts.Done++
			if js.Cached {
				st.Counts.Cached++
			}
		case StateFailed:
			st.Counts.Failed++
		case StateCanceled:
			st.Counts.Canceled++
		}
	}
	return st
}

// curvePoint builds a member's tolerance-curve contribution, when it ran
// with metrics and produced one. Shared by the status aggregation and the
// batch event stream's running curve updates.
func curvePoint(j *job, js JobStatus) (CurvePoint, bool) {
	if js.Result == nil || js.Result.Metrics == nil {
		return CurvePoint{}, false
	}
	m := js.Result.Metrics
	return CurvePoint{
		Program:          js.Program,
		N:                j.n,
		K:                j.k,
		Seed:             j.seed,
		MaxDistance:      m.MaxDistance,
		WorstMeasured:    m.WorstMeasured,
		WorstSteps:       m.WorstSteps,
		ExpectedMeasured: m.ExpectedMeasured,
		ExpectedSteps:    m.ExpectedSteps,
	}, true
}

// finishBatch is a batch's terminal transition, run once by its runner
// after every admitted member is terminal: "done" when the whole
// expansion was admitted and not canceled, "canceled" otherwise. It
// counts the outcome before any waiter wakes.
func (s *Server) finishBatch(b *batch) {
	b.mu.Lock()
	state := BatchDone
	if b.canceled || len(b.jobs) < b.total {
		state = BatchCanceled
	}
	b.state, b.finished = state, time.Now()
	ev := obs.Event{Type: obs.EventBatch, State: string(state),
		Done: int64(b.terminalMembers), Total: int64(b.total)}
	b.mu.Unlock()
	s.metrics.BatchesInFlight.Add(-1)
	if state == BatchDone {
		s.metrics.BatchesCompleted.Add(1)
	} else {
		s.metrics.BatchesCanceled.Add(1)
	}
	s.log.Info("batch "+string(state), "batch", b.id, "admitted", ev.Done, "of", ev.Total)
	b.end(ev)
}

// sweepRangeOrder fixes the expansion order of swept parameters so a
// given sweep always yields the same member sequence (and therefore the
// same member→params pairing in the status listing).
var sweepRangeOrder = []string{"n", "k", "seed"}

// expandSweep turns a declarative sweep into concrete job specs: the
// cartesian product of the ranges over the fixed params, every point
// validated against the registry's advertised bounds.
func expandSweep(sw *SweepSpec) ([]JobSpec, error) {
	if sw.Protocol == "" {
		return nil, fmt.Errorf("sweep sets no protocol")
	}
	if _, ok := registry.Lookup(sw.Protocol); !ok {
		return nil, fmt.Errorf("unknown protocol %q (known: %v)", sw.Protocol, registry.Names())
	}
	if len(sw.Ranges) == 0 {
		return nil, fmt.Errorf("sweep declares no ranges (use specs for a single job)")
	}
	for name := range sw.Ranges {
		if name != "n" && name != "k" && name != "seed" {
			return nil, fmt.Errorf("unknown sweep parameter %q (sweepable: n, k, seed)", name)
		}
	}
	points := []registry.Params{sw.Params}
	for _, name := range sweepRangeOrder {
		r, ok := sw.Ranges[name]
		if !ok {
			continue
		}
		vals, err := r.values(name)
		if err != nil {
			return nil, err
		}
		next := make([]registry.Params, 0, len(points)*len(vals))
		for _, p := range points {
			for _, v := range vals {
				q := p
				switch name {
				case "n":
					q.N = v
				case "k":
					q.K = v
				case "seed":
					q.Seed = int64(v)
				}
				next = append(next, q)
			}
		}
		if len(next) > maxBatchJobs {
			return nil, fmt.Errorf("sweep expands to %d jobs, cap is %d", len(next), maxBatchJobs)
		}
		points = next
	}
	specs := make([]JobSpec, 0, len(points))
	for _, p := range points {
		// Reject out-of-range points here, before anything is admitted, so
		// the whole sweep fails atomically with the advertised bounds in
		// the error instead of half-running.
		if err := registry.Validate(sw.Protocol, p); err != nil {
			return nil, err
		}
		specs = append(specs, JobSpec{Protocol: sw.Protocol, Params: p, Options: sw.Options})
	}
	return specs, nil
}

// expandBatch resolves a batch spec into compiled members plus the
// effective concurrency window.
func expandBatch(spec BatchSpec, cfg Config) ([]*Compiled, int, error) {
	var (
		jobSpecs []JobSpec
		err      error
	)
	switch {
	case len(spec.Specs) > 0 && spec.Sweep != nil:
		return nil, 0, fmt.Errorf("batch sets both specs and sweep; pick one")
	case spec.Sweep != nil:
		jobSpecs, err = expandSweep(spec.Sweep)
		if err != nil {
			return nil, 0, err
		}
	case len(spec.Specs) > 0:
		jobSpecs = spec.Specs
	default:
		return nil, 0, fmt.Errorf("batch sets neither specs nor sweep")
	}
	if len(jobSpecs) > maxBatchJobs {
		return nil, 0, fmt.Errorf("batch lists %d jobs, cap is %d", len(jobSpecs), maxBatchJobs)
	}
	compiledSpecs := make([]*Compiled, 0, len(jobSpecs))
	for i, js := range jobSpecs {
		c, cerr := compileAdmitted(js, cfg)
		if cerr != nil {
			return nil, 0, fmt.Errorf("batch member %d: %w", i, cerr)
		}
		compiledSpecs = append(compiledSpecs, c)
	}
	conc := spec.Concurrency
	if conc <= 0 {
		conc = cfg.Executors
	}
	if conc < 1 {
		conc = 1
	}
	if conc > maxBatchJobs {
		conc = maxBatchJobs
	}
	return compiledSpecs, conc, nil
}

// SubmitBatch validates and expands an untenanted batch — the
// single-node path and the tests' front door.
func (s *Server) SubmitBatch(spec BatchSpec) (BatchStatus, error) {
	return s.SubmitBatchAs(spec, "")
}

// SubmitBatchAs validates and expands a batch on behalf of tenant,
// registers its record, and starts the fan-out runner. Validation is
// all-or-nothing and happens before anything is queued. In a cluster,
// members whose fingerprints other nodes own run there (local mirror
// records follow the remote runs), so one sweep spreads across the
// whole cluster.
func (s *Server) SubmitBatchAs(spec BatchSpec, tenant string) (BatchStatus, error) {
	specs, conc, err := expandBatch(spec, s.cfg)
	if err != nil {
		return BatchStatus{}, s.reject(http.StatusBadRequest, tenant, "%v", err)
	}
	for _, c := range specs {
		c.tenant = tenant
	}
	now := time.Now()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return BatchStatus{}, s.reject(http.StatusServiceUnavailable, tenant, "server is draining")
	}
	s.batchSeq++
	b := &batch{concurrency: conc, total: len(specs), state: BatchRunning, cancelCh: make(chan struct{})}
	b.id, b.submitted, b.done = s.prefixID(fmt.Sprintf("b-%08d", s.batchSeq)), now, make(chan struct{})
	s.addLocked(b, obs.Event{Type: obs.EventBatch, State: string(BatchRunning), Total: int64(len(specs))})
	s.batchWG.Add(1)
	s.mu.Unlock()
	s.metrics.BatchesSubmitted.Add(1)
	s.metrics.BatchesInFlight.Add(1)
	s.log.Info("batch queued", "batch", b.id, "jobs", len(specs), "concurrency", conc)
	go s.runBatch(b, specs)
	return b.status(), nil
}

// runBatch fans a batch's compiled members out through the shared queue.
// The concurrency window (sem) holds one slot per member from admission to
// terminal state; 429 pushback retries with a backoff, a drain or cancel
// stops admission, and the runner finishes the batch once every admitted
// member is terminal.
func (s *Server) runBatch(b *batch, specs []*Compiled) {
	defer s.batchWG.Done()
	sem := make(chan struct{}, b.concurrency)
	// memberWG tracks the per-member watcher goroutines, which publish
	// each member's completion on the batch stream once it is terminal.
	// Waiting on it before finishBatch makes the terminal batch event
	// strictly the stream's last.
	var memberWG sync.WaitGroup
admission:
	for i, c := range specs {
		select {
		case sem <- struct{}{}:
		case <-b.cancelCh:
			break admission
		}
		// Pushback (429) waits its turn instead of failing the batch. Once
		// admitted, the member's work holds its program, not the runner.
		j, err := s.admitPatiently(c, s.route(c), b.cancelCh)
		specs[i] = nil
		if err != nil {
			// Draining (503), a cancel, or an unexpected admission failure:
			// stop admitting; the batch ends canceled with the members it has.
			s.log.Warn("batch admission stopped", "batch", b.id, "error", err)
			break
		}
		b.mu.Lock()
		b.jobs = append(b.jobs, j)
		b.mu.Unlock()
		s.metrics.BatchJobs.Add(1)
		memberWG.Add(1)
		go func() {
			defer memberWG.Done()
			<-j.done
			b.publishMember(j)
			<-sem
		}()
	}
	memberWG.Wait()
	s.finishBatch(b)
}

// publishMember streams one member's terminal state onto the batch's
// event feed: a batch_member event (carrying the member's curve point as
// Data when metrics produced one) followed by an aggregate progress
// event, so a watcher sees the tolerance curve grow point by point.
func (b *batch) publishMember(j *job) {
	js := j.status()
	ev := obs.Event{Type: obs.EventBatchMember, Member: js.ID, State: string(js.State)}
	switch {
	case js.Error != "":
		ev.Detail = js.Error
	case js.Result != nil:
		ev.Detail = js.Result.Verdict
	}
	if p, ok := curvePoint(j, js); ok {
		if data, err := json.Marshal(p); err == nil {
			ev.Data = data
		}
	}
	b.mu.Lock()
	b.terminalMembers++
	done := b.terminalMembers
	b.mu.Unlock()
	b.events.Publish(ev)
	b.events.Publish(obs.Event{Type: obs.EventProgress,
		Done: int64(done), Total: int64(b.total)})
}

// Batch returns a batch's status by id.
func (s *Server) Batch(id string) (BatchStatus, bool) {
	return byID(context.Background(), s, id, 0, nil, (*batch).status)
}

// WaitBatch blocks until every member of the batch is terminal, the wait
// elapses, or ctx is done — one long-poll over the whole set.
func (s *Server) WaitBatch(ctx context.Context, id string, wait time.Duration) (BatchStatus, bool) {
	return byID(ctx, s, id, wait, nil, (*batch).status)
}

// CancelBatch stops admitting new members and cancels the queued and
// running ones. Terminal batches are left untouched.
func (s *Server) CancelBatch(id string) (BatchStatus, bool) {
	return byID(context.Background(), s, id, 0, s.cancelBatch, (*batch).status)
}

// cancelBatch stops the runner admitting members (it watches cancelCh)
// and cancels the admitted ones. A canceled or terminal batch is left
// alone.
func (s *Server) cancelBatch(b *batch) {
	b.mu.Lock()
	if b.canceled || b.state.terminal() {
		b.mu.Unlock()
		return
	}
	b.canceled = true
	close(b.cancelCh)
	members := append([]*job(nil), b.jobs...)
	b.mu.Unlock()
	for _, j := range members {
		s.cancelJob(j)
	}
	s.log.Info("batch cancel requested", "batch", b.id)
}
