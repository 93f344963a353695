package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"nonmask/internal/obs"
)

// The job record lifecycle. admit creates every job record with its kind
// fixed and its event stream opened with "queued"; finish is the one
// terminal transition. By kind:
//
//	executed   queue → executor ("running") → finish
//	cached     finish at admission with the cache's verdict
//	coalesced  finish with the outcome of the identical job in flight
//	mirrored   finish with the outcome of a run on the owner node, or of
//	           the local job admitted in its place when the owner is
//	           unreachable
//
// Only executed records hold a queue slot, an executor, a tenant quota
// slot and the in-flight coalescing entry, and finish gives back the
// last two.

// Submit validates, content-addresses, and admits a job without a
// tenant, as the entry node: the single-node path and the tests' front
// door.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	return s.SubmitAs(spec, "", false)
}

// SubmitAs validates, content-addresses, and admits a job on behalf of
// tenant. Cache hits return an already-done job without touching the
// queue. In a cluster, a submission whose fingerprint another node owns
// is forwarded there (forwarded marks a submission already routed by a
// peer, which always runs locally — the loop-free guarantee); if the
// owner is unreachable the job runs here instead, trading placement for
// availability. Misses are enqueued unless the tenant's quota is
// exhausted (429), the queue is full (429), or the server is draining
// (503).
func (s *Server) SubmitAs(spec JobSpec, tenant string, forwarded bool) (JobStatus, error) {
	c, err := compileAdmitted(spec, s.cfg)
	if err != nil {
		return JobStatus{}, s.reject(http.StatusBadRequest, tenant, "%v", err)
	}
	c.tenant = tenant
	if node := s.route(c); node != "" && !forwarded {
		ctx, cancel := context.WithTimeout(s.baseCtx, 15*time.Second)
		st, err := s.cfg.Router.SubmitRemote(ctx, node, tenant, spec)
		cancel()
		if err == nil {
			s.metrics.Forwarded.Add(1)
			return st, nil
		}
		if !s.fallBack(err, node, c) {
			// The owner answered: its rejection is the verdict.
			return JobStatus{}, &submitError{code: errorCode(err), msg: err.Error(), tenant: tenant}
		}
	}
	j, err := s.admit(c, "")
	if err != nil {
		return JobStatus{}, err
	}
	return j.status(), nil
}

// route is the one routing decision for a compiled job: it names the
// owner node when a peer owns the key and this node holds no verdict for
// it, and returns "" when the job belongs here — any node answers for a
// verdict it already holds.
func (s *Server) route(c *Compiled) string {
	rt := s.cfg.Router
	if rt == nil {
		return ""
	}
	node, local := rt.Owner(c.key)
	if local {
		return ""
	}
	if hit, _ := s.cache.get(c.key); hit != nil {
		return ""
	}
	return node
}

// fallBack reports whether a failed call to the owner node should be
// answered by running the job here. An error carrying an HTTP status is
// the owner's verdict and stands; anything else is a transport failure,
// and a dead peer must degrade placement, not service.
func (s *Server) fallBack(err error, node string, c *Compiled) bool {
	var he HTTPStatusError
	if errors.As(err, &he) {
		return false
	}
	s.metrics.ForwardFallbacks.Add(1)
	s.log.Warn("forward failed; running locally", "owner", node, "key", c.key, "error", err)
	return true
}

// admit creates c's job record on this node. A non-empty owner makes it
// a mirror of a run on that peer (batch members whose key a peer owns).
// Otherwise the record is a cache hit when the verdict is known, a
// coalesced mirror of an identical job in flight, or an executed job on
// the queue unless the tenant's quota or the queue is full (429). Every
// kind is refused while draining (503).
func (s *Server) admit(c *Compiled, owner string) (*job, error) {
	now := time.Now()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, s.reject(http.StatusServiceUnavailable, c.tenant, "server is draining")
	}
	if owner != "" {
		// The mirror holds no local queue slot or executor; quota is
		// charged on the node that runs the member. Canceling it (batch
		// cancel, shutdown) abandons the remote wait through ctx.
		ctx, cancel := context.WithCancel(s.baseCtx)
		j := s.newJobLocked(c, kindMirrored, now)
		j.cancel = cancel
		s.mirrors.Add(1)
		s.mu.Unlock()
		s.metrics.Submitted.Add(1)
		s.log.Info("batch member forwarded", "job", j.id, "owner", owner, "key", c.key)
		go s.mirror(ctx, j, c, nil, owner)
		return j, nil
	}
	if hit, fromStore := s.cache.get(c.key); hit != nil {
		j := s.newJobLocked(c, kindCached, now)
		s.mu.Unlock()
		s.metrics.Submitted.Add(1)
		s.metrics.CacheHits.Add(1)
		if fromStore {
			s.metrics.StoreHits.Add(1)
		}
		s.finish(j, StateQueued, outcome{state: StateDone, result: hit, cached: true})
		s.log.Info("job done", "job", j.id, "program", c.name, "cached", true,
			"store", fromStore, "verdict", hit.Verdict)
		return j, nil
	}
	if leader, ok := s.inflight[c.key]; ok {
		j := s.newJobLocked(c, kindCoalesced, now)
		s.mirrors.Add(1)
		s.mu.Unlock()
		s.metrics.Submitted.Add(1)
		s.metrics.Coalesced.Add(1)
		go s.mirror(s.baseCtx, j, nil, leader, "")
		s.log.Info("job coalesced", "job", j.id, "leader", leader.id,
			"program", c.name, "key", c.key)
		return j, nil
	}
	var tn *Tenant
	if s.cfg.Tenants != nil && c.tenant != "" && c.tenant != ClusterTenant {
		tn = s.cfg.Tenants.ByName(c.tenant)
		if !tn.tryAcquire() {
			s.mu.Unlock()
			s.metrics.QuotaRejected.Add(1)
			return nil, s.reject(http.StatusTooManyRequests, c.tenant,
				"tenant %q quota exhausted (%d jobs in flight); retry later", c.tenant, tn.Limits().Quota)
		}
	}
	q := s.queue
	if c.priority {
		q = s.queueHigh
	}
	// Every send holds s.mu and receivers only drain, so a queue with room
	// now still has room at the send below: a rejection leaves no trace.
	if len(q) == cap(q) {
		tn.release()
		s.mu.Unlock()
		return nil, s.reject(http.StatusTooManyRequests, c.tenant, "queue full (%d queued); retry later", s.cfg.QueueSize)
	}
	j := s.newJobLocked(c, kindExecuted, now)
	j.quota = tn
	s.inflight[c.key] = j
	q <- queued{j, c}
	s.mu.Unlock()
	s.metrics.Submitted.Add(1)
	s.metrics.CacheMisses.Add(1)
	s.metrics.QueueDepth.Add(1)
	if c.priority {
		s.metrics.HighPriority.Add(1)
	}
	s.log.Info("job queued", "job", j.id, "program", c.name, "key", c.key,
		"tenant", c.tenant, "priority", c.priority)
	return j, nil
}

// admitPatiently admits c, waiting out 429 pushback (a full queue or the
// tenant's quota) on a short backoff until stop closes.
func (s *Server) admitPatiently(c *Compiled, owner string, stop <-chan struct{}) (*job, error) {
	for {
		j, err := s.admit(c, owner)
		if errorCode(err) != http.StatusTooManyRequests {
			return j, err
		}
		select {
		case <-time.After(batchRetryDelay):
		case <-stop:
			return nil, err
		}
	}
}

// newJobLocked creates c's job record of the given kind: the header
// copied from c, the next id, this node's name, the event stream opened
// with "queued", and the table row (s.mu held, so nothing sees the record
// before the caller is done with it).
func (s *Server) newJobLocked(c *Compiled, kind jobKind, now time.Time) *job {
	s.seq++
	j := &job{key: c.key, name: c.name, tenant: c.tenant,
		n: c.params.N, k: c.params.K, seed: c.params.Seed, kind: kind, node: s.cfg.NodeName}
	j.id = s.prefixID(fmt.Sprintf("j-%08d", s.seq))
	j.done = make(chan struct{})
	j.submitted = now
	j.state = StateQueued
	s.addLocked(j, obs.Event{Type: obs.EventJob, State: string(StateQueued)})
	return j
}

// addLocked opens a record's event stream with its first event and adds
// the record to the table (s.mu held).
func (s *Server) addLocked(e entry, open obs.Event) {
	r := e.rec()
	r.events = s.bus.Stream(r.id)
	r.events.Publish(open)
	s.table.add(e)
}

// mirror finishes the mirror record j with its source's outcome once the
// source is terminal. The source is src, a local job, or when src is nil
// a run of c's spec on node under ctx. A remote run that fails in
// transport falls back to admitting c here, and j mirrors that job; a
// canceled j or a draining server does not fall back. Canceling j on its
// own ends the wait, not the source.
func (s *Server) mirror(ctx context.Context, j *job, c *Compiled, src *job, node string) {
	defer s.mirrors.Done()
	if src == nil {
		st, err := s.cfg.Router.RunRemote(ctx, node, c.tenant, c.spec)
		switch {
		case err == nil:
			s.metrics.Forwarded.Add(1)
			s.finish(j, StateQueued, remoteOutcome(st, node))
			return
		case ctx.Err() != nil:
			s.finish(j, StateQueued, outcome{state: StateCanceled, err: fmt.Errorf("canceled: %w", err)})
			return
		case !s.fallBack(err, node, c):
			s.finish(j, StateQueued, outcome{state: StateFailed, err: fmt.Errorf("remote run on %s: %w", node, err)})
			return
		}
		if src, err = s.admitPatiently(c, "", ctx.Done()); err != nil {
			s.finish(j, StateQueued, outcome{state: StateFailed, err: err})
			return
		}
	}
	select {
	case <-src.done:
		src.mu.Lock()
		o := src.outcome
		src.mu.Unlock()
		s.finish(j, StateQueued, o)
	case <-j.done:
	}
}

// remoteOutcome maps a remote run's terminal status onto its mirror.
func remoteOutcome(st JobStatus, node string) outcome {
	switch st.State {
	case StateDone:
		return outcome{state: StateDone, result: st.Result, cached: st.Cached}
	case StateCanceled:
		return outcome{state: StateCanceled, err: fmt.Errorf("canceled on %s", node)}
	}
	msg := st.Error
	if msg == "" {
		msg = "remote job ended " + string(st.State)
	}
	return outcome{state: StateFailed, err: fmt.Errorf("remote run on %s: %s", node, msg)}
}

// finish is the terminal transition of every job record, whatever its
// kind. It moves j from state from to the outcome o exactly once; when j
// has already left from (a cancel, a pickup or another source got there
// first) it changes nothing and reports false. It stops a mirror's remote
// run, then publishes the terminal event and closes done. An executed
// record also counts its outcome and gives back its tenant quota slot and
// its in-flight coalescing entry, before any waiter wakes.
func (s *Server) finish(j *job, from JobState, o outcome) bool {
	j.mu.Lock()
	if j.state != from {
		j.mu.Unlock()
		return false
	}
	j.outcome = o
	j.finished = time.Now()
	stop := j.cancel
	j.cancel = nil
	j.mu.Unlock()
	if stop != nil {
		stop()
	}
	if j.kind == kindExecuted {
		switch o.state {
		case StateDone:
			s.metrics.Completed.Add(1)
		case StateFailed:
			s.metrics.Failed.Add(1)
		default:
			s.metrics.Canceled.Add(1)
		}
		j.quota.release()
		s.mu.Lock()
		if s.inflight[j.key] == j {
			delete(s.inflight, j.key)
		}
		s.mu.Unlock()
	}
	ev := obs.Event{Type: obs.EventJob, State: string(o.state)}
	switch {
	case o.err != nil:
		ev.Detail = o.err.Error()
	case o.result != nil:
		ev.Detail = o.result.Verdict
		if o.cached {
			ev.Detail += " (cached)"
		} else if j.kind == kindCoalesced {
			ev.Detail += " (coalesced)"
		}
	}
	j.end(ev)
	return true
}

// cancelJob cancels j: a queued record of any kind ends canceled at once
// (the mirrors of a queued leader follow it), a running check is
// interrupted through its context and ends when its executor sees that,
// and a terminal record is left alone.
func (s *Server) cancelJob(j *job) {
	if s.finish(j, StateQueued, outcome{state: StateCanceled, err: errors.New("canceled while queued")}) {
		return
	}
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}
