package service

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"nonmask/internal/obs"
	"nonmask/internal/protocols/registry"
	"nonmask/internal/verify"
)

func ringSpec(n, k int) JobSpec {
	return JobSpec{Protocol: "tokenring-ring", Params: registry.Params{N: n, K: k}}
}

func waitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	st, ok := s.WaitJob(context.Background(), id, 10*time.Second)
	if !ok {
		t.Fatalf("job %s disappeared", id)
	}
	if !st.State.terminal() {
		t.Fatalf("job %s still %s after wait", id, st.State)
	}
	return st
}

func TestSubmitRunsAndCaches(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())

	st, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached {
		t.Fatal("first submission reported cached")
	}
	st = waitTerminal(t, s, st.ID)
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("job ended %s (err %q)", st.State, st.Error)
	}
	if st.Result.Verdict != VerdictSatisfied {
		t.Fatalf("verdict %q, want satisfied", st.Result.Verdict)
	}

	// Same instance again: served from cache, no new check.
	st2, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != StateDone || st2.Result == nil || !st2.Result.Cached {
		t.Fatalf("second submission not a cache hit: %+v", st2)
	}
	if st2.Key != st.Key {
		t.Fatalf("cache keys differ: %s vs %s", st2.Key, st.Key)
	}
	if got := s.metrics.Completed.Load(); got != 1 {
		t.Fatalf("completed = %d, want 1 (cache hit must not re-run the check)", got)
	}
	if got := s.metrics.CacheHits.Load(); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}

	// Defaulted parameters share the cache line with their explicit
	// spelling (registry normalization): K=0 means N+2.
	st3, err := s.Submit(JobSpec{Protocol: "tokenring-ring", Params: registry.Params{N: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !st3.Cached {
		t.Fatalf("normalized-params submission missed the cache: key %s vs %s", st3.Key, st.Key)
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	for name, spec := range map[string]JobSpec{
		"empty":         {},
		"both":          {Source: "program p; var x : 0..1;", Protocol: "xyz"},
		"unknown-proto": {Protocol: "no-such"},
		"bad-strategy":  {Protocol: "xyz", Options: JobOptions{Strategy: "psychic"}},
		"bad-source":    {Source: "this is not gcl"},
		"neg-workers":   {Protocol: "xyz", Options: JobOptions{Workers: -2}},
	} {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("%s: accepted", name)
		} else if errorCode(err) != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", name, errorCode(err))
		}
	}
}

func TestQueueOverflowRejectsWith429(t *testing.T) {
	// No executors: everything parks in the queue.
	s := New(Config{QueueSize: 2, Executors: -1})
	if _, err := s.Submit(ringSpec(2, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(ringSpec(3, 5)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(ringSpec(4, 6))
	if err == nil {
		t.Fatal("third submission accepted past the queue bound")
	}
	if errorCode(err) != http.StatusTooManyRequests {
		t.Fatalf("overflow code %d, want 429", errorCode(err))
	}
	if got := s.metrics.Rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	// A cache hit does not need a queue slot, so it is admitted even when
	// the queue is full (seed the cache directly: no executors running).
	key := mustKey(t, ringSpec(2, 4), s.cfg)
	s.cache.put(key, &Result{Verdict: VerdictSatisfied})
	st, err := s.Submit(ringSpec(2, 4))
	if err != nil {
		t.Fatalf("cache-hit submission rejected while queue full: %v", err)
	}
	if !st.Cached {
		t.Fatalf("expected cache hit, got %+v", st)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Queued jobs were canceled by the drain.
	if got := s.metrics.Canceled.Load(); got != 2 {
		t.Fatalf("canceled = %d, want 2", got)
	}
}

func mustKey(t *testing.T, spec JobSpec, cfg Config) string {
	t.Helper()
	c, err := Compile(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c.key
}

func TestShutdownDrainsInFlight(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	testHookJobRunning = func(id string) {
		started <- id
		<-release
	}
	defer func() { testHookJobRunning = nil }()

	s := New(Config{Executors: 1, QueueSize: 4})
	inflight, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the executor holds the job in flight until release closes
	queued, err := s.Submit(ringSpec(4, 6))
	if err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()

	// Shutdown must cancel the queued job promptly even while the
	// in-flight one is still running.
	qst := waitTerminal(t, s, queued.ID)
	if qst.State != StateCanceled {
		t.Fatalf("queued job ended %s, want canceled", qst.State)
	}

	// New submissions are refused while draining.
	if _, err := s.Submit(ringSpec(2, 4)); errorCode(err) != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: err %v, want 503", err)
	}

	close(release) // let the in-flight check proceed
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	ist := waitTerminal(t, s, inflight.ID)
	if ist.State != StateDone || ist.Result == nil || ist.Result.Verdict != VerdictSatisfied {
		t.Fatalf("in-flight job was not drained to completion: %+v", ist)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	testHookJobRunning = func(id string) {
		started <- id
		<-release
	}
	defer func() { testHookJobRunning = nil }()

	s := New(Config{Executors: 1, QueueSize: 4})
	running, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(ringSpec(4, 6))
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job: immediate terminal state.
	qst, ok := s.Cancel(queued.ID)
	if !ok || qst.State != StateCanceled {
		t.Fatalf("cancel queued: ok=%v state=%s", ok, qst.State)
	}

	// Cancel the running job: its check context is canceled, so once
	// released it must end canceled, not done.
	if _, ok := s.Cancel(running.ID); !ok {
		t.Fatal("cancel running: job not found")
	}
	close(release)
	rst := waitTerminal(t, s, running.ID)
	if rst.State != StateCanceled {
		t.Fatalf("running job ended %s, want canceled", rst.State)
	}
	if _, ok := s.Cancel("j-99999999"); ok {
		t.Fatal("cancel of unknown job reported found")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineFailsJob(t *testing.T) {
	started := make(chan string, 1)
	testHookJobRunning = func(id string) {
		started <- id
		time.Sleep(20 * time.Millisecond) // outlive the 1ms deadline below
	}
	defer func() { testHookJobRunning = nil }()

	s := New(Config{Executors: 1})
	defer s.Shutdown(context.Background())
	// The deadline is applied by verify.Check as a context timeout, so a
	// 1ms budget expires while the hook sleeps and the check aborts.
	st, err := s.Submit(JobSpec{Protocol: "tokenring-ring",
		Params: registry.Params{N: 6, K: 8}, Options: JobOptions{DeadlineMS: 1}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	st = waitTerminal(t, s, st.ID)
	if st.State != StateFailed {
		t.Fatalf("deadline job ended %s (err %q), want failed", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("deadline failure not surfaced: %q", st.Error)
	}
}

func TestFingerprints(t *testing.T) {
	cfg := Config{}.withDefaults()
	base := mustKey(t, ringSpec(3, 5), cfg)
	if k := mustKey(t, ringSpec(3, 5), cfg); k != base {
		t.Fatal("identical specs hash differently")
	}
	if k := mustKey(t, ringSpec(3, 6), cfg); k == base {
		t.Fatal("different params share a key")
	}
	// Workers and deadline are excluded from the key (worker-invariant
	// verdicts; deadline only bounds time).
	spec := ringSpec(3, 5)
	spec.Options = JobOptions{Workers: 1, DeadlineMS: 5000}
	if k := mustKey(t, spec, cfg); k != base {
		t.Fatal("workers/deadline changed the cache key")
	}
	// MaxStates is semantically relevant and stays in the key.
	spec = ringSpec(3, 5)
	spec.Options = JobOptions{MaxStates: 1 << 10}
	if k := mustKey(t, spec, cfg); k == base {
		t.Fatal("max_states did not change the cache key")
	}
	// The explicit default MaxStates equals the zero spelling.
	spec.Options = JobOptions{MaxStates: verify.DefaultMaxStates}
	if k := mustKey(t, spec, cfg); k != base {
		t.Fatal("explicit default max_states missed the zero-default key")
	}

	// GCL jobs key on the canonical pretty-printed source: whitespace and
	// comment changes do not split the cache.
	src := "program p;\nvar x : 0..2;\ninvariant I : x = 0;\naction fix convergence establishes I : x != 0 -> x := 0;\n"
	noisy := "// a comment\nprogram p;\n\n\nvar x : 0..2;\n  invariant I : x = 0;\naction fix convergence establishes I :\n    x != 0 -> x := 0;\n"
	k1 := mustKey(t, JobSpec{Source: src}, cfg)
	k2 := mustKey(t, JobSpec{Source: noisy}, cfg)
	if k1 != k2 {
		t.Fatal("formatting-only source change split the cache")
	}
	k3 := mustKey(t, JobSpec{Source: strings.Replace(src, "0..2", "0..3", 1)}, cfg)
	if k3 == k1 {
		t.Fatal("semantic source change shared a key")
	}
}

func TestCacheEviction(t *testing.T) {
	c := newCache(2, nil)
	mustGet := func(key string) *Result {
		r, _ := c.get(key)
		return r
	}
	_ = c.put("a", &Result{Program: "a"})
	_ = c.put("b", &Result{Program: "b"})
	_ = c.put("c", &Result{Program: "c"})
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if mustGet("a") != nil {
		t.Fatal("oldest entry survived eviction")
	}
	if mustGet("b") == nil || mustGet("c") == nil {
		t.Fatal("newer entries evicted")
	}
	// Overwriting an existing key must not grow the order log.
	_ = c.put("c", &Result{Program: "c2"})
	if c.len() != 2 || mustGet("b") == nil {
		t.Fatal("re-put evicted a live entry")
	}
}

func TestRecordEviction(t *testing.T) {
	s := New(Config{MaxRecords: 3, Executors: 1})
	defer s.Shutdown(context.Background())
	var last JobStatus
	for i := 0; i < 6; i++ {
		st, err := s.Submit(ringSpec(2, 4+i)) // distinct keys: no cache hits
		if err != nil {
			t.Fatal(err)
		}
		last = waitTerminal(t, s, st.ID)
	}
	s.mu.Lock()
	n := len(s.table.jobs.ids)
	s.mu.Unlock()
	if n > 3 {
		t.Fatalf("retained %d job records, want <= 3", n)
	}
	if _, ok := s.Job(last.ID); !ok {
		t.Fatal("newest record evicted")
	}
	if _, ok := s.Job("j-00000001"); ok {
		t.Fatal("oldest finished record survived")
	}
}

// TestAdmitRacesExecutors submits distinct cache-miss jobs from several
// goroutines while executors drain the queue. An executor may pick a job
// up the moment it is enqueued, so its event stream must already be
// attached: under -race an enqueue ahead of the attach is a data race on
// the job's stream, and every job's event log must still open with
// "queued" followed by "running".
func TestAdmitRacesExecutors(t *testing.T) {
	s := New(Config{Executors: 4, QueueSize: 256})
	defer s.Shutdown(context.Background())
	const submitters, perSubmitter = 4, 12
	ids := make(chan string, submitters*perSubmitter)
	errs := make(chan error, submitters*perSubmitter)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				spec := JobSpec{Protocol: "tokenring-path", Params: registry.Params{N: 1, K: 2 + g*perSubmitter + i}}
				st, err := s.Submit(spec)
				if err != nil {
					errs <- err
					continue
				}
				ids <- st.ID
			}
		}(g)
	}
	wg.Wait()
	close(ids)
	close(errs)
	for err := range errs {
		t.Fatalf("submission rejected: %v", err)
	}
	for id := range ids {
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
		}
		j, _ := lookup[*job](s, id)
		hist, sub := j.events.Subscribe(0, 1)
		sub.Close()
		var states []string
		for _, ev := range hist {
			if ev.Type == obs.EventJob {
				states = append(states, ev.State)
			}
		}
		if len(states) < 2 || states[0] != string(StateQueued) || states[1] != string(StateRunning) {
			t.Fatalf("job %s lifecycle events %v, want queued, running, ...", id, states)
		}
	}
}
