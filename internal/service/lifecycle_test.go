package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"nonmask/internal/obs"
)

// stubRouter places every key on peer n1, whose runs the test scripts.
type stubRouter struct {
	run func(ctx context.Context) (JobStatus, error)
}

func (stubRouter) NodeName() string            { return "n0" }
func (stubRouter) Owner(string) (string, bool) { return "n1", false }
func (stubRouter) SubmitRemote(context.Context, string, string, JobSpec) (JobStatus, error) {
	return JobStatus{}, errors.New("stub router: submissions run locally")
}
func (r stubRouter) RunRemote(ctx context.Context, _, _ string, _ JobSpec) (JobStatus, error) {
	return r.run(ctx)
}
func (stubRouter) ProxyHTTP(string, http.ResponseWriter, *http.Request) bool { return false }
func (stubRouter) WriteMetrics(io.Writer)                                    {}

// lifecycleWant is one record's expected life: the job-event states in
// order, and its flags once terminal.
type lifecycleWant struct {
	id                string
	states            []JobState
	cached, coalesced bool
}

var (
	executedDone   = []JobState{StateQueued, StateRunning, StateDone}
	mirroredDone   = []JobState{StateQueued, StateDone}
	queuedCanceled = []JobState{StateQueued, StateCanceled}
)

// holdExecutor gates the executor in the running-job hook until the
// returned release is called (or the test ends, so a failed test still
// shuts its server down); started receives each held job's id.
func holdExecutor(t *testing.T) (started chan string, release func()) {
	started = make(chan string, 4)
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	testHookJobRunning = func(id string) {
		started <- id
		<-gate
	}
	t.Cleanup(func() {
		release()
		testHookJobRunning = nil
	})
	return started, release
}

// memberID waits for the batch's single member to be admitted.
func memberID(t *testing.T, s *Server, id string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, _ := s.Batch(id); len(st.Jobs) == 1 {
			return st.Jobs[0].ID
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch %s admitted no member", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecordLifecycle drives every job record kind through each of its
// terminal paths and checks the one lifecycle they share: the exact
// job-event sequence with nothing after the terminal event, done closed,
// the cached/coalesced flags, the tenant's quota slots and the in-flight
// coalescing entries all given back.
func TestRecordLifecycle(t *testing.T) {
	remoteDone := func(context.Context) (JobStatus, error) {
		return JobStatus{State: StateDone, Cached: true,
			Result: &Result{Verdict: VerdictSatisfied, Cached: true}}, nil
	}
	remoteBlocks := func(ctx context.Context) (JobStatus, error) {
		<-ctx.Done()
		return JobStatus{}, ctx.Err()
	}
	remoteDead := func(context.Context) (JobStatus, error) {
		return JobStatus{}, errors.New("dial tcp: connection refused")
	}
	cases := []struct {
		name  string
		cfg   Config
		drive func(t *testing.T, s *Server) []lifecycleWant
		// fallbacks is how many remote runs fell back to running here.
		fallbacks int64
	}{
		{"executed", Config{Executors: 1}, func(t *testing.T, s *Server) []lifecycleWant {
			st, err := s.SubmitAs(ringSpec(3, 5), "alice", false)
			if err != nil {
				t.Fatal(err)
			}
			return []lifecycleWant{{id: st.ID, states: executedDone}}
		}, 0},
		{"cache hit", Config{Executors: 1}, func(t *testing.T, s *Server) []lifecycleWant {
			first, err := s.SubmitAs(ringSpec(3, 5), "alice", false)
			if err != nil {
				t.Fatal(err)
			}
			waitTerminal(t, s, first.ID)
			hit, err := s.SubmitAs(ringSpec(3, 5), "alice", false)
			if err != nil {
				t.Fatal(err)
			}
			return []lifecycleWant{{id: first.ID, states: executedDone},
				{id: hit.ID, states: mirroredDone, cached: true}}
		}, 0},
		{"coalesced follower of a finished leader", Config{Executors: 1}, func(t *testing.T, s *Server) []lifecycleWant {
			started, release := holdExecutor(t)
			leader, err := s.SubmitAs(ringSpec(3, 5), "alice", false)
			if err != nil {
				t.Fatal(err)
			}
			<-started
			follower, err := s.SubmitAs(ringSpec(3, 5), "alice", false)
			if err != nil {
				t.Fatal(err)
			}
			// Only the executor may end a running record.
			if j, _ := lookup[*job](s, leader.ID); s.finish(j, StateQueued, outcome{state: StateCanceled}) {
				t.Fatal("finish moved a running record from queued")
			}
			release()
			return []lifecycleWant{{id: leader.ID, states: executedDone},
				{id: follower.ID, states: mirroredDone, coalesced: true}}
		}, 0},
		{"queued leader canceled by DELETE", Config{Executors: -1}, func(t *testing.T, s *Server) []lifecycleWant {
			leader, err := s.SubmitAs(ringSpec(3, 5), "alice", false)
			if err != nil {
				t.Fatal(err)
			}
			follower, err := s.SubmitAs(ringSpec(3, 5), "alice", false)
			if err != nil {
				t.Fatal(err)
			}
			req := httptest.NewRequest("DELETE", "/v1/jobs/"+leader.ID, nil)
			req.Header.Set("Authorization", "Bearer tok")
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("DELETE: %d %s", rec.Code, rec.Body)
			}
			return []lifecycleWant{{id: leader.ID, states: queuedCanceled},
				{id: follower.ID, states: queuedCanceled, coalesced: true}}
		}, 0},
		{"follower canceled while its leader runs", Config{Executors: 1}, func(t *testing.T, s *Server) []lifecycleWant {
			started, release := holdExecutor(t)
			leader, err := s.SubmitAs(ringSpec(3, 5), "alice", false)
			if err != nil {
				t.Fatal(err)
			}
			<-started
			follower, err := s.SubmitAs(ringSpec(3, 5), "alice", false)
			if err != nil {
				t.Fatal(err)
			}
			if st, _ := s.Cancel(follower.ID); st.State != StateCanceled {
				t.Fatalf("canceled follower is %s", st.State)
			}
			release()
			return []lifecycleWant{{id: leader.ID, states: executedDone},
				{id: follower.ID, states: queuedCanceled, coalesced: true}}
		}, 0},
		{"mirror of a remote run", Config{Router: stubRouter{run: remoteDone}}, func(t *testing.T, s *Server) []lifecycleWant {
			b, err := s.SubmitBatchAs(BatchSpec{Specs: []JobSpec{ringSpec(3, 5)}}, "alice")
			if err != nil {
				t.Fatal(err)
			}
			return []lifecycleWant{{id: memberID(t, s, b.ID), states: mirroredDone, cached: true}}
		}, 0},
		{"mirror canceled by CancelBatch", Config{Router: stubRouter{run: remoteBlocks}}, func(t *testing.T, s *Server) []lifecycleWant {
			b, err := s.SubmitBatchAs(BatchSpec{Specs: []JobSpec{ringSpec(3, 5)}}, "alice")
			if err != nil {
				t.Fatal(err)
			}
			id := memberID(t, s, b.ID)
			if _, ok := s.CancelBatch(b.ID); !ok {
				t.Fatal("batch not found")
			}
			return []lifecycleWant{{id: id, states: queuedCanceled}}
		}, 0},
		{"mirror falls back when the owner is unreachable", Config{Router: stubRouter{run: remoteDead}}, func(t *testing.T, s *Server) []lifecycleWant {
			b, err := s.SubmitBatchAs(BatchSpec{Specs: []JobSpec{ringSpec(3, 5)}}, "alice")
			if err != nil {
				t.Fatal(err)
			}
			id := memberID(t, s, b.ID)
			if st := waitBatch(t, s, b.ID); st.State != BatchDone || st.Counts.Done != 1 {
				t.Fatalf("batch ended %s %+v", st.State, st.Counts)
			}
			// The local job run in the owner's place is the newest record.
			page := s.ListJobs(1, 0)
			return []lifecycleWant{{id: id, states: mirroredDone},
				{id: page.Jobs[0].ID, states: executedDone}}
		}, 1},
		{"queued job canceled by the shutdown drain", Config{Executors: -1}, func(t *testing.T, s *Server) []lifecycleWant {
			leader, err := s.SubmitAs(ringSpec(3, 5), "alice", false)
			if err != nil {
				t.Fatal(err)
			}
			follower, err := s.SubmitAs(ringSpec(3, 5), "alice", false)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			return []lifecycleWant{{id: leader.ID, states: queuedCanceled},
				{id: follower.ID, states: queuedCanceled, coalesced: true}}
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tenants := NewTenants()
			if err := tenants.Add("tok", "alice", TenantLimits{Quota: 4}); err != nil {
				t.Fatal(err)
			}
			tc.cfg.Tenants = tenants
			s := newServer(t, tc.cfg)
			wants := tc.drive(t, s)
			for _, w := range wants {
				j, ok := lookup[*job](s, w.id)
				if !ok {
					t.Fatalf("%s: no record", w.id)
				}
				select {
				case <-j.done:
				case <-time.After(10 * time.Second):
					t.Fatalf("%s: done never closed", w.id)
				}
			}
			// Shutdown waits for every goroutine that could still publish,
			// so a late event would show up in the histories below.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
			for _, w := range wants {
				j, _ := lookup[*job](s, w.id)
				hist, sub := j.events.Subscribe(0, 1)
				sub.Close()
				var states []JobState
				for _, ev := range hist {
					if ev.Type == obs.EventJob {
						states = append(states, JobState(ev.State))
					}
				}
				if !reflect.DeepEqual(states, w.states) {
					t.Errorf("%s: job events %v, want %v", w.id, states, w.states)
				}
				if last := hist[len(hist)-1]; last.Type != obs.EventJob || !JobState(last.State).terminal() {
					t.Errorf("%s: %s/%s published after the terminal event", w.id, last.Type, last.State)
				}
				st := j.status()
				if st.Cached != w.cached || st.Coalesced != w.coalesced {
					t.Errorf("%s: cached=%v coalesced=%v, want %v/%v", w.id, st.Cached, st.Coalesced, w.cached, w.coalesced)
				}
			}
			if got := s.metrics.ForwardFallbacks.Load(); got != tc.fallbacks {
				t.Errorf("forward fallbacks = %d, want %d", got, tc.fallbacks)
			}
			if got := tenants.ByName("alice").InFlight(); got != 0 {
				t.Errorf("tenant in-flight = %d after every record ended, want 0", got)
			}
			s.mu.Lock()
			left := len(s.inflight)
			s.mu.Unlock()
			if left != 0 {
				t.Errorf("%d in-flight coalescing entries left", left)
			}
		})
	}
}
