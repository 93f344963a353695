package service

import (
	"context"
	"strings"
	"testing"
)

// TestCoalescesIdenticalInFlight pins single-flight semantics: identical
// submissions arriving while a leader is queued or running attach to it,
// run no check of their own, and inherit the leader's result.
func TestCoalescesIdenticalInFlight(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	testHookJobRunning = func(id string) {
		started <- id
		<-release
	}
	defer func() { testHookJobRunning = nil }()

	s := New(Config{Executors: 1, QueueSize: 4})
	defer s.Shutdown(context.Background())

	leader, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the executor holds the leader in flight

	var mirrors []JobStatus
	for i := 0; i < 2; i++ {
		st, err := s.Submit(ringSpec(3, 5))
		if err != nil {
			t.Fatalf("follower %d: %v", i, err)
		}
		if !st.Coalesced {
			t.Fatalf("follower %d not coalesced: %+v", i, st)
		}
		if st.ID == leader.ID {
			t.Fatalf("follower %d reused the leader's id %s", i, st.ID)
		}
		if st.Key != leader.Key {
			t.Fatalf("follower %d key %s, leader key %s", i, st.Key, leader.Key)
		}
		mirrors = append(mirrors, st)
	}
	// A different instance does not coalesce.
	other, err := s.Submit(ringSpec(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	if other.Coalesced {
		t.Fatalf("distinct spec coalesced onto %s", leader.ID)
	}
	if got := s.metrics.Coalesced.Load(); got != 2 {
		t.Fatalf("coalesced = %d, want 2", got)
	}

	close(release)
	lst := waitTerminal(t, s, leader.ID)
	if lst.State != StateDone || lst.Result == nil {
		t.Fatalf("leader ended %s (err %q)", lst.State, lst.Error)
	}
	for _, f := range mirrors {
		fst := waitTerminal(t, s, f.ID)
		if fst.State != StateDone || fst.Result == nil {
			t.Fatalf("follower %s ended %s (err %q)", f.ID, fst.State, fst.Error)
		}
		if fst.Result.Verdict != lst.Result.Verdict || fst.Result.States != lst.Result.States {
			t.Fatalf("follower %s result %+v diverges from leader %+v",
				f.ID, fst.Result, lst.Result)
		}
		if !fst.Coalesced {
			t.Fatalf("follower %s lost its coalesced mark at completion", f.ID)
		}
	}
	// One leader + one distinct spec ran; the coalesced jobs must not have.
	waitTerminal(t, s, other.ID)
	if got := s.metrics.Completed.Load(); got != 2 {
		t.Fatalf("completed = %d, want 2 (coalesced jobs must not run checks)", got)
	}

	// The in-flight entry is released on the terminal transition, so a
	// fresh identical submission is a cache hit, not a coalesce.
	again, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if again.Coalesced || !again.Cached {
		t.Fatalf("post-completion resubmit: %+v, want a cache hit", again)
	}
}

// TestCancelQueuedLeaderCancelsFollowers checks that coalesced jobs inherit a
// queued leader's cancellation — both via explicit Cancel and via the
// Shutdown drain.
func TestCancelQueuedLeaderCancelsFollowers(t *testing.T) {
	// No executors: leaders park in the queue.
	s := New(Config{Executors: -1, QueueSize: 4})

	leader, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	follower, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Coalesced {
		t.Fatalf("second submission not coalesced: %+v", follower)
	}
	if _, ok := s.Cancel(leader.ID); !ok {
		t.Fatal("cancel leader: not found")
	}
	fst := waitTerminal(t, s, follower.ID)
	if fst.State != StateCanceled {
		t.Fatalf("follower ended %s, want canceled with its leader", fst.State)
	}

	// Second pair: canceled by the Shutdown drain instead.
	leader2, err := s.Submit(ringSpec(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	follower2, err := s.Submit(ringSpec(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{leader2.ID, follower2.ID} {
		st := waitTerminal(t, s, id)
		if st.State != StateCanceled {
			t.Fatalf("job %s ended %s, want canceled by the drain", id, st.State)
		}
	}
}

// TestMetricsExposeCoalescedAndIndexSizes checks the new exposition lines:
// the single-flight counter and the per-pass edges/bytes totals. A plain
// verdict job builds only the forward index; the reverse index
// (pred_table) appears once a metrics job walks backwards.
func TestMetricsExposeCoalescedAndIndexSizes(t *testing.T) {
	s := New(Config{Executors: 1})
	defer s.Shutdown(context.Background())
	exposition := func(spec JobSpec) string {
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, st.ID)
		var b strings.Builder
		s.metrics.WritePrometheus(&b)
		return b.String()
	}
	out := exposition(ringSpec(3, 5))
	for _, want := range []string{
		"csserved_jobs_coalesced_total 0",
		`csserved_pass_edges_total{pass="succ_table"}`,
		`csserved_pass_bytes_total{pass="succ_table"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if strings.Contains(out, `pass="pred_table"`) {
		t.Errorf("a plain verdict job built the reverse index:\n%s", out)
	}
	// succ_table measured a positive edge count for the ring.
	nonZero(t, out, `csserved_pass_edges_total{pass="succ_table"} `)

	metrics := ringSpec(3, 5)
	metrics.Options.Analyses = []string{AnalysisMetrics}
	out = exposition(metrics)
	nonZero(t, out, `csserved_pass_edges_total{pass="pred_table"} `)
	nonZero(t, out, `csserved_pass_bytes_total{pass="pred_table"} `)
}

// nonZero asserts that the exposition has the series line starting with
// prefix and that its value is not zero.
func nonZero(t *testing.T, out, prefix string) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			if strings.HasSuffix(line, " 0") {
				t.Errorf("series is zero: %q", line)
			}
			return
		}
	}
	t.Errorf("metrics exposition missing %q", prefix)
}
