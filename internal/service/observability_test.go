package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nonmask/internal/metrics"
	"nonmask/internal/verify"
)

func newServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// TestMetricsExposePassHistograms is the observability acceptance check:
// after one job, /metrics carries a latency histogram and throughput gauge
// for every pass the check ran.
func TestMetricsExposePassHistograms(t *testing.T) {
	s := newServer(t, Config{})
	st, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()

	for _, pass := range []string{verify.PassSuccTable,
		verify.PassClosure, verify.PassConvergeUnfair} {
		bucket := fmt.Sprintf("csserved_pass_latency_seconds_bucket{pass=%q,le=\"+Inf\"} 1", pass)
		if !strings.Contains(body, bucket) {
			t.Errorf("/metrics missing %s", bucket)
		}
		count := fmt.Sprintf("csserved_pass_latency_seconds_count{pass=%q} 1", pass)
		if !strings.Contains(body, count) {
			t.Errorf("/metrics missing %s", count)
		}
		if !strings.Contains(body, fmt.Sprintf("csserved_pass_states_total{pass=%q}", pass)) {
			t.Errorf("/metrics missing states counter for %s", pass)
		}
		if !strings.Contains(body, fmt.Sprintf("csserved_pass_states_per_second{pass=%q}", pass)) {
			t.Errorf("/metrics missing throughput gauge for %s", pass)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// TestResultCarriesDaemonAndPasses pins the satellite fix: the wire result
// names the daemon that produced the converging verdict and carries the
// per-pass breakdown.
func TestResultCarriesDaemonAndPasses(t *testing.T) {
	s := newServer(t, Config{})
	st, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, s, st.ID)
	if st.Result == nil {
		t.Fatalf("no result: %+v", st)
	}
	// Dijkstra's ring converges under the arbitrary daemon.
	if st.Result.Daemon != DaemonArbitrary {
		t.Errorf("daemon = %q, want %q", st.Result.Daemon, DaemonArbitrary)
	}
	if len(st.Result.Passes) < 3 {
		t.Fatalf("result has %d passes, want at least 3: %+v", len(st.Result.Passes), st.Result.Passes)
	}
	if st.Result.Passes[0].Pass != verify.PassSuccTable {
		t.Errorf("first pass = %q, want %q", st.Result.Passes[0].Pass, verify.PassSuccTable)
	}
	for _, p := range st.Result.Passes {
		if p.States <= 0 {
			t.Errorf("pass %s has no states: %+v", p.Pass, p)
		}
	}
}

func TestListJobsPagination(t *testing.T) {
	s := newServer(t, Config{})
	var ids []string
	for k := 4; k <= 6; k++ { // three distinct cache keys
		st, err := s.Submit(ringSpec(3, k))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, st.ID)
		ids = append(ids, st.ID)
	}

	page := s.ListJobs(2, 0)
	if page.Total != 3 || len(page.Jobs) != 2 {
		t.Fatalf("page = total %d, %d jobs; want total 3, 2 jobs", page.Total, len(page.Jobs))
	}
	// Newest first.
	if page.Jobs[0].ID != ids[2] || page.Jobs[1].ID != ids[1] {
		t.Fatalf("page order %s, %s; want %s, %s", page.Jobs[0].ID, page.Jobs[1].ID, ids[2], ids[1])
	}
	next := s.ListJobs(2, 2)
	if len(next.Jobs) != 1 || next.Jobs[0].ID != ids[0] {
		t.Fatalf("second page = %+v, want just %s", next.Jobs, ids[0])
	}
	if past := s.ListJobs(10, 99); len(past.Jobs) != 0 || past.Total != 3 {
		t.Fatalf("past-the-end page = %+v, want empty with total 3", past)
	}
	if all := s.ListJobs(0, 0); len(all.Jobs) != 3 {
		t.Fatalf("limit 0 returned %d jobs, want all 3", len(all.Jobs))
	}
}

// TestSweepExpired drives the TTL sweep directly: finished records older
// than RecordTTL go away, live (queued) jobs stay.
func TestSweepExpired(t *testing.T) {
	// No executors: submissions park in the queue and stay non-terminal.
	s := newServer(t, Config{Executors: -1, RecordTTL: time.Minute})
	queued, err := s.Submit(ringSpec(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	// A cache-primed terminal record: put a result in the cache under a
	// different key, then submit it for an instantly-done job.
	done, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if j, ok := lookup[*job](s, done.ID); ok {
		s.finish(j, StateQueued, outcome{state: StateCanceled})
	} else {
		t.Fatalf("no record for %s", done.ID)
	}

	// Not yet expired: nothing to sweep.
	if n := s.sweepExpired(time.Now()); n != 0 {
		t.Fatalf("swept %d records before the TTL elapsed", n)
	}
	// Past the TTL: the terminal record goes, the queued one stays.
	if n := s.sweepExpired(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("swept %d records, want 1", n)
	}
	if _, ok := s.Job(done.ID); ok {
		t.Error("terminal record survived the sweep")
	}
	if _, ok := s.Job(queued.ID); !ok {
		t.Error("live queued job was swept")
	}
	if page := s.ListJobs(0, 0); page.Total != 1 {
		t.Errorf("ListJobs total = %d after sweep, want 1", page.Total)
	}
}

// TestRequestIDHeader checks every response carries the X-Request-Id the
// request log is keyed by.
func TestRequestIDHeader(t *testing.T) {
	s := newServer(t, Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Header().Get("X-Request-Id") == "" {
		t.Fatal("response missing X-Request-Id")
	}
}

// TestLatencyWindowKeepsNewest checks the bounded window: past
// maxLatencySamples observations each new one replaces the oldest, so the
// summary covers exactly the latest checks.
func TestLatencyWindowKeepsNewest(t *testing.T) {
	var m Metrics
	all := make([]float64, 5000)
	for i := range all {
		all[i] = float64(i*7919%5000) / 1000
		m.ObserveLatency(all[i])
	}
	got, want := m.LatencySummary(), metrics.Summarize(all[len(all)-maxLatencySamples:])
	if got != want {
		t.Fatalf("LatencySummary = %+v, want %+v", got, want)
	}
}
