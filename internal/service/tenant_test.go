package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func writeTokensFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tokens")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadTenantsFile(t *testing.T) {
	path := writeTokensFile(t, `
# ops gets everything; two tokens share the limits and live state
tok-alice alice quota=2 rate=10 burst=3
tok-alice2 alice quota=2 rate=10 burst=3
tok-bob bob

tok-carol carol rate=0.5
`)
	ts, err := LoadTenantsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.Names(); len(got) != 3 || got[0] != "alice" || got[1] != "bob" || got[2] != "carol" {
		t.Fatalf("names = %v", got)
	}
	a1, ok1 := ts.Lookup("tok-alice")
	a2, ok2 := ts.Lookup("tok-alice2")
	if !ok1 || !ok2 || a1 != a2 {
		t.Fatal("alice's two tokens must share one tenant record")
	}
	if lim := a1.Limits(); lim.Quota != 2 || lim.Rate != 10 || lim.Burst != 3 {
		t.Fatalf("alice limits = %+v", lim)
	}
	if c, _ := ts.Lookup("tok-carol"); c.Limits().Burst != 1 {
		// burst defaults to ceil(rate), floored at 1
		t.Fatalf("carol burst = %d, want 1", c.Limits().Burst)
	}
	if _, ok := ts.Lookup("tok-nobody"); ok {
		t.Fatal("unknown token resolved")
	}

	for name, bad := range map[string]string{
		"missing-tenant": "lonely-token",
		"dup-token":      "tok tenant1\ntok tenant2",
		"conflict":       "t1 team quota=1\nt2 team quota=9",
		"reserved":       "tok _cluster",
		"bad-option":     "tok tenant speed=11",
		"bad-quota":      "tok tenant quota=-1",
	} {
		if _, err := LoadTenantsFile(writeTokensFile(t, bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestAuthRejectsBadToken covers the 401 path and the unauthenticated
// probe exemptions once a tokens file is loaded.
func TestAuthRejectsBadToken(t *testing.T) {
	ts := NewTenants()
	if err := ts.Add("good-token", "alice", TenantLimits{}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Tenants: ts})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	get := func(path, token string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", path, nil)
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	if rec := get("/v1/jobs", ""); rec.Code != http.StatusUnauthorized {
		t.Fatalf("missing token: %d, want 401", rec.Code)
	}
	if rec := get("/v1/jobs", "wrong"); rec.Code != http.StatusUnauthorized {
		t.Fatalf("bad token: %d, want 401", rec.Code)
	}
	if rec := get("/v1/jobs", "good-token"); rec.Code != http.StatusOK {
		t.Fatalf("good token: %d, want 200", rec.Code)
	}
	// Probes and scrapes stay open: load balancers and Prometheus carry
	// no tenant tokens.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		if rec := get(path, ""); rec.Code != http.StatusOK {
			t.Fatalf("%s unauthenticated: %d, want 200", path, rec.Code)
		}
	}
	if got := s.metrics.AuthFailures.Load(); got != 2 {
		t.Fatalf("auth failures = %d, want 2", got)
	}
}

// TestRateLimitReturns429WithTenantHeader exhausts a tenant's token
// bucket over HTTP and checks the 429 names the tenant in
// X-CSServed-Tenant — the header operators alert on.
func TestRateLimitReturns429WithTenantHeader(t *testing.T) {
	ts := NewTenants()
	// burst=1, negligible refill: the second submission must bounce.
	if err := ts.Add("tok", "alice", TenantLimits{Rate: 0.0001, Burst: 1}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Tenants: ts, Executors: -1})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	submit := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/jobs",
			strings.NewReader(`{"protocol":"tokenring-ring","params":{"n":3,"k":5}}`))
		req.Header.Set("Authorization", "Bearer tok")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := submit(); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", rec.Code, rec.Body)
	}
	rec := submit()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second submit: %d, want 429", rec.Code)
	}
	if got := rec.Header().Get(TenantHeader); got != "alice" {
		t.Fatalf("%s = %q, want alice", TenantHeader, got)
	}
	if got := s.metrics.RateLimited.Load(); got != 1 {
		t.Fatalf("rate limited = %d, want 1", got)
	}
}

// TestQuotaBoundsInFlightJobs exhausts a tenant's in-flight quota, then
// frees a slot by canceling and checks admission reopens — the release
// rides the terminal transition.
func TestQuotaBoundsInFlightJobs(t *testing.T) {
	ts := NewTenants()
	if err := ts.Add("tok", "alice", TenantLimits{Quota: 1}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Tenants: ts, Executors: -1})
	defer s.Shutdown(context.Background())

	st, err := s.SubmitAs(ringSpec(3, 5), "alice", false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.SubmitAs(ringSpec(4, 6), "alice", false)
	if errorCode(err) != http.StatusTooManyRequests {
		t.Fatalf("over quota: %v, want 429", err)
	}
	if got := errorTenant(err); got != "alice" {
		t.Fatalf("rejection charges %q, want alice", got)
	}
	if got := s.metrics.QuotaRejected.Load(); got != 1 {
		t.Fatalf("quota rejected = %d, want 1", got)
	}
	// An identical submission coalesces — coalesced jobs hold no quota slot.
	co, err := s.SubmitAs(ringSpec(3, 5), "alice", false)
	if err != nil {
		t.Fatalf("coalesced resubmit bounced: %v", err)
	}
	if !co.Coalesced {
		t.Fatalf("resubmit did not coalesce: %+v", co)
	}
	// Cancel frees the slot; a fresh spec is admitted again.
	if _, ok := s.Cancel(st.ID); !ok {
		t.Fatal("cancel lost the job")
	}
	waitTerminal(t, s, st.ID)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = s.SubmitAs(ringSpec(4, 6), "alice", false)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quota slot never released: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The canceled leader released its slot (taking its coalesced follower
	// with it); only the freshly admitted job holds one.
	if got := ts.ByName("alice").InFlight(); got != 1 {
		t.Fatalf("in-flight = %d, want 1", got)
	}
}

// TestPriorityPreemptsQueueOrder parks normal jobs behind a held
// executor, slips a high-priority job in last, and checks it runs first
// — queue order is preempted, the running check is not.
func TestPriorityPreemptsQueueOrder(t *testing.T) {
	var (
		mu       sync.Mutex
		runOrder []string
	)
	hold := make(chan struct{})
	first := make(chan string, 1)
	testHookJobRunning = func(id string) {
		mu.Lock()
		runOrder = append(runOrder, id)
		n := len(runOrder)
		mu.Unlock()
		if n == 1 {
			first <- id
			<-hold // keep the executor busy while the queue fills
		}
	}
	defer func() { testHookJobRunning = nil }()

	s := New(Config{Executors: 1, QueueSize: 8})
	defer s.Shutdown(context.Background())

	blocker, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	<-first
	normal, err := s.Submit(ringSpec(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	highSpec := ringSpec(5, 7)
	highSpec.Options.Priority = "high"
	high, err := s.Submit(highSpec)
	if err != nil {
		t.Fatal(err)
	}
	close(hold)
	waitTerminal(t, s, normal.ID)
	waitTerminal(t, s, high.ID)

	mu.Lock()
	defer mu.Unlock()
	if len(runOrder) != 3 || runOrder[0] != blocker.ID ||
		runOrder[1] != high.ID || runOrder[2] != normal.ID {
		t.Fatalf("run order %v, want [%s %s %s]", runOrder, blocker.ID, high.ID, normal.ID)
	}
	if got := s.metrics.HighPriority.Load(); got != 1 {
		t.Fatalf("high priority = %d, want 1", got)
	}
}

func TestSubmitRejectsUnknownPriority(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	spec := ringSpec(3, 5)
	spec.Options.Priority = "urgent"
	if _, err := s.Submit(spec); errorCode(err) != http.StatusBadRequest {
		t.Fatalf("unknown priority: %v, want 400", err)
	}
}

// TestReadyzFlipsBeforeAdmissionCloses drives a Shutdown with a drain
// grace and checks the ordering the load balancer depends on: /readyz
// fails first while submissions are still accepted, /healthz stays 200
// throughout, and only after the grace do submissions bounce with 503.
func TestReadyzFlipsBeforeAdmissionCloses(t *testing.T) {
	s := New(Config{DrainGrace: 300 * time.Millisecond})
	h := s.Handler()
	probe := func(path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code
	}
	if probe("/readyz") != http.StatusOK || probe("/healthz") != http.StatusOK {
		t.Fatal("fresh server not ready/healthy")
	}

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()

	// Wait for readiness to drop.
	deadline := time.Now().Add(5 * time.Second)
	for probe("/readyz") != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("/readyz never dropped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Inside the grace window: not ready, still live, still admitting.
	if probe("/healthz") != http.StatusOK {
		t.Fatal("liveness dropped during drain grace")
	}
	if _, err := s.Submit(ringSpec(3, 5)); err != nil {
		t.Fatalf("submission bounced during drain grace: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Drained: admission closed, liveness still up (the process runs).
	if _, err := s.Submit(ringSpec(4, 6)); errorCode(err) != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %v, want 503", err)
	}
	if probe("/healthz") != http.StatusOK {
		t.Fatal("liveness dropped after drain")
	}
}
