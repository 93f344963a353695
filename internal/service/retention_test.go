package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonmask/internal/protocols/registry"
)

// TestRecordsHoldNoProgram pins that a record keeps its header and its
// outcome, never its compiled program. A finalizer on every program
// admission compiles counts the live ones. Once every executed, cached
// (memory and store hit), coalesced, canceled, fallen-back and batch record
// is terminal, all of them must be collected while GET still serves each
// record byte-for-byte as before: the same program, key, tenant and batch
// curve.
func TestRecordsHoldNoProgram(t *testing.T) {
	var compiled, live atomic.Int64
	testHookCompiled = func(c *Compiled) {
		compiled.Add(1)
		live.Add(1)
		runtime.SetFinalizer(c, func(*Compiled) { live.Add(-1) })
	}
	// Hold the first job in flight so a second submission coalesces onto
	// it and a third waits in the queue long enough to be canceled there.
	held, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	testHookJobRunning = func(string) {
		once.Do(func() {
			close(held)
			<-gate
		})
	}
	t.Cleanup(func() {
		testHookCompiled, testHookJobRunning = nil, nil
	})
	src, err := os.ReadFile("../../testdata/xyz.gcl")
	if err != nil {
		t.Fatal(err)
	}
	gclSpec := JobSpec{Source: string(src)}
	st := openStoreT(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	// One memory-cache slot: the second verdict put evicts the first, so a
	// resubmission of the first is served by the store.
	s := newServer(t, Config{Executors: 1, CacheSize: 1, Store: st})
	// A stub owner that never answers turns batch members into mirrors
	// that fall back to running here.
	fb := newServer(t, Config{Executors: 1, Router: stubRouter{run: func(context.Context) (JobStatus, error) {
		return JobStatus{}, errors.New("dial tcp: connection refused")
	}}})

	submit := func(spec JobSpec) JobStatus {
		t.Helper()
		st, err := s.SubmitAs(spec, "alice", false)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	leader := submit(ringSpec(3, 5))
	<-held
	follower := submit(ringSpec(3, 5))
	gclRun := submit(gclSpec)
	canceled := submit(ringSpec(3, 6))
	if st, _ := s.Cancel(canceled.ID); st.State != StateCanceled {
		t.Fatalf("queued job canceled into %s", st.State)
	}
	close(gate)
	jobs := []JobStatus{leader, follower, gclRun, canceled}
	for _, j := range jobs {
		waitTerminal(t, s, j.ID)
	}
	memHit, storeHit := submit(gclSpec), submit(ringSpec(3, 5))
	if !memHit.Cached || !storeHit.Cached || s.metrics.StoreHits.Load() != 1 {
		t.Fatalf("cached=%v/%v store hits=%d, want a memory and a store hit",
			memHit.Cached, storeHit.Cached, s.metrics.StoreHits.Load())
	}
	jobs = append(jobs, memHit, storeHit)
	sweep, err := s.SubmitBatchAs(BatchSpec{Sweep: &SweepSpec{
		Protocol: "tokenring-ring",
		Params:   registry.Params{N: 3},
		Ranges:   map[string]RangeSpec{"k": {From: 5, To: 7}},
		Options:  JobOptions{Analyses: []string{AnalysisMetrics}},
	}}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if b := waitBatch(t, s, sweep.ID); len(b.Curve) != 3 || b.Curve[2].N != 3 || b.Curve[2].K != 7 {
		t.Fatalf("sweep curve %+v, want k = 5..7 at n = 3", b.Curve)
	}
	fellBack, err := fb.SubmitBatchAs(BatchSpec{Specs: []JobSpec{ringSpec(3, 5), gclSpec}}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if b := waitBatch(t, fb, fellBack.ID); b.Counts.Done != 2 || fb.metrics.ForwardFallbacks.Load() != 2 {
		t.Fatalf("fallback batch counts %+v, %d fallbacks", b.Counts, fb.metrics.ForwardFallbacks.Load())
	}
	// Every submission compiled once, each batch member too.
	if got := compiled.Load(); got != 11 {
		t.Fatalf("admission compiled %d programs, want 11", got)
	}

	type served struct {
		srv  *Server
		path string
	}
	var records []served
	for _, j := range jobs {
		records = append(records, served{s, "/v1/jobs/" + j.ID})
	}
	records = append(records, served{s, "/v1/batches/" + sweep.ID}, served{fb, "/v1/batches/" + fellBack.ID})
	for _, b := range []served{records[len(records)-2], records[len(records)-1]} {
		var bst BatchStatus
		if err := json.Unmarshal(get(t, b.srv, b.path), &bst); err != nil {
			t.Fatal(err)
		}
		for _, m := range bst.Jobs {
			records = append(records, served{b.srv, "/v1/jobs/" + m.ID})
		}
	}
	// The fallback server's newest records are the local jobs run in the
	// owner's place.
	for _, j := range fb.ListJobs(2, 0).Jobs {
		records = append(records, served{fb, "/v1/jobs/" + j.ID})
	}
	before := make([][]byte, len(records))
	for i, r := range records {
		before[i] = get(t, r.srv, r.path)
		var st JobStatus
		if json.Unmarshal(before[i], &st) == nil && st.Key != "" && (st.Program == "" || st.Tenant != "alice") {
			t.Fatalf("%s: program %q tenant %q", r.path, st.Program, st.Tenant)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for live.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d compiled programs still reachable after every record ended",
				live.Load(), compiled.Load())
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	for i, r := range records {
		if after := get(t, r.srv, r.path); !bytes.Equal(after, before[i]) {
			t.Errorf("%s changed once its program was collected:\nbefore %s\nafter  %s", r.path, before[i], after)
		}
	}
}

// get serves one GET through the server's handler and returns the body.
func get(t *testing.T, s *Server, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}
