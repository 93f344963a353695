package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"nonmask/internal/protocols/registry"
	"nonmask/internal/service"
	"nonmask/internal/service/client"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		p    float64
		n    int
		want bool
	}{
		{99, 999, false}, {99, 1000, true}, {50, 19, false}, {50, 20, true}, {90, 99, false}, {90, 100, true},
	}
	for _, c := range cases {
		if got := percentileAllowed(c.p, c.n); got != c.want {
			t.Errorf("percentileAllowed(%g, %d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(vals)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(vals); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 50); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
}

// A stalled request delays the requests scheduled behind it, and their
// latency is measured from when they were due, so the stall shows in
// every one of them.
func TestLatencyIsTimedFromScheduledSend(t *testing.T) {
	ops := []op{{At: 0}, {At: 10 * time.Millisecond}, {At: 20 * time.Millisecond}}
	trk := newTracker()
	start := time.Now()
	lags := dispatch(ops, start, 1, func(i int, due time.Time) {
		if i == 0 {
			time.Sleep(80 * time.Millisecond) // the stall
		}
		trk.answered(due, time.Now())
	})
	if len(trk.latMS) != 3 || len(lags) != 3 {
		t.Fatalf("got %d latencies, %d lags; want 3 each", len(trk.latMS), len(lags))
	}
	for i, want := range []float64{80, 70, 60} {
		if trk.latMS[i] < want-5 {
			t.Errorf("op %d latency %.1f ms, want at least %.0f ms (from its due time)", i, trk.latMS[i], want-5)
		}
	}
	if lags[1] < 60 || lags[2] < 50 {
		t.Errorf("generator lag %v: ops behind the stall should be handed over late", lags)
	}
}

// Completion events that beat the admission response are matched up
// when the admission returns.
func TestTrackerMatchesEarlyCompletion(t *testing.T) {
	trk := newTracker()
	due := time.Now()
	trk.completed("j-1", due.Add(5*time.Millisecond))
	trk.admitted("j-1", due, false, due.Add(7*time.Millisecond))
	trk.admitted("j-2", due, false, due.Add(1*time.Millisecond))
	trk.completed("j-2", due.Add(30*time.Millisecond))
	if trk.pending() != 0 {
		t.Fatalf("pending = %d, want 0", trk.pending())
	}
	if !reflect.DeepEqual(trk.latMS, []float64{7, 30}) {
		t.Fatalf("latencies %v, want [7 30]", trk.latMS)
	}
}

// Refused submissions, failed jobs and verdicts that disagree with the
// oracle all count as failed operations.
func TestRefusedAndWrongSubmissionsCountAsErrors(t *testing.T) {
	good := ring(3, 4, none) // 4^4 = 256 states, K ≥ N: satisfied
	responses := []func(w http.ResponseWriter){
		func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full"}`))
		},
		func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"draining"}`))
		},
		func(w http.ResponseWriter) {
			json.NewEncoder(w).Encode(service.JobStatus{ID: "j-3", State: service.StateDone,
				Result: &service.Result{Verdict: service.VerdictViolated, States: 256}})
		},
		func(w http.ResponseWriter) {
			json.NewEncoder(w).Encode(service.JobStatus{ID: "j-4", State: service.StateDone,
				Result: &service.Result{Verdict: service.VerdictSatisfied, States: 255}})
		},
		func(w http.ResponseWriter) {
			json.NewEncoder(w).Encode(service.JobStatus{ID: "j-5", State: service.StateFailed, Error: "boom"})
		},
		func(w http.ResponseWriter) {
			json.NewEncoder(w).Encode(service.JobStatus{ID: "j-6", State: service.StateDone,
				Result: &service.Result{Verdict: service.VerdictSatisfied, States: 256}})
		},
	}
	next := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		responses[next](w)
		next++
	}))
	defer ts.Close()
	s := &stack{nodes: []*node{{cli: client.New(ts.URL, nil)}}}
	plan := mixPlan{Catalog: []job{good}}
	for range responses {
		plan.Ops = append(plan.Ops, op{Kind: opSubmit})
	}
	tl := &tally{}
	m := &mixRun{s: s, plan: plan, tl: tl, trk: newTracker(), ids: make([]string, len(plan.Ops))}
	for i := range plan.Ops {
		m.send(i, time.Now())
	}
	if tl.attempted != 6 || tl.failed != 5 {
		t.Fatalf("attempted=%d failed=%d, want 6 and 5 (%v)", tl.attempted, tl.failed, tl.msgs)
	}
	if got := tl.errorRate(); math.Abs(got-5.0/6) > 1e-12 {
		t.Fatalf("error rate %v, want 5/6", got)
	}
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	if !reflect.DeepEqual(genVerifyCold(3), genVerifyCold(3)) {
		t.Fatal("verify-cold list differs for the same seed")
	}
	if reflect.DeepEqual(genVerifyCold(3), genVerifyCold(4)) {
		t.Fatal("verify-cold list ignores the seed")
	}
	sh := mixShapes["cluster-3node"]
	a, b := genMix(3, sh, 5*time.Second), genMix(3, sh, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("open-loop plan differs for the same seed")
	}
	if reflect.DeepEqual(a.Ops, genMix(4, sh, 5*time.Second).Ops) {
		t.Fatal("open-loop plan ignores the seed")
	}
	kinds := map[opKind]int{}
	for _, o := range a.Ops {
		kinds[o.Kind]++
	}
	if kinds[opSubmit] == 0 || kinds[opRead] == 0 || kinds[opBatch] == 0 {
		t.Fatalf("cluster plan op mix %v lacks a kind", kinds)
	}
}

// Every job in a pass, and the set-up's warm-up check, has its own cache
// key, so every verify-cold job is a miss on the pass's fresh server.
func TestVerifyColdJobsAreDistinct(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seen := map[string]bool{}
		for _, j := range append(genVerifyCold(seed), coldWarmUp()) {
			raw, _ := json.Marshal(j.Spec)
			if seen[string(raw)] {
				t.Fatalf("seed %d: %s appears twice", seed, j.Label)
			}
			seen[string(raw)] = true
		}
	}
}

func TestOracleTable(t *testing.T) {
	cases := []struct {
		j    job
		want expect
	}{
		{ring(4, 4, none), expect{service.VerdictSatisfied, 1024}}, // K = N: stabilizes
		{ring(5, 4, none), expect{service.VerdictViolated, 4096}},  // K < N: livelock
		{catalogJob("fourstate", registry.Params{N: 9}, none), expect{service.VerdictSatisfied, 1 << 18}},
		{catalogJob("threestate", registry.Params{N: 10}, none), expect{service.VerdictSatisfied, 177147}},
		{tree("termination", 6, "star", 0, none), expect{service.VerdictSatisfied, 1 << 18}},
		{catalogJob("xyz", registry.Params{Variant: "interfering"}, none), expect{service.VerdictViolated, 125}},
		{gclXYZ("xyz", 10, false, none), expect{service.VerdictSatisfied, 1000}},
		{gclXYZ("xyz", 10, true, none), expect{service.VerdictViolated, 1000}},
		{gclDiffusing("diffusing", []int{0, 0, 1}, none), expect{service.VerdictSatisfied, 64}},
		{gclTokenPath("tokenpath", 4, 5, none), expect{service.VerdictSatisfied, 625}},
	}
	for _, c := range cases {
		if c.j.Want != c.want {
			t.Errorf("%s: oracle %+v, want %+v", c.j.Label, c.j.Want, c.want)
		}
	}
	// Every catalog instance the generators can emit has an entry
	// (catalogJob panics otherwise).
	for seed := int64(1); seed <= 5; seed++ {
		genMix(seed, mixShapes["service-mix"], time.Second)
	}
}

func TestRelabelKeepsTreeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][]int{binary8, caterpillar8} {
		p := relabel(rng, shape)
		deg := func(par []int) []int {
			d := make([]int, len(par))
			for j := 1; j < len(par); j++ {
				if par[j] >= j {
					t.Fatalf("relabelled tree %v lists a child before its parent", par)
				}
				d[par[j]]++
			}
			sort.Ints(d)
			return d
		}
		if !reflect.DeepEqual(deg(p), deg(shape)) {
			t.Fatalf("relabel(%v) = %v changes the degree sequence", shape, p)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := resolve([]span{
		{ID: 1, Name: "client.submit", Req: "j-1", Start: 0, End: 100},
		{ID: 2, Name: "service.handler POST /v1/jobs", Parent: 1, Start: 10, End: 50},
		{ID: 3, Name: "service.job", Req: "j-1", Start: 20, End: 60},
		{ID: 4, Name: "verify.enumerate", Req: "j-1", Start: 90, End: 120},
	})
	if spans[1].Req != "j-1" {
		t.Fatalf("handler span did not inherit the request id: %+v", spans[1])
	}
	if spans[2].Parent != 1 {
		t.Fatalf("job span parent = %d, want the client span (1)", spans[2].Parent)
	}
	lt := selfTimes(spans)
	// client: 100 - |[10,50] ∪ [20,60]| = 100 - 50 = 50 ns; the pass span
	// ends after the client span, so it is not a child.
	if got := lt["client"].SelfMS * 1e6; math.Abs(got-50) > 1e-6 {
		t.Fatalf("client self time %v ns, want 50", got)
	}
	if got := lt["verify"].SelfMS * 1e6; math.Abs(got-30) > 1e-6 {
		t.Fatalf("verify self time %v ns, want 30", got)
	}
}

// The retained heap is what release frees and nothing else: harness
// state kept across both readings cancels out, so a phase without a
// stack reads about 0.
func TestRetainedHeapCountsOnlyWhatReleaseFrees(t *testing.T) {
	harness := make([]byte, 32<<20)
	for i := range harness {
		harness[i] = byte(i)
	}
	if got := retainedHeapMB(func() {}, harness); math.Abs(got) > 1 {
		t.Errorf("no stack: retained %.2f MiB, want about 0", got)
	}
	held := make([]byte, 16<<20)
	held[len(held)-1] = 1
	if got := retainedHeapMB(func() { held = nil }, harness); math.Abs(got-16) > 1 {
		t.Errorf("stack of 16 MiB: retained %.2f MiB, want about 16", got)
	}
}

// A machine that runs everything 1.3× slower leaves verify-cold's gated
// times where they were: the reference rounds slow down with the jobs.
func TestColdScaledCancelsMachineSpeed(t *testing.T) {
	lat := []float64{300, 420, 510, 380, 610}
	ref := []float64{18, 18.5, 17.5}
	base := coldScaled(median(lat), ref)
	if want := 420 * refNominalMS / 18; math.Abs(base-want) > 1e-9 {
		t.Fatalf("coldScaled = %v, want %v", base, want)
	}
	slow := func(v []float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = 1.3 * x
		}
		return out
	}
	if got := coldScaled(median(slow(lat)), slow(ref)); math.Abs(got-base) > 1e-9 {
		t.Fatalf("coldScaled on a 1.3× slower machine = %v, want %v", got, base)
	}
}
