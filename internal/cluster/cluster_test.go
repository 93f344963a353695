package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonmask/internal/protocols/registry"
	"nonmask/internal/service"
	"nonmask/internal/service/client"
	"nonmask/internal/store"
)

func TestNewValidatesMembership(t *testing.T) {
	for name, cfg := range map[string]Config{
		"too-few":     {Self: "http://a", Peers: []string{"http://a"}},
		"self-absent": {Self: "http://c", Peers: []string{"http://a", "http://b"}},
		"duplicate":   {Self: "http://a", Peers: []string{"http://a", "http://a/"}},
		"empty-peer":  {Self: "http://a", Peers: []string{"http://a", "  "}},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNodeNamesFollowSortedURLOrder(t *testing.T) {
	// Peer order in the flag must not matter: every replica sorts the URLs
	// and derives the same n0..nK naming.
	urls := []string{"http://host-b:1", "http://host-a:1", "http://host-c:1"}
	c, err := New(Config{Self: "http://host-c:1", Peers: urls})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Nodes(); len(got) != 3 || got[0] != "n0" || got[2] != "n2" {
		t.Fatalf("nodes = %v", got)
	}
	if c.NodeName() != "n2" { // host-c sorts last
		t.Fatalf("self = %s, want n2", c.NodeName())
	}
}

// TestOwnerIsDeterministicAndSpread checks the rendezvous hash: every
// member computes the same owner for every key, and ownership spreads
// across the members rather than collapsing onto one.
func TestOwnerIsDeterministicAndSpread(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	members := make([]*Cluster, len(urls))
	for i, u := range urls {
		c, err := New(Config{Self: u, Peers: urls})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = c
	}
	counts := map[string]int{}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("sha256:%064d", i)
		owner, _ := members[0].Owner(key)
		for _, m := range members[1:] {
			if got, _ := m.Owner(key); got != owner {
				t.Fatalf("members disagree on %s: %s vs %s", key, owner, got)
			}
		}
		counts[owner]++
	}
	for _, name := range members[0].Nodes() {
		if counts[name] == 0 {
			t.Fatalf("node %s owns nothing across 200 keys: %v", name, counts)
		}
	}
	// local must be true exactly on the owner.
	key := "sha256:deadbeef"
	owner, _ := members[0].Owner(key)
	for i, m := range members {
		_, local := m.Owner(key)
		if local != (m.NodeName() == owner) {
			t.Fatalf("member %d: local=%v, owner=%s, self=%s", i, local, owner, m.NodeName())
		}
	}
}

// swapHandler lets an httptest server come up before the service that
// will back it exists — the cluster needs the listener URLs, the
// service needs the cluster.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not wired yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testNode is one replica of the in-process 3-node cluster.
type testNode struct {
	ts      *httptest.Server
	store   *store.Store
	cluster *Cluster
	srv     *service.Server
	cli     *client.Client
}

const testClusterToken = "ct-secret"

// newTestCluster boots n replicas, each with its own store, wired into
// one membership list.
func newTestCluster(t *testing.T, n int) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	urls := make([]string, n)
	for i := range nodes {
		sh := &swapHandler{}
		ts := httptest.NewServer(sh)
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &testNode{ts: ts, store: st}
		urls[i] = ts.URL
		t.Cleanup(ts.Close)
		t.Cleanup(func() { st.Close() })
		// Rebind the handler at the end of setup.
		defer func(i int, sh *swapHandler) { sh.set(nodes[i].srv.Handler()) }(i, sh)
	}
	for i, node := range nodes {
		cl, err := New(Config{
			Self:         urls[i],
			Peers:        urls,
			ClusterToken: testClusterToken,
			Store:        node.store,
			HTTPClient:   node.ts.Client(),
		})
		if err != nil {
			t.Fatal(err)
		}
		node.cluster = cl
		node.srv = service.New(service.Config{
			NodeName:     cl.NodeName(),
			Router:       cl,
			Store:        node.store,
			ClusterToken: testClusterToken,
		})
		node.cli = client.New(urls[i], node.ts.Client())
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = node.srv.Shutdown(ctx)
		})
	}
	return nodes
}

// antiEntropy runs rounds of pulls on every node until every store holds
// the same key set (or the deadline passes).
func antiEntropy(t *testing.T, nodes []*testNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, n := range nodes {
			n.cluster.replicateOnce(context.Background())
		}
		if storesConverged(nodes) {
			return
		}
		if time.Now().After(deadline) {
			for i, n := range nodes {
				t.Logf("node %d keys: %v", i, n.store.Keys())
			}
			t.Fatal("stores never converged")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func storesConverged(nodes []*testNode) bool {
	want := nodes[0].store.Keys()
	if len(want) == 0 {
		return false
	}
	for _, n := range nodes[1:] {
		got := n.store.Keys()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
	}
	return true
}

func ringSpec(n, k int) service.JobSpec {
	return service.JobSpec{Protocol: "tokenring-ring", Params: registry.Params{N: n, K: k}}
}

// TestClusterMetamorphic is the single-node vs 3-node metamorphic
// check: the Result a client reads must be byte-identical no matter
// which replica receives the request, and after anti-entropy every
// replica's store holds the same key set.
func TestClusterMetamorphic(t *testing.T) {
	nodes := newTestCluster(t, 3)
	ctx := context.Background()
	spec := ringSpec(3, 5)

	// Single-node reference: a plain server with no Router.
	ref := service.New(service.Config{})
	defer ref.Shutdown(ctx)
	refSt, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	refDone, _ := ref.WaitJob(ctx, refSt.ID, 30*time.Second)

	// Run the job through node 0 (whichever node owns it, the submission
	// is routed there) and wait for the verdict.
	first, err := nodes[0].cli.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != service.StateDone || first.Result == nil {
		t.Fatalf("cluster run ended %s (%s)", first.State, first.Error)
	}
	owner, _ := nodes[0].cluster.Owner(first.Key)
	if first.Node != owner {
		t.Fatalf("job ran on %s, owner is %s", first.Node, owner)
	}
	if !strings.HasPrefix(first.ID, owner+".") {
		t.Fatalf("id %s not prefixed with owner %s", first.ID, owner)
	}

	// The cluster's verdict must match the single-node server's on every
	// semantic field (wall-clock fields differ by construction).
	if refDone.Result.Verdict != first.Result.Verdict ||
		refDone.Result.States != first.Result.States ||
		refDone.Result.Daemon != first.Result.Daemon {
		t.Fatalf("cluster verdict diverges from single-node:\n%+v\nvs\n%+v",
			first.Result, refDone.Result)
	}

	// Metamorphic leg: resubmit the same spec through every replica. Each
	// must serve the cached verdict, byte-identical on the wire.
	var wire [][]byte
	for i, n := range nodes {
		st, err := n.cli.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("node %d resubmit: %v", i, err)
		}
		if st.State != service.StateDone || st.Result == nil || !st.Result.Cached {
			t.Fatalf("node %d resubmit not a warm hit: %+v", i, st)
		}
		st.Result.Cached = false // receiving-path flag, not verdict content
		b, err := json.Marshal(st.Result)
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, b)
	}
	for i := 1; i < len(wire); i++ {
		if !bytes.Equal(wire[0], wire[i]) {
			t.Fatalf("result bytes differ between node 0 and node %d:\n%s\nvs\n%s",
				i, wire[0], wire[i])
		}
	}

	// Anti-entropy leg: every store converges to the same key set.
	antiEntropy(t, nodes)
	for i, n := range nodes {
		keys := n.store.Keys()
		if len(keys) != 1 || keys[0] != first.Key {
			t.Fatalf("node %d store keys = %v, want [%s]", i, keys, first.Key)
		}
	}
}

// TestDeadOwnerServesWarmCache kills the owner after replication and
// checks a survivor answers the same submission from its replicated
// store — zero new check runs.
func TestDeadOwnerServesWarmCache(t *testing.T) {
	nodes := newTestCluster(t, 3)
	ctx := context.Background()
	spec := ringSpec(4, 6)

	first, err := nodes[0].cli.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	antiEntropy(t, nodes)

	owner, _ := nodes[0].cluster.Owner(first.Key)
	var survivor *testNode
	for _, n := range nodes {
		if n.cluster.NodeName() == owner {
			n.ts.Close() // kill the owner
		} else if survivor == nil {
			survivor = n
		}
	}

	before := survivor.srv.Metrics().Completed.Load()
	st, err := survivor.cli.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("survivor submit: %v", err)
	}
	if st.State != service.StateDone || st.Result == nil || !st.Result.Cached {
		t.Fatalf("survivor did not serve the warm verdict: %+v", st)
	}
	if got := survivor.srv.Metrics().Completed.Load(); got != before {
		t.Fatalf("survivor ran %d new checks, want 0", got-before)
	}
}

// TestForwardFallbackRunsLocally covers the availability trade: when
// the owner is dead and the verdict is not replicated yet, the entry
// node runs the job itself instead of failing the submission.
func TestForwardFallbackRunsLocally(t *testing.T) {
	nodes := newTestCluster(t, 3)
	ctx := context.Background()

	// Find a spec owned by a node other than nodes[0]: fingerprint each
	// candidate on a throwaway executor-less server and hash it.
	var spec service.JobSpec
	var owner string
	for k := 5; k < 25; k++ {
		cand := ringSpec(3, k)
		ref := service.New(service.Config{Executors: -1})
		rst, rerr := ref.Submit(cand)
		if rerr != nil {
			t.Fatal(rerr)
		}
		ref.Shutdown(ctx)
		if o, local := nodes[0].cluster.Owner(rst.Key); !local {
			spec, owner = cand, o
			break
		}
	}
	if owner == "" {
		t.Fatal("no remotely-owned spec found")
	}
	for _, n := range nodes {
		if n.cluster.NodeName() == owner {
			n.ts.Close()
		}
	}
	st, err := nodes[0].cli.Run(ctx, spec)
	if err != nil {
		t.Fatalf("run with dead owner: %v", err)
	}
	if st.State != service.StateDone || st.Result == nil {
		t.Fatalf("fallback run ended %s (%s)", st.State, st.Error)
	}
	if st.Node != nodes[0].cluster.NodeName() {
		t.Fatalf("fallback ran on %s, want local %s", st.Node, nodes[0].cluster.NodeName())
	}
	if got := nodes[0].srv.Metrics().ForwardFallbacks.Load(); got != 1 {
		t.Fatalf("forward fallbacks = %d, want 1", got)
	}
}

// TestBatchFallsBackWhenOwnerDead is the batch half of the availability
// trade: a sweep member whose owner is unreachable runs on the entry
// node, exactly like a single submission, instead of failing the batch.
func TestBatchFallsBackWhenOwnerDead(t *testing.T) {
	nodes := newTestCluster(t, 3)
	ctx := context.Background()

	// Kill the owner of the first sweep member that another node owns,
	// fingerprinting each candidate on a throwaway executor-less server.
	ref := service.New(service.Config{Executors: -1})
	dead := ""
	members := 0
	for k := 5; k <= 12; k++ {
		st, err := ref.Submit(ringSpec(3, k))
		if err != nil {
			t.Fatal(err)
		}
		owner, local := nodes[0].cluster.Owner(st.Key)
		if !local && dead == "" {
			dead = owner
		}
		if owner == dead {
			members++
		}
	}
	ref.Shutdown(ctx)
	if dead == "" {
		t.Fatal("no remotely-owned member in the sweep")
	}
	for _, n := range nodes {
		if n.cluster.NodeName() == dead {
			n.ts.Close()
		}
	}

	bst, err := nodes[0].cli.SubmitBatch(ctx, service.BatchSpec{
		Sweep: &service.SweepSpec{
			Protocol: "tokenring-ring",
			Params:   registry.Params{N: 3},
			Ranges:   map[string]service.RangeSpec{"k": {From: 5, To: 12}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err := nodes[0].cli.WaitBatch(ctx, bst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != service.BatchDone || done.Counts.Done != 8 || done.Counts.Failed != 0 {
		t.Fatalf("batch ended %s: %+v", done.State, done.Counts)
	}
	if got := nodes[0].srv.Metrics().ForwardFallbacks.Load(); got != int64(members) {
		t.Fatalf("forward fallbacks = %d, want %d (the members %s owns)", got, members, dead)
	}
}

// TestProxyRoutesByIDPrefix reads a job owned by one node through
// another node's API: the id prefix routes the GET.
func TestProxyRoutesByIDPrefix(t *testing.T) {
	nodes := newTestCluster(t, 3)
	ctx := context.Background()

	first, err := nodes[0].cli.Run(ctx, ringSpec(5, 7))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		st, err := n.cli.Job(ctx, first.ID, 0)
		if err != nil {
			t.Fatalf("node %d: GET %s: %v", i, first.ID, err)
		}
		if st.ID != first.ID || st.State != service.StateDone {
			t.Fatalf("node %d sees %+v", i, st)
		}
	}
	// An id naming an unknown node falls through to the local 404.
	if _, err := nodes[0].cli.Job(ctx, "n9.j-00000001", 0); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown-node id: %v, want 404", err)
	}
}

// TestBatchFansAcrossReplicas sweeps k over a ring through one node and
// checks members actually ran on more than one replica — the mirror-record
// fan-out — while the batch's own record stays on the entry node.
func TestBatchFansAcrossReplicas(t *testing.T) {
	nodes := newTestCluster(t, 3)
	ctx := context.Background()

	bst, err := nodes[0].cli.SubmitBatch(ctx, service.BatchSpec{
		Sweep: &service.SweepSpec{
			Protocol: "tokenring-ring",
			Params:   registry.Params{N: 3},
			Ranges:   map[string]service.RangeSpec{"k": {From: 5, To: 12}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err := nodes[0].cli.WaitBatch(ctx, bst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != service.BatchDone {
		t.Fatalf("batch ended %s: %+v", done.State, done.Counts)
	}
	if done.Counts.Done != 8 {
		t.Fatalf("members done = %d, want 8", done.Counts.Done)
	}
	// Member records live on the entry node (remote runs are mirrored by
	// local mirror records), so fan-out shows up in where checks executed:
	// more than one replica must have completed work.
	spread := 0
	for _, n := range nodes {
		if n.srv.Metrics().Completed.Load() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("checks completed on %d node(s), want >= 2", spread)
	}
	if got := nodes[0].srv.Metrics().Forwarded.Load(); got == 0 {
		t.Fatal("entry node forwarded no members")
	}
	// Replicated verdicts converge onto every store.
	antiEntropy(t, nodes)
	if got := len(nodes[0].store.Keys()); got != 8 {
		t.Fatalf("node 0 store has %d keys after anti-entropy, want 8", got)
	}
	if got := nodes[0].cluster.replicatedRecords.Load(); got == 0 {
		t.Fatal("anti-entropy applied no records")
	}
}

// TestWriteMetricsRendersCounters spot-checks the peer layer's
// exposition fragment.
func TestWriteMetricsRendersCounters(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1"}
	c, err := New(Config{Self: urls[0], Peers: urls})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	c.WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		"csserved_cluster_peers 2",
		"csserved_replicated_records_total 0",
		"csserved_replicate_rounds_total 0",
		"csserved_replicate_errors_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestMirroredRecordsHoldNoProgram runs TestBatchFansAcrossReplicas's
// sweep and checks that the entry node's member records, mirrors of runs
// on their owners among them, hold no compiled program once the batch has
// ended. The witness is a finalizer on the sweep's Analyses array: every
// member's compiled program keeps its spec, whose Analyses shares that
// array, so the array is collected only once no member's program is
// reachable. Every record must still serve the same bytes afterwards.
func TestMirroredRecordsHoldNoProgram(t *testing.T) {
	nodes := newTestCluster(t, 3)
	entry := nodes[0].srv
	var collected atomic.Bool
	id := submitTrackedSweep(t, entry, &collected)
	bst, ok := entry.WaitBatch(context.Background(), id, 30*time.Second)
	if !ok || bst.State != service.BatchDone || bst.Counts.Done != 8 || len(bst.Curve) != 8 {
		t.Fatalf("batch ended %s: %+v, %d curve points", bst.State, bst.Counts, len(bst.Curve))
	}
	if entry.Metrics().Forwarded.Load() == 0 {
		t.Fatal("entry node mirrored no member")
	}
	paths := []string{"/v1/batches/" + id}
	for _, m := range bst.Jobs {
		paths = append(paths, "/v1/jobs/"+m.ID)
	}
	before := make([][]byte, len(paths))
	for i, p := range paths {
		before[i] = getBody(t, entry, p)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !collected.Load() {
		if time.Now().After(deadline) {
			t.Fatal("a member's compiled program is still reachable after the batch ended")
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	for i, p := range paths {
		if after := getBody(t, entry, p); !bytes.Equal(after, before[i]) {
			t.Errorf("%s changed once its program was collected:\nbefore %s\nafter  %s", p, before[i], after)
		}
	}
}

// submitTrackedSweep submits a metrics sweep of k = 5..12 over a 3-node
// ring in-process, so every member's spec shares the one Analyses array
// it puts a finalizer on, and keeps no reference to that array itself.
func submitTrackedSweep(t *testing.T, srv *service.Server, collected *atomic.Bool) string {
	t.Helper()
	analyses := new([1]string)
	analyses[0] = service.AnalysisMetrics
	runtime.SetFinalizer(analyses, func(*[1]string) { collected.Store(true) })
	st, err := srv.SubmitBatch(service.BatchSpec{Sweep: &service.SweepSpec{
		Protocol: "tokenring-ring",
		Params:   registry.Params{N: 3},
		Ranges:   map[string]service.RangeSpec{"k": {From: 5, To: 12}},
		Options:  service.JobOptions{Analyses: analyses[:]},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// getBody serves one GET through srv's handler and returns the body.
func getBody(t *testing.T, srv *service.Server, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}
