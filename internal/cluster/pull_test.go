package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nonmask/internal/service"
	"nonmask/internal/store"
)

// The tests below drive Start's per-peer pull loops against real and
// fake peers. Each puller is a Cluster whose own node never serves: it
// only pulls, so Self is an address nobody dials.

const pullerSelf = "http://puller.test"

// peerNode is one replica the puller pulls from: a store behind a real
// service on an httptest listener.
type peerNode struct {
	ts    *httptest.Server
	store *store.Store
	srv   *service.Server
}

// newPeerNode starts a replica serving /v1/replicate from its own store.
func newPeerNode(t *testing.T) *peerNode {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{Store: st, Executors: -1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { st.Close() })
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a test that drained the node already gets "called twice"
	})
	return &peerNode{ts: ts, store: st, srv: srv}
}

// puller is a started Cluster with its own store and transport.
type puller struct {
	*Cluster
	store *store.Store
	tr    *http.Transport
}

// startPuller starts a node that pulls from every URL in peers at the
// given interval. Cleanup closes it before the peers go away.
func startPuller(t *testing.T, interval time.Duration, peers ...string) *puller {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	c, err := New(Config{
		Self:              pullerSelf,
		Peers:             append([]string{pullerSelf}, peers...),
		Store:             st,
		ReplicateInterval: interval,
		HTTPClient:        &http.Client{Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() {
		c.Close()
		tr.CloseIdleConnections()
		st.Close()
	})
	return &puller{Cluster: c, store: st, tr: tr}
}

// within polls cond until it holds, failing the test after d. It
// returns how long the wait took.
func within(t *testing.T, d time.Duration, what string, cond func() bool) time.Duration {
	t.Helper()
	start := time.Now()
	for !cond() {
		if time.Since(start) > d {
			t.Fatalf("%s: not within %v", what, d)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Since(start)
}

func has(st *store.Store, key string) func() bool {
	return func() bool { _, ok := st.Get(key); return ok }
}

// parked waits until the puller finished its catch-up pull from every
// peer, then gives the first long-poll a moment to park.
func parked(t *testing.T, p *puller, peers int) {
	t.Helper()
	within(t, 5*time.Second, "catch-up pulls", func() bool { return p.replicatePulls.Load() >= int64(peers) })
	time.Sleep(50 * time.Millisecond)
}

// TestPullHungPeerDoesNotStallLivePeers: a peer that accepts the pull
// and never answers must not hold back replication from a live one. A
// verdict written on the live peer reaches the puller within one
// interval although the hung peer's pull is still open.
func TestPullHungPeerDoesNotStallLivePeers(t *testing.T) {
	const interval = 500 * time.Millisecond
	live := newPeerNode(t)
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(hung.Close)
	t.Cleanup(func() { close(release) })

	p := startPuller(t, interval, live.ts.URL, hung.URL)
	// Two intervals in, a sequential round would be stuck on the hung
	// peer whichever order it pulls in.
	time.Sleep(2 * interval)
	if err := live.store.Put("k-live", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	within(t, interval, "verdict from the live peer", has(p.store, "k-live"))
}

// TestPullPacing: against a peer that answers every pull at once with an
// empty page (a server that predates ?wait= ignores it), or fails every
// pull, the loop makes about one pull per interval, not a hot loop.
func TestPullPacing(t *testing.T) {
	const (
		interval = 100 * time.Millisecond
		run      = time.Second
	)
	for name, answer := range map[string]func(http.ResponseWriter){
		"empty-page": func(w http.ResponseWriter) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"gen":1,"next":0,"more":false}`))
		},
		"failing": func(w http.ResponseWriter) {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
		},
	} {
		t.Run(name, func(t *testing.T) {
			var pulls atomic.Int64
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				pulls.Add(1)
				answer(w)
			}))
			t.Cleanup(peer.Close)
			p := startPuller(t, interval, peer.URL)
			time.Sleep(run)
			p.Close()
			// The catch-up pull, then at most one per interval (one more
			// for timer slack).
			if got, most := pulls.Load(), int64(run/interval)+2; got > most {
				t.Fatalf("%d pulls in %v at a %v interval, want at most %d", got, run, interval, most)
			}
		})
	}
}

// TestPullLongPollDeliversOnWrite: with a 10 s interval, a record
// written on the peer (by Put or by a replicated Apply) reaches the
// puller in well under a second, because the parked pull wakes on the
// append rather than on a timer.
func TestPullLongPollDeliversOnWrite(t *testing.T) {
	live := newPeerNode(t)
	p := startPuller(t, 10*time.Second, live.ts.URL)
	time.Sleep(200 * time.Millisecond) // the catch-up pull returns, the long-poll parks
	if err := live.store.Put("k-put", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	within(t, time.Second, "record written by Put", has(p.store, "k-put"))
	time.Sleep(50 * time.Millisecond) // park again
	if _, err := live.store.Apply("k-apply", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	within(t, time.Second, "record written by Apply", has(p.store, "k-apply"))
}

// TestPullWakesOnCompact: a compaction on the peer wakes the parked pull,
// which re-reads the new generation from its top; a record written
// after the compaction then arrives too, so the cursor reset lost
// nothing.
func TestPullWakesOnCompact(t *testing.T) {
	live := newPeerNode(t)
	for _, k := range []string{"k0", "k1"} {
		if err := live.store.Put(k, []byte(`{"v":"`+k+`"}`)); err != nil {
			t.Fatal(err)
		}
	}
	p := startPuller(t, 10*time.Second, live.ts.URL)
	within(t, 5*time.Second, "catch-up", has(p.store, "k1"))
	parked(t, p, 1)
	before := p.replicatePulls.Load()
	if err := live.store.Compact(); err != nil {
		t.Fatal(err)
	}
	within(t, time.Second, "pull woken by the compaction", func() bool { return p.replicatePulls.Load() > before })
	time.Sleep(50 * time.Millisecond) // park on the new generation
	if err := live.store.Put("k2", []byte(`{"v":"k2"}`)); err != nil {
		t.Fatal(err)
	}
	within(t, time.Second, "record after the compaction", has(p.store, "k2"))
	if got, want := p.store.Keys(), live.store.Keys(); len(got) != len(want) {
		t.Fatalf("puller keys %v, peer keys %v", got, want)
	}
}

// TestPullWakesOnStoreClose: closing the peer's store ends the parked
// pull at once (as a failed pull) instead of after the wait.
func TestPullWakesOnStoreClose(t *testing.T) {
	live := newPeerNode(t)
	p := startPuller(t, 10*time.Second, live.ts.URL)
	parked(t, p, 1)
	if err := live.store.Close(); err != nil {
		t.Fatal(err)
	}
	within(t, time.Second, "pull ended by the store's close", func() bool { return p.replicateErrors.Load() > 0 })
}

// TestPullServerShutdownEndsParkedPulls: draining the peer's service and
// then its http.Server does not wait out a parked pull.
func TestPullServerShutdownEndsParkedPulls(t *testing.T) {
	live := newPeerNode(t)
	p := startPuller(t, 10*time.Second, live.ts.URL)
	parked(t, p, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := live.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := live.ts.Config.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shutdown took %v with a pull parked", d)
	}
}

// TestPullCloseCancelsParkedPulls: Cluster.Close returns promptly with
// every pull parked, and leaves no goroutine behind.
func TestPullCloseCancelsParkedPulls(t *testing.T) {
	a, b := newPeerNode(t), newPeerNode(t)
	baseline := runtime.NumGoroutine()
	p := startPuller(t, 10*time.Second, a.ts.URL, b.ts.URL)
	parked(t, p, 2)
	start := time.Now()
	p.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with pulls parked", d)
	}
	p.tr.CloseIdleConnections()
	p.store.Close() // its flusher started after the baseline too
	within(t, 5*time.Second, "goroutines back to baseline", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// TestPullRejectsBadWait: a ?wait= that is not a non-negative duration
// is a 400, not a pull.
func TestPullRejectsBadWait(t *testing.T) {
	live := newPeerNode(t)
	for _, wait := range []string{"-1s", "soon"} {
		resp, err := http.Post(live.ts.URL+"/v1/replicate?wait="+wait, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("wait=%s: status %d, want 400", wait, resp.StatusCode)
		}
	}
}
