package service_test

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"

	"nonmask/internal/cluster"
	"nonmask/internal/obs"
	"nonmask/internal/service"
	"nonmask/internal/store"
)

// buildInfoLabels matches the label values of csserved_build_info, the
// only part of the exposition that depends on the build.
var buildInfoLabels = regexp.MustCompile(`(?m)^(csserved_build_info)\{.*\} 1$`)

// TestMetricsExpositionGolden renders /metrics for a fixed set of
// observations and compares it byte for byte with a committed golden
// file: every series, HELP and TYPE line, label, bucket bound and number
// format of the five writers behind the endpoint (service counters and
// histograms, event bus, build info, store, peer layer).
func TestMetricsExpositionGolden(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, k := range []string{"k1", "k2", "k1"} {
		if err := st.Put(k, []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	// An unstarted peer layer: it renders its series, never dials a peer.
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	rt, err := cluster.New(cluster.Config{Self: urls[0], Peers: urls, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServer(t, service.Config{Executors: -1, Store: st, Router: rt})

	m := srv.Metrics()
	// Every exported counter and gauge gets a distinct value.
	v := reflect.ValueOf(m).Elem()
	for i, n := 0, int64(100); i < v.NumField(); i++ {
		if !v.Type().Field(i).IsExported() {
			continue
		}
		if c, ok := v.Field(i).Addr().Interface().(*atomic.Int64); ok {
			c.Store(n)
			n++
		}
	}
	m.ObserveQueueWait(0.0001)
	m.ObserveQueueWait(0.75)
	for _, p := range []obs.PassStat{
		{Pass: "succ_table", States: 4096, Edges: 9000, Bytes: 52000, ElapsedMS: 1},
		{Pass: "closure", States: 4096, ElapsedMS: 0.3},
		{Pass: "closure", States: 2048, ElapsedMS: 70},
		{Pass: "converge_unfair", States: 300, Frontier: 12, ElapsedMS: 2500},
		{Pass: "spill", States: 4096, Bytes: 65536, SpilledBytes: 131072, ElapsedMS: 0},
	} {
		m.ObservePass(p)
	}
	for _, s := range []float64{0.004, 0.012, 0.0005, 0.25, 1.5} {
		m.ObserveLatency(s)
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	got := buildInfoLabels.ReplaceAllString(rec.Body.String(), "$1{MASKED} 1")
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/metrics differs from testdata/metrics.golden:\n%s", got)
	}
}
