package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"nonmask/internal/obs"
)

// sseFrame is one parsed text/event-stream frame.
type sseFrame struct {
	id   uint64
	typ  string
	data obs.Event
}

// readSSE consumes an event stream until it ends (the server closes
// finished job/batch streams at their terminal event), skipping
// heartbeat comments.
func readSSE(t *testing.T, r io.Reader) []sseFrame {
	t.Helper()
	var (
		frames []sseFrame
		cur    sseFrame
		data   []byte
	)
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if err != io.EOF {
				t.Fatalf("read stream: %v", err)
			}
			return frames
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if len(data) == 0 {
				continue
			}
			if err := json.Unmarshal(data, &cur.data); err != nil {
				t.Fatalf("decode %q: %v", data, err)
			}
			frames = append(frames, cur)
			cur, data = sseFrame{}, nil
		case strings.HasPrefix(line, ":"):
			// heartbeat
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.id = n
		case strings.HasPrefix(line, "event: "):
			cur.typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: ")...)
		default:
			t.Fatalf("unexpected stream line %q", line)
		}
	}
}

// frameSig flattens a stream to a comparable "id/type" signature.
func frameSig(frames []sseFrame) string {
	parts := make([]string, len(frames))
	for i, f := range frames {
		parts[i] = fmt.Sprintf("%d/%s", f.id, f.typ)
	}
	return strings.Join(parts, " ")
}

// eventServer is newTestServer's white-box sibling: it exposes the raw
// base URL (the typed client lives downstream of this package).
func eventServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts.URL
}

func getStream(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	return resp
}

// TestJobStreamReplayIdentity is the acceptance criterion: watchers
// attaching before the job starts, mid-run, and after completion read
// identical event sequences — same ids, same types, same order.
func TestJobStreamReplayIdentity(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	testHookJobRunning = func(id string) {
		started <- id
		<-release
	}
	defer func() { testHookJobRunning = nil }()

	s, base := eventServer(t, Config{Executors: 1})
	st, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	streamURL := base + "/v1/jobs/" + st.ID + "/events"

	// Attach before the job starts (it is queued, held by the hook gate).
	befResp := getStream(t, streamURL)
	defer befResp.Body.Close()
	befCh := make(chan []sseFrame, 1)
	go func() { befCh <- readSSE(t, befResp.Body) }()

	<-started
	// Attach mid-run: history (queued, running) replays, then the tail.
	midResp := getStream(t, streamURL)
	defer midResp.Body.Close()
	midCh := make(chan []sseFrame, 1)
	go func() { midCh <- readSSE(t, midResp.Body) }()

	close(release)
	waitTerminal(t, s, st.ID)

	bef, mid := <-befCh, <-midCh
	// Attach after completion: pure replay, stream still ends cleanly.
	aftResp := getStream(t, streamURL)
	aft := readSSE(t, aftResp.Body)
	aftResp.Body.Close()

	want := frameSig(bef)
	if got := frameSig(mid); got != want {
		t.Errorf("mid-run attach read\n  %s\nfrom-start read\n  %s", got, want)
	}
	if got := frameSig(aft); got != want {
		t.Errorf("after-completion attach read\n  %s\nfrom-start read\n  %s", got, want)
	}

	// The sequence itself: queued first, then running, terminal done last,
	// with per-source ids numbering 1..n without gaps.
	if len(bef) < 3 {
		t.Fatalf("stream has %d events, want at least queued/running/done", len(bef))
	}
	if bef[0].typ != "job" || bef[0].data.State != string(StateQueued) {
		t.Errorf("first event %s/%s, want job/queued", bef[0].typ, bef[0].data.State)
	}
	if bef[1].typ != "job" || bef[1].data.State != string(StateRunning) {
		t.Errorf("second event %s/%s, want job/running", bef[1].typ, bef[1].data.State)
	}
	last := bef[len(bef)-1]
	if last.typ != "job" || last.data.State != string(StateDone) {
		t.Errorf("last event %s/%s, want job/done", last.typ, last.data.State)
	}
	for i, f := range bef {
		if f.id != uint64(i+1) {
			t.Fatalf("event %d has id %d, want %d (dense per-source numbering)", i, f.id, i+1)
		}
	}
}

// TestJobStreamMatchesReportPasses pins the span fidelity contract: the
// pass_end events a watcher streams are exactly the Result.Passes table
// the verdict reports, in order.
func TestJobStreamMatchesReportPasses(t *testing.T) {
	s, base := eventServer(t, Config{})
	st, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.Result == nil || len(final.Result.Passes) == 0 {
		t.Fatalf("job finished without pass spans: %+v", final)
	}

	resp := getStream(t, base+"/v1/jobs/"+st.ID+"/events")
	frames := readSSE(t, resp.Body)
	resp.Body.Close()
	var streamed []string
	for _, f := range frames {
		if f.typ == string(obs.EventPassEnd) {
			if f.data.Stat == nil {
				t.Fatalf("pass_end without span: %+v", f.data)
			}
			streamed = append(streamed, f.data.Stat.Pass)
		}
	}
	var reported []string
	for _, p := range final.Result.Passes {
		reported = append(reported, p.Pass)
	}
	if fmt.Sprint(streamed) != fmt.Sprint(reported) {
		t.Errorf("streamed pass_end spans %v\nreport has %v", streamed, reported)
	}
}

// TestJobStreamResume pins Last-Event-ID: a reconnect carrying the last
// seen id receives only the events after it, no duplicates.
func TestJobStreamResume(t *testing.T) {
	s, base := eventServer(t, Config{})
	st, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)

	resp := getStream(t, base+"/v1/jobs/"+st.ID+"/events")
	all := readSSE(t, resp.Body)
	resp.Body.Close()
	if len(all) < 3 {
		t.Fatalf("full stream has %d events", len(all))
	}
	cut := len(all) / 2
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+st.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", strconv.FormatUint(all[cut-1].id, 10))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resumed := readSSE(t, resp2.Body)
	resp2.Body.Close()
	if got, want := frameSig(resumed), frameSig(all[cut:]); got != want {
		t.Errorf("resume after id %d read\n  %s\nwant the tail\n  %s", all[cut-1].id, got, want)
	}

	// ?after= is the curl-friendly alias for the header.
	resp3 := getStream(t, base+"/v1/jobs/"+st.ID+"/events?after="+strconv.FormatUint(all[len(all)-2].id, 10))
	tail := readSSE(t, resp3.Body)
	resp3.Body.Close()
	if len(tail) != 1 || tail[0].id != all[len(all)-1].id {
		t.Errorf("?after= tail = %s, want just the final event", frameSig(tail))
	}

	// A malformed id is rejected, not treated as zero.
	resp4, err := http.Get(base + "/v1/jobs/" + st.ID + "/events?after=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("bad ?after= got %d, want 400", resp4.StatusCode)
	}
}

// TestSlowSubscriberDropsAccounted pins the backpressure contract: a
// subscriber that never drains loses events past its buffer — counted,
// never blocking the publisher — while the replay ring stays complete.
func TestSlowSubscriberDropsAccounted(t *testing.T) {
	s, base := eventServer(t, Config{})
	st, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe straight on the bus with a one-event buffer and never
	// read: every event past the first is a drop.
	_, sub := s.Bus().Stream(st.ID).Subscribe(0, 1)
	defer sub.Close()
	waitTerminal(t, s, st.ID)

	if drops := sub.Dropped(); drops == 0 {
		t.Error("undrained one-slot subscriber recorded no drops")
	}
	bs := s.Bus().Stats()
	if bs.Dropped == 0 || bs.Emitted != 1 {
		t.Errorf("bus stats emitted=%d dropped=%d, want 1 emitted and the rest dropped", bs.Emitted, bs.Dropped)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), fmt.Sprintf("csserved_events_dropped_total %d", bs.Dropped)) {
		t.Errorf("metrics missing csserved_events_dropped_total %d:\n%s", bs.Dropped, body)
	}
	// The losses are the subscriber's alone: a fresh replay is complete.
	resp2 := getStream(t, base+"/v1/jobs/"+st.ID+"/events")
	frames := readSSE(t, resp2.Body)
	resp2.Body.Close()
	if uint64(len(frames)) != s.Bus().Stream(st.ID).LastSeq() {
		t.Errorf("replay has %d events, stream published %d", len(frames), s.Bus().Stream(st.ID).LastSeq())
	}
}

// TestDisconnectFreesSubscriber pins teardown: closing the client
// connection releases the server-side subscription.
func TestDisconnectFreesSubscriber(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	testHookJobRunning = func(id string) {
		started <- id
		<-release
	}
	defer func() { testHookJobRunning = nil }()

	s, base := eventServer(t, Config{Executors: 1})
	st, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+st.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitFor(t, "subscriber attach", func() bool { return s.Bus().Stats().Subscribers == 1 })
	cancel()
	waitFor(t, "subscriber teardown", func() bool { return s.Bus().Stats().Subscribers == 0 })
	close(release)
	waitTerminal(t, s, st.ID)
}

// waitFor polls cond until it holds or a 5s deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDrainEndsFirehose pins shutdown: the firehose announces draining
// and stopping, then the stream closes cleanly.
func TestDrainEndsFirehose(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)

	resp := getStream(t, ts.URL+"/v1/events")
	defer resp.Body.Close()
	framesCh := make(chan []sseFrame, 1)
	go func() { framesCh <- readSSE(t, resp.Body) }()
	waitFor(t, "firehose attach", func() bool { return s.Bus().Stats().Subscribers == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	frames := <-framesCh
	if len(frames) < 2 {
		t.Fatalf("firehose delivered %d events before close, want at least the job replay + server events", len(frames))
	}
	var states []string
	for _, f := range frames {
		if f.typ == string(obs.EventServer) {
			states = append(states, f.data.State)
		}
	}
	if fmt.Sprint(states) != fmt.Sprint([]string{"draining", "stopped"}) {
		t.Errorf("server lifecycle events %v, want [draining stopped]", states)
	}
}

// TestFirehoseTypeFilter covers ?types= validation and filtering.
func TestFirehoseTypeFilter(t *testing.T) {
	s, base := eventServer(t, Config{})
	st, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)

	resp, err := http.Get(base + "/v1/events?types=job,nonsense")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown type got %d, want 400", resp.StatusCode)
	}

	// Filtered replay: only job transitions, with an early disconnect
	// (the firehose never ends on its own).
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events?types=job", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	br := bufio.NewReader(resp2.Body)
	seen := 0
	for seen < 3 {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("filtered firehose ended after %d job events: %v", seen, err)
		}
		if strings.HasPrefix(line, "event: ") {
			if typ := strings.TrimSpace(strings.TrimPrefix(line, "event: ")); typ != "job" {
				t.Fatalf("filtered firehose leaked a %q event", typ)
			}
			seen++
		}
	}
}

// TestVerdictJobNoSubscribersEmitsNothing is the overhead-when-off
// guard at the service layer: a job running with nobody watching emits
// zero events into subscriber buffers (the replay ring still fills, so
// late watchers lose nothing).
func TestVerdictJobNoSubscribersEmitsNothing(t *testing.T) {
	s, base := eventServer(t, Config{})
	st, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)

	bs := s.Bus().Stats()
	if bs.Emitted != 0 || bs.Dropped != 0 || bs.Subscribers != 0 {
		t.Errorf("no-subscriber run: emitted=%d dropped=%d subscribers=%d, want all zero",
			bs.Emitted, bs.Dropped, bs.Subscribers)
	}
	if bs.Published == 0 {
		t.Error("no events recorded for replay at all")
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"csserved_events_emitted_total 0",
		"csserved_events_dropped_total 0",
		"csserved_events_subscribers 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestBatchStream covers the aggregated batch feed: opening running
// event, one batch_member per member with its curve point, a progress
// event per completion, and the terminal batch event strictly last.
func TestBatchStream(t *testing.T) {
	s, base := eventServer(t, Config{})
	spec := kSweep(4, 6)
	// Metrics give every member a tolerance-curve point, so the stream's
	// member events carry running curve updates in Data.
	spec.Sweep.Options.Analyses = []string{"verdict", "metrics"}
	bst, err := s.SubmitBatch(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, s, bst.ID)

	resp := getStream(t, base+"/v1/batches/"+bst.ID+"/events")
	frames := readSSE(t, resp.Body)
	resp.Body.Close()
	if len(frames) == 0 {
		t.Fatal("batch stream empty")
	}
	if first := frames[0]; first.typ != "batch" || first.data.State != string(BatchRunning) || first.data.Total != 3 {
		t.Errorf("first event %s/%s total=%d, want batch/running total=3", first.typ, first.data.State, first.data.Total)
	}
	last := frames[len(frames)-1]
	if last.typ != "batch" || last.data.State != string(BatchDone) || last.data.Done != 3 {
		t.Errorf("last event %s/%s done=%d, want batch/done done=3", last.typ, last.data.State, last.data.Done)
	}
	members, progress := 0, 0
	for _, f := range frames[1 : len(frames)-1] {
		switch f.typ {
		case "batch_member":
			members++
			if f.data.Member == "" || f.data.State != string(StateDone) {
				t.Errorf("member event %+v", f.data)
			}
			var pt CurvePoint
			if err := json.Unmarshal(f.data.Data, &pt); err != nil {
				t.Errorf("member curve point: %v", err)
			}
		case "progress":
			progress++
		default:
			t.Errorf("unexpected %s event inside batch stream", f.typ)
		}
	}
	if members != 3 || progress != 3 {
		t.Errorf("saw %d member and %d progress events, want 3 and 3", members, progress)
	}
}

// TestEventStream404s covers the not-found paths.
func TestEventStream404s(t *testing.T) {
	_, base := eventServer(t, Config{})
	for _, path := range []string{"/v1/jobs/nope/events", "/v1/batches/nope/events"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestVersionEndpointAndBuildInfo covers GET /v1/version and its
// info-gauge twin in /metrics.
func TestVersionEndpointAndBuildInfo(t *testing.T) {
	_, base := eventServer(t, Config{})
	resp, err := http.Get(base + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	var bi BuildInfo
	if err := json.NewDecoder(resp.Body).Decode(&bi); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if bi.Module == "" || bi.Version == "" || !strings.HasPrefix(bi.GoVersion, "go") {
		t.Errorf("build info %+v incomplete", bi)
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	want := fmt.Sprintf("csserved_build_info{module=%q,version=%q,go=%q} 1", bi.Module, bi.Version, bi.GoVersion)
	if !strings.Contains(string(body), want) {
		t.Errorf("metrics missing %s", want)
	}
}

// TestQueueWaitHistogram covers the admit→run latency histogram: it is
// always exposed and counts one observation per executed job.
func TestQueueWaitHistogram(t *testing.T) {
	s, base := eventServer(t, Config{})
	probe := func() string {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return string(body)
	}
	if body := probe(); !strings.Contains(body, "csserved_job_queue_wait_seconds_count 0") {
		t.Errorf("fresh server missing zero-count queue-wait histogram:\n%s", body)
	}
	st, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)
	body := probe()
	if !strings.Contains(body, "csserved_job_queue_wait_seconds_count 1") {
		t.Errorf("queue-wait histogram did not count the executed job:\n%s", body)
	}
	if !strings.Contains(body, `csserved_job_queue_wait_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("queue-wait histogram missing +Inf bucket:\n%s", body)
	}
}

// FuzzLastEventID feeds arbitrary Last-Event-ID headers and ?after=
// values to the SSE resume parser. Nothing may panic; every uint64 must
// round-trip; anything but a decimal uint64 must come back as an error,
// which the stream handlers answer with 400.
func FuzzLastEventID(f *testing.F) {
	for _, raw := range []string{"", "0", "42", "007", "18446744073709551615",
		"18446744073709551616", "-1", "+1", " 1", "1 ", "0x10", "1_000", "1e3", "abc", "\x00"} {
		f.Add(raw, "", uint64(7))
		f.Add("3", raw, uint64(1<<63))
	}
	s := newServer(f, Config{})
	f.Fuzz(func(t *testing.T, header, after string, n uint64) {
		req := httptest.NewRequest("GET", "/v1/events", nil)
		req.URL.RawQuery = url.Values{"after": {after}}.Encode()
		req.Header.Set("Last-Event-ID", header)
		raw := header
		if after != "" {
			raw = after
		}
		got, err := lastEventID(req)
		valid := raw != ""
		for _, r := range raw {
			valid = valid && '0' <= r && r <= '9'
		}
		want := new(big.Int)
		if valid {
			_, valid = want.SetString(raw, 10)
			valid = valid && want.IsUint64()
		}
		switch {
		case raw == "":
			if got != 0 || err != nil {
				t.Fatalf("no resume id: %d, %v; want 0, nil", got, err)
			}
		case valid:
			if err != nil || got != want.Uint64() {
				t.Fatalf("resume id %q: %d, %v; want %d", raw, got, err, want.Uint64())
			}
		default:
			if err == nil {
				t.Fatalf("resume id %q accepted as %d", raw, got)
			}
			rec := httptest.NewRecorder()
			s.handleFirehose(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("resume id %q: status %d, want 400", raw, rec.Code)
			}
		}

		req = httptest.NewRequest("GET", "/v1/events", nil)
		req.Header.Set("Last-Event-ID", strconv.FormatUint(n, 10))
		if got, err := lastEventID(req); err != nil || got != n {
			t.Fatalf("round trip of %d: %d, %v", n, got, err)
		}
	})
}
