package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nonmask/internal/obs"
)

// The SSE layer surfaces the event bus over HTTP:
//
//	GET /v1/jobs/{id}/events     one job's stream (ends after its terminal event)
//	GET /v1/batches/{id}/events  one batch's stream (ends after its terminal event)
//	GET /v1/events?types=a,b     the operator firehose across every source
//
// Frames follow the text/event-stream format: "id:" carries the event's
// sequence number (per-source for job/batch streams, bus-global for the
// firehose) so a dropped client resumes exactly via the Last-Event-ID
// header, "event:" the event type, "data:" the JSON-encoded obs.Event.
// Comment lines (": heartbeat") flow at the configured interval to keep
// idle streams alive through proxies. A subscriber attaching at any point
// first drains the stream's retained history, then tails live — replay
// and registration are atomic on the bus, so the sequence a late
// subscriber sees is identical to what a from-the-start one saw.

// sseConn wraps a flushable response writer with event-stream framing.
type sseConn struct {
	w http.ResponseWriter
	f http.Flusher
}

// newSSEConn negotiates the stream: it needs a flushable writer (the
// net/http server and httptest recorders both are).
func newSSEConn(w http.ResponseWriter) (*sseConn, bool) {
	f, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	f.Flush()
	return &sseConn{w: w, f: f}, true
}

// event writes one framed event and flushes it out.
func (c *sseConn) event(id uint64, ev obs.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(c.w, "id: %d\nevent: %s\ndata: %s\n\n", id, ev.Type, data); err != nil {
		return err
	}
	c.f.Flush()
	return nil
}

// comment writes a keepalive comment frame.
func (c *sseConn) comment(text string) error {
	if _, err := fmt.Fprintf(c.w, ": %s\n\n", text); err != nil {
		return err
	}
	c.f.Flush()
	return nil
}

// lastEventID parses the SSE resume position: the Last-Event-ID header
// (set by browsers and the typed client on reconnect), overridable by an
// ?after= query parameter for plain curl use.
func lastEventID(r *http.Request) (uint64, error) {
	raw := r.Header.Get("Last-Event-ID")
	if q := r.URL.Query().Get("after"); q != "" {
		raw = q
	}
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad event id %q: want an unsigned integer", raw)
	}
	return n, nil
}

// serveEvents serves GET /v1/{jobs,batches}/{id}/events for records of
// type T: the stream's retained history after the resume id, then the
// live tail, ending after the record's terminal event.
func serveEvents[T entry](s *Server, noun string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if s.proxyByID(w, r, id) {
			return
		}
		e, ok := lookup[T](s, id)
		if !ok {
			writeError(w, http.StatusNotFound, "no %s %q", noun, id)
			return
		}
		after, err := lastEventID(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		history, sub := e.rec().events.Subscribe(after, s.cfg.EventBuffer)
		defer sub.Close()
		s.streamSSE(w, r, history, sub, perSourceID, terminalEvent)
	}
}

// terminalEvent marks the last event of a job or batch stream.
func terminalEvent(ev obs.Event) bool {
	return ev.Type == obs.EventJob && JobState(ev.State).terminal() ||
		ev.Type == obs.EventBatch && BatchState(ev.State).terminal()
}

func (s *Server) handleFirehose(w http.ResponseWriter, r *http.Request) {
	after, err := lastEventID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var types []obs.EventType
	if raw := r.URL.Query().Get("types"); raw != "" {
		for _, t := range strings.Split(raw, ",") {
			et := obs.EventType(strings.TrimSpace(t))
			if !obs.KnownEventType(et) {
				writeError(w, http.StatusBadRequest, "unknown event type %q", et)
				return
			}
			types = append(types, et)
		}
	}
	history, sub := s.bus.Subscribe(after, s.cfg.EventBuffer, types...)
	defer sub.Close()
	// The firehose has no terminal event of its own; it runs until the
	// client disconnects or the bus closes on drain.
	s.streamSSE(w, r, history, sub, busID, nil)
}

// perSourceID and busID select which sequence number frames an SSE id:
// job and batch streams resume by their own sequence, the firehose by the
// bus-global one.
func perSourceID(ev obs.Event) uint64 { return ev.Seq }
func busID(ev obs.Event) uint64       { return ev.BusSeq }

// streamSSE drains the replayed history, then tails the subscription:
// the shared back half of the three event handlers. done, when non-nil,
// marks the stream's terminal event — the handler writes it and returns,
// closing the response. Teardown paths: client disconnect (request
// context), bus shutdown (subscription channel closes), terminal event.
func (s *Server) streamSSE(w http.ResponseWriter, r *http.Request, history []obs.Event,
	sub *obs.Subscription, id func(obs.Event) uint64, done func(obs.Event) bool) {
	conn, ok := newSSEConn(w)
	if !ok {
		return
	}
	for _, ev := range history {
		if err := conn.event(id(ev), ev); err != nil {
			return
		}
		if done != nil && done(ev) {
			return
		}
	}
	heartbeat := time.NewTicker(s.cfg.Heartbeat)
	defer heartbeat.Stop()
	ctx := r.Context()
	for {
		select {
		case ev, open := <-sub.Events():
			if !open {
				return
			}
			if err := conn.event(id(ev), ev); err != nil {
				return
			}
			if done != nil && done(ev) {
				return
			}
		case <-heartbeat.C:
			if err := conn.comment("heartbeat"); err != nil {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// writeEventMetrics renders the bus's fan-out counters.
func (s *Server) writeEventMetrics(w io.Writer) {
	st := s.bus.Stats()
	obs.WriteScalar(w, "csserved_events_subscribers", "gauge", "Currently attached event-stream subscribers.", st.Subscribers)
	obs.WriteScalar(w, "csserved_events_emitted_total", "counter", "Events delivered into subscriber buffers (zero while nobody listens).", st.Emitted)
	obs.WriteScalar(w, "csserved_events_dropped_total", "counter", "Events lost at full subscriber buffers (slow consumers).", st.Dropped)
}
