package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"nonmask/internal/obs"
	"nonmask/internal/service"
)

// Watcher iterates one server-sent event stream as decoded obs.Events.
// Create one with WatchJob, WatchBatch, or WatchEvents; call Next until
// it reports done (the server closed a finished stream) or ctx
// cancellation surfaces as an error; Close releases the connection.
type Watcher struct {
	body io.ReadCloser
	br   *bufio.Reader
}

// Next returns the stream's next event. done reports a clean end of
// stream — the server finished the feed (terminal job/batch event, or
// drain); err carries transport failures and context cancellation.
// Heartbeat comments are skipped transparently.
func (w *Watcher) Next() (ev obs.Event, done bool, err error) {
	var data []byte
	for {
		line, err := w.br.ReadString('\n')
		if err != nil {
			if err == io.EOF {
				return obs.Event{}, true, nil
			}
			return obs.Event{}, false, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if len(data) == 0 {
				continue // separator after a comment frame
			}
			var ev obs.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return obs.Event{}, false, fmt.Errorf("decode event: %w", err)
			}
			return ev, false, nil
		case strings.HasPrefix(line, ":"):
			// Heartbeat / comment.
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		default:
			// id:/event: lines — the JSON payload carries both already.
		}
	}
}

// Close releases the underlying connection. Safe after an error.
func (w *Watcher) Close() error { return w.body.Close() }

// watch opens one SSE endpoint. after resumes past an already-seen
// sequence number via Last-Event-ID (0 = from the retained beginning).
func (c *Client) watch(ctx context.Context, path string, after uint64) (*Watcher, error) {
	header := http.Header{"Accept": {"text/event-stream"}}
	if after > 0 {
		header.Set("Last-Event-ID", strconv.FormatUint(after, 10))
	}
	resp, err := c.send(ctx, http.MethodGet, path, nil, header)
	if err != nil {
		return nil, err
	}
	return &Watcher{body: resp.Body, br: bufio.NewReader(resp.Body)}, nil
}

// WatchJob streams a job's events: the replayed history first, then live
// until the terminal job event, after which Next reports done. Canceling
// ctx tears the stream down.
func (c *Client) WatchJob(ctx context.Context, id string, after uint64) (*Watcher, error) {
	return c.watch(ctx, "/v1/jobs/"+url.PathEscape(id)+"/events", after)
}

// WatchBatch streams a batch's events until its terminal event.
func (c *Client) WatchBatch(ctx context.Context, id string, after uint64) (*Watcher, error) {
	return c.watch(ctx, "/v1/batches/"+url.PathEscape(id)+"/events", after)
}

// WatchEvents streams the operator firehose, optionally filtered to the
// given event types; it runs until ctx is canceled or the server drains.
// after resumes by bus-global sequence number.
func (c *Client) WatchEvents(ctx context.Context, after uint64, types ...obs.EventType) (*Watcher, error) {
	path := "/v1/events"
	if len(types) > 0 {
		parts := make([]string, len(types))
		for i, t := range types {
			parts[i] = string(t)
		}
		path += "?types=" + url.QueryEscape(strings.Join(parts, ","))
	}
	return c.watch(ctx, path, after)
}

// TailJob watches a job's stream end to end, rendering each event's line
// form to lines (nil discards) and collecting completed pass spans. It
// returns the terminal state with its detail (verdict or error) once the
// stream ends. The CLIs' -watch loops are thin wrappers over it.
func (c *Client) TailJob(ctx context.Context, id string, after uint64, lines io.Writer) (state service.JobState, detail string, stats []obs.PassStat, err error) {
	w, err := c.WatchJob(ctx, id, after)
	if err != nil {
		return "", "", nil, err
	}
	defer w.Close()
	for {
		ev, done, err := w.Next()
		if err != nil {
			return state, detail, stats, err
		}
		if done {
			if state == "" {
				return state, detail, stats, fmt.Errorf("event stream ended before a terminal job event (server draining?)")
			}
			return state, detail, stats, nil
		}
		if lines != nil {
			if line := obs.FormatEventLine(ev); line != "" {
				fmt.Fprintln(lines, line)
			}
		}
		switch ev.Type {
		case obs.EventPassEnd:
			if ev.Stat != nil {
				stats = append(stats, *ev.Stat)
			}
		case obs.EventJob:
			if st := service.JobState(ev.State); st.Terminal() {
				state, detail = st, ev.Detail
			}
		}
	}
}
