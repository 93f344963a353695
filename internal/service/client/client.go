// Package client is the typed Go caller for the csserved HTTP API
// (internal/service). It is used by the service's own tests, the
// csserved -load self-benchmark, and the CI smoke test.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"time"

	"nonmask/internal/service"
)

// defaultPoll is the long-poll window Wait re-arms between status reads.
const defaultPoll = 10 * time.Second

// Client talks to one csserved instance.
type Client struct {
	base    string
	hc      *http.Client
	headers map[string]string
	retry   RetryPolicy
}

// New returns a client for the server at base (e.g. "http://127.0.0.1:8080").
// httpClient may be nil for http.DefaultClient.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// WithToken sets the bearer token sent with every request. Configure
// before sharing the client across goroutines; returns the client for
// chaining.
func (c *Client) WithToken(token string) *Client {
	return c.WithHeader("Authorization", "Bearer "+token)
}

// WithHeader adds a header to every request (forwarding metadata, auth).
// Configure before sharing the client across goroutines.
func (c *Client) WithHeader(key, value string) *Client {
	if c.headers == nil {
		c.headers = make(map[string]string)
	}
	c.headers[key] = value
	return c
}

// RetryPolicy retries requests that come back with admission-control
// pushback (429/503), sleeping a jittered exponential backoff between
// attempts. The zero value disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts, including the first;
	// values below 2 disable retries.
	MaxAttempts int
	// BaseDelay seeds the backoff: attempt n sleeps up to
	// BaseDelay * 2^n, equal-jittered (uniform in [d/2, d)). Non-positive
	// means 100ms.
	BaseDelay time.Duration
	// MaxDelay caps one sleep. Non-positive means 5s.
	MaxDelay time.Duration
}

// WithRetry installs a retry policy. Only pushback responses (429/503)
// are retried — transport errors and other status codes surface
// immediately, and the request body is re-sent from scratch each
// attempt, which is safe because submissions are content-addressed and
// therefore idempotent. Configure before sharing the client.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	c.retry = p
	return c
}

// backoffDelay returns the equal-jittered exponential delay for attempt
// (0-based: the delay after the first failure is attempt 0).
func (p RetryPolicy) backoffDelay(attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Equal jitter: half deterministic, half uniform — spreads a thundering
	// herd without ever collapsing the delay to ~zero.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// APIError is a non-2xx response decoded from the service's error envelope.
type APIError struct {
	Code int
	Msg  string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("csserved: %d %s: %s", e.Code, http.StatusText(e.Code), e.Msg)
}

// IsRetryable reports whether the error is admission-control pushback
// (queue full or draining) that a caller may retry after a backoff.
func (e *APIError) IsRetryable() bool {
	return e.Code == http.StatusTooManyRequests || e.Code == http.StatusServiceUnavailable
}

// HTTPStatus implements service.HTTPStatusError: a forwarding node uses
// it to tell the remote's verdict (pass the status through) from a
// transport failure (fall back to running locally).
func (e *APIError) HTTPStatus() int { return e.Code }

func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, in, out)
		var apiErr *APIError
		if err == nil || attempt+1 >= c.retry.MaxAttempts ||
			!errors.As(err, &apiErr) || !apiErr.IsRetryable() {
			return err
		}
		timer := time.NewTimer(c.retry.backoffDelay(attempt))
		select {
		case <-ctx.Done():
			timer.Stop()
			return err
		case <-timer.C:
		}
	}
}

func (c *Client) doOnce(ctx context.Context, method, path string, in, out interface{}) error {
	resp, err := c.send(ctx, method, path, in, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// send performs one request: in (when non-nil) as its JSON body, header
// and the client's own headers set. A non-2xx response comes back as an
// *APIError carrying the message of the service's {"error": …} envelope
// (the raw body when it has none); otherwise the caller owns resp.Body.
func (c *Client) send(ctx context.Context, method, path string, in interface{}, header http.Header) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range header {
		req.Header[k] = v
	}
	for k, v := range c.headers {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer resp.Body.Close()
	// A body cut short still leaves the status code, which is the error.
	data, _ := io.ReadAll(resp.Body)
	var eb struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(data))
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	return nil, &APIError{Code: resp.StatusCode, Msg: msg}
}

// Submit posts a job and returns its admission status (already done on a
// cache hit).
func (c *Client) Submit(ctx context.Context, spec service.JobSpec) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// Job reads a job's status; wait > 0 long-polls until the job finishes or
// the window elapses.
func (c *Client) Job(ctx context.Context, id string, wait time.Duration) (service.JobStatus, error) {
	return byID[service.JobStatus](ctx, c, http.MethodGet, "jobs", id, wait)
}

// Wait long-polls until the job reaches a terminal state or ctx is done.
func (c *Client) Wait(ctx context.Context, id string) (service.JobStatus, error) {
	return await(ctx, id, c.Job, func(st service.JobStatus) bool { return st.State.Terminal() })
}

// byID reads (GET, long-polling for up to wait) or cancels (DELETE) the
// job or batch addressed by id under /v1/{kind}/.
func byID[S any](ctx context.Context, c *Client, method, kind, id string, wait time.Duration) (S, error) {
	path := "/v1/" + kind + "/" + url.PathEscape(id)
	if wait > 0 {
		path += "?wait=" + url.QueryEscape(wait.String())
	}
	var st S
	err := c.do(ctx, method, path, nil, &st)
	return st, err
}

// await long-polls get until terminal accepts the status or ctx is done.
func await[S any](ctx context.Context, id string, get func(context.Context, string, time.Duration) (S, error),
	terminal func(S) bool) (S, error) {
	for {
		st, err := get(ctx, id, defaultPoll)
		if err != nil || terminal(st) {
			return st, err
		}
		if err := ctx.Err(); err != nil {
			return st, err
		}
	}
}

// Run submits a job and waits for its terminal status: the one-call path
// for "check this and give me the verdict".
func (c *Client) Run(ctx context.Context, spec service.JobSpec) (service.JobStatus, error) {
	st, err := c.Submit(ctx, spec)
	if err != nil || st.State == service.StateDone {
		return st, err
	}
	return c.Wait(ctx, st.ID)
}

// SubmitBatch posts a batch (explicit specs or a declarative sweep) and
// returns its admission status.
func (c *Client) SubmitBatch(ctx context.Context, spec service.BatchSpec) (service.BatchStatus, error) {
	var st service.BatchStatus
	err := c.do(ctx, http.MethodPost, "/v1/batches", spec, &st)
	return st, err
}

// Batch reads a batch's status; wait > 0 long-polls until every member is
// terminal or the window elapses.
func (c *Client) Batch(ctx context.Context, id string, wait time.Duration) (service.BatchStatus, error) {
	return byID[service.BatchStatus](ctx, c, http.MethodGet, "batches", id, wait)
}

// WaitBatch long-polls until the batch reaches a terminal state or ctx is
// done.
func (c *Client) WaitBatch(ctx context.Context, id string) (service.BatchStatus, error) {
	return await(ctx, id, c.Batch, func(st service.BatchStatus) bool {
		return st.State == service.BatchDone || st.State == service.BatchCanceled
	})
}

// CancelBatch stops a batch's admission and cancels its non-terminal
// members.
func (c *Client) CancelBatch(ctx context.Context, id string) (service.BatchStatus, error) {
	return byID[service.BatchStatus](ctx, c, http.MethodDelete, "batches", id, 0)
}

// Jobs lists retained job records, newest first. limit 0 means the
// server's page cap; offset skips past records.
func (c *Client) Jobs(ctx context.Context, limit, offset int) (service.JobsPage, error) {
	path := "/v1/jobs"
	q := url.Values{}
	if limit > 0 {
		q.Set("limit", fmt.Sprint(limit))
	}
	if offset > 0 {
		q.Set("offset", fmt.Sprint(offset))
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page service.JobsPage
	err := c.do(ctx, http.MethodGet, path, nil, &page)
	return page, err
}

// Cancel cancels a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (service.JobStatus, error) {
	return byID[service.JobStatus](ctx, c, http.MethodDelete, "jobs", id, 0)
}

// Protocols lists the built-in catalog.
func (c *Client) Protocols(ctx context.Context) ([]service.ProtocolInfo, error) {
	var out []service.ProtocolInfo
	err := c.do(ctx, http.MethodGet, "/v1/protocols", nil, &out)
	return out, err
}

// Version fetches the server's build identity.
func (c *Client) Version(ctx context.Context) (service.BuildInfo, error) {
	var out service.BuildInfo
	err := c.do(ctx, http.MethodGet, "/v1/version", nil, &out)
	return out, err
}

// Healthz probes liveness.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Readyz probes readiness: whether the node is accepting new work. A
// draining node fails this while still answering Healthz.
func (c *Client) Readyz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

// Replicate pulls one page of the server's store log from the given
// cursor (anti-entropy; see service.ReplicateRequest). wait > 0
// long-polls: a caught-up cursor waits up to that long for a record.
func (c *Client) Replicate(ctx context.Context, req service.ReplicateRequest, wait time.Duration) (service.ReplicateResponse, error) {
	path := "/v1/replicate"
	if wait > 0 {
		path += "?wait=" + url.QueryEscape(wait.String())
	}
	var resp service.ReplicateResponse
	err := c.do(ctx, http.MethodPost, path, req, &resp)
	return resp, err
}

// MetricsText fetches the raw Prometheus exposition.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	resp, err := c.send(ctx, http.MethodGet, "/metrics", nil, nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// MetricValue extracts one metric's value from a Prometheus text
// exposition (plain counters/gauges only, no labels).
func MetricValue(exposition, name string) (float64, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err == nil {
			return v, true
		}
	}
	return 0, false
}
