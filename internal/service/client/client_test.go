package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"nonmask/internal/service"
)

// fakeServer fails the first fail requests with code, then succeeds.
func fakeServer(t *testing.T, fail int32, code int) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= fail {
			w.WriteHeader(code)
			json.NewEncoder(w).Encode(map[string]string{"error": "pushback"})
			return
		}
		json.NewEncoder(w).Encode(service.BuildInfo{Version: "test"})
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func TestRetryRecoversFromPushback(t *testing.T) {
	for _, code := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		srv, calls := fakeServer(t, 2, code)
		c := New(srv.URL, nil).WithRetry(RetryPolicy{
			MaxAttempts: 4,
			BaseDelay:   time.Millisecond,
			MaxDelay:    5 * time.Millisecond,
		})
		if _, err := c.Version(context.Background()); err != nil {
			t.Fatalf("code %d: retried call failed: %v", code, err)
		}
		if n := calls.Load(); n != 3 {
			t.Fatalf("code %d: server saw %d calls, want 3 (two failures + success)", code, n)
		}
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	srv, calls := fakeServer(t, 100, http.StatusTooManyRequests)
	c := New(srv.URL, nil).WithRetry(RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
	})
	_, err := c.Version(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want the final 429", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want exactly MaxAttempts=3", n)
	}
}

func TestRetryDoesNotTouchNonRetryableErrors(t *testing.T) {
	srv, calls := fakeServer(t, 100, http.StatusBadRequest)
	c := New(srv.URL, nil).WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond})
	_, err := c.Version(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want immediate 400", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d calls, want 1 (400 is not retryable)", n)
	}
}

func TestRetryStopsOnContextCancel(t *testing.T) {
	srv, calls := fakeServer(t, 100, http.StatusServiceUnavailable)
	c := New(srv.URL, nil).WithRetry(RetryPolicy{
		MaxAttempts: 100,
		BaseDelay:   time.Hour, // backoff far longer than the context
		MaxDelay:    time.Hour,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Version(ctx)
	if err == nil {
		t.Fatal("expected an error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("retry loop ignored context cancellation (took %v)", time.Since(start))
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d calls, want 1 before cancellation", n)
	}
}

func TestHeadersAndTokenSent(t *testing.T) {
	var gotAuth, gotCustom string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotAuth = r.Header.Get("Authorization")
		gotCustom = r.Header.Get("X-Custom")
		json.NewEncoder(w).Encode(service.BuildInfo{})
	}))
	defer srv.Close()
	c := New(srv.URL, nil).WithToken("sekrit").WithHeader("X-Custom", "yes")
	if _, err := c.Version(context.Background()); err != nil {
		t.Fatalf("version: %v", err)
	}
	if gotAuth != "Bearer sekrit" {
		t.Errorf("Authorization = %q, want Bearer sekrit", gotAuth)
	}
	if gotCustom != "yes" {
		t.Errorf("X-Custom = %q, want yes", gotCustom)
	}
}

func TestBackoffDelayGrowsAndCaps(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	for attempt := 0; attempt < 10; attempt++ {
		d := p.backoffDelay(attempt)
		want := p.BaseDelay << attempt
		if want > p.MaxDelay || want <= 0 {
			want = p.MaxDelay
		}
		if d < want/2 || d > want {
			t.Errorf("attempt %d: delay %v outside jitter window [%v, %v]", attempt, d, want/2, want)
		}
	}
}

// TestMetricsTextDecodesAPIError: the exposition fetch shares the typed
// error path, so a 4xx surfaces the envelope's message, not the raw JSON.
func TestMetricsTextDecodesAPIError(t *testing.T) {
	srv, _ := fakeServer(t, 1, http.StatusUnauthorized)
	_, err := New(srv.URL, nil).MetricsText(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusUnauthorized || apiErr.Msg != "pushback" {
		t.Fatalf("err = %#v, want APIError 401 with the decoded message", err)
	}
}
