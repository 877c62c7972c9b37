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

	"repro/internal/ctrlplane"
)

func newTestClient(t *testing.T, h http.HandlerFunc, cfg Config) (*Client, *httptest.Server) {
	t.Helper()
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	if cfg.BaseBackoff == 0 {
		cfg.BaseBackoff = time.Millisecond
	}
	return New(hs.URL, cfg), hs
}

// TestRetryOn5xx: transient server errors are retried until success.
func TestRetryOn5xx(t *testing.T) {
	var calls atomic.Int32
	c, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(ctrlplane.HealthResponse{Status: "ok"})
	}, Config{MaxAttempts: 4})

	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("health after two 503s: %v", err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (two failures + success)", got)
	}
}

// TestRetryExhaustion: a persistent 5xx fails after MaxAttempts tries.
func TestRetryExhaustion(t *testing.T) {
	var calls atomic.Int32
	c, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}, Config{MaxAttempts: 3})

	_, err := c.Health(context.Background())
	if err == nil {
		t.Fatal("expected an error")
	}
	var ae *APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusInternalServerError {
		t.Errorf("err = %v, want wrapped 500 APIError", err)
	}
	if want := "ctrlplane: giving up after 3 attempts: server returned 500: down"; err.Error() != want {
		t.Errorf("err text %q, want %q", err, want)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want MaxAttempts=3", got)
	}
}

// TestNoRetryOn4xx: client errors are terminal — retrying a rejected
// registration would just be rejected again.
func TestNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int32
	c, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(ctrlplane.ErrorResponse{Error: "ai must be > 0"})
	}, Config{MaxAttempts: 4})

	_, err := c.Register(context.Background(), ctrlplane.RegisterRequest{Name: "x"})
	var ae *APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusBadRequest || ae.Message != "ai must be > 0" {
		t.Errorf("err = %v, want 400 APIError with server message", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want 1 (no retry on 4xx)", got)
	}
}

// TestNotFound: 404s are recognizable through IsNotFound — the
// eviction signal apps react to by re-registering.
func TestNotFound(t *testing.T) {
	c, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(ctrlplane.ErrorResponse{Error: "unknown app"})
	}, Config{})
	_, err := c.Heartbeat(context.Background(), ctrlplane.HeartbeatRequest{ID: "ghost"})
	if !IsNotFound(err) {
		t.Errorf("IsNotFound(%v) = false, want true", err)
	}
	if IsNotFound(nil) {
		t.Error("IsNotFound(nil) = true")
	}
}

// TestContextCancelStopsRetries: a canceled context aborts the backoff
// loop instead of sleeping through the remaining attempts.
func TestContextCancelStopsRetries(t *testing.T) {
	var calls atomic.Int32
	c, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}, Config{MaxAttempts: 10, BaseBackoff: time.Hour})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Health(ctx)
		done <- err
	}()
	// Let the first attempt land, then cancel during the 1h backoff.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) || ctx.Err() == nil {
			t.Errorf("err = %v after cancel", err)
		}
		if want := "ctrlplane: giving up after 1 attempts: context canceled (last error: server returned 500: down)"; err.Error() != want {
			t.Errorf("err text %q, want %q", err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request did not abort after context cancellation")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want 1 (cancel stopped the retries)", got)
	}
}

// TestConnectionRefusedRetries: transport-level failures are retryable;
// with no server at all the client fails only after exhausting them.
func TestConnectionRefusedRetries(t *testing.T) {
	hs := httptest.NewServer(http.NotFoundHandler())
	hs.Close() // nothing listens here any more
	c := New(hs.URL, Config{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	start := time.Now()
	_, err := c.Health(context.Background())
	if err == nil {
		t.Fatal("expected connection error")
	}
	if IsNotFound(err) {
		t.Errorf("transport failure classified as 404: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Errorf("retries took %v, want quick failure", time.Since(start))
	}
}

// TestRequestTimeoutApplied: with no caller deadline, RequestTimeout
// bounds the exchange.
func TestRequestTimeoutApplied(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	c, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		<-block // hold the request until test cleanup
	}, Config{MaxAttempts: 1, RequestTimeout: 50 * time.Millisecond})

	start := time.Now()
	_, err := c.Health(context.Background())
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("request returned after %v, want ~RequestTimeout", d)
	}
}

// TestBackoffFullJitter: every delay stays within (0, ceiling] where
// the ceiling doubles from BaseBackoff and saturates at MaxBackoff, and
// the draws are genuinely spread — deterministic backoff would have
// every app of a restarted daemon retry at the same instant.
func TestBackoffFullJitter(t *testing.T) {
	c := New("http://127.0.0.1:0", Config{
		BaseBackoff: 16 * time.Millisecond,
		MaxBackoff:  64 * time.Millisecond,
	})
	ceilings := []time.Duration{
		16 * time.Millisecond, // attempt 1
		32 * time.Millisecond, // attempt 2
		64 * time.Millisecond, // attempt 3
		64 * time.Millisecond, // attempt 4 (128ms capped)
	}
	seen := map[time.Duration]bool{}
	for round := 0; round < 50; round++ {
		for i, ceil := range ceilings {
			got := c.backoff(i + 1)
			if got <= 0 || got > ceil {
				t.Fatalf("backoff(%d) = %v, want in (0, %v]", i+1, got, ceil)
			}
			seen[got] = true
		}
		// Shift overflow must also saturate, not go negative.
		if got := c.backoff(62); got <= 0 || got > 64*time.Millisecond {
			t.Fatalf("backoff(62) = %v, want in (0, cap]", got)
		}
	}
	if len(seen) < 10 {
		t.Errorf("only %d distinct delays over 200 draws — jitter looks degenerate", len(seen))
	}
}

// TestBackoffJitterDeterministicWithSeed: the schedule is a pure
// function of the injected randomness (full jitter: rnd * ceiling).
func TestBackoffJitterDeterministicWithSeed(t *testing.T) {
	c := New("http://127.0.0.1:0", Config{
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  40 * time.Millisecond,
	})
	c.rnd = func() float64 { return 0.5 }
	want := []time.Duration{
		5 * time.Millisecond,  // 0.5 * 10ms
		10 * time.Millisecond, // 0.5 * 20ms
		20 * time.Millisecond, // 0.5 * 40ms (ceiling saturated)
		20 * time.Millisecond,
	}
	for i, w := range want {
		if got := c.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// A pathological draw near zero floors at 1ms instead of hot-looping.
	c.rnd = func() float64 { return 0 }
	if got := c.backoff(1); got != time.Millisecond {
		t.Errorf("backoff floor = %v, want 1ms", got)
	}
}

// TestUnknownAppSentinel: the wire error code maps onto the typed
// sentinel, with no message string-matching.
func TestUnknownAppSentinel(t *testing.T) {
	c, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(ctrlplane.ErrorResponse{
			Error: "ghost-1: some human-readable text",
			Code:  ctrlplane.ErrCodeUnknownApp,
		})
	}, Config{})
	_, err := c.Heartbeat(context.Background(), ctrlplane.HeartbeatRequest{ID: "ghost-1"})
	if !IsUnknownApp(err) {
		t.Errorf("IsUnknownApp(%v) = false, want true", err)
	}
	if !errors.Is(err, ErrUnknownApp) {
		t.Errorf("errors.Is(%v, ErrUnknownApp) = false", err)
	}
	if !IsNotFound(err) {
		t.Errorf("IsNotFound(%v) = false (code should not break status checks)", err)
	}

	// A plain 404 without the code (proxy, wrong URL) is NOT the
	// sentinel: degrading to re-register on any 404 would mask bugs.
	c2, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}, Config{})
	_, err = c2.Heartbeat(context.Background(), ctrlplane.HeartbeatRequest{ID: "ghost-1"})
	if IsUnknownApp(err) {
		t.Errorf("IsUnknownApp(%v) = true for a codeless 404", err)
	}
	if IsUnknownApp(nil) {
		t.Error("IsUnknownApp(nil) = true")
	}
}

func asAPIError(err error, target **APIError) bool {
	return errors.As(err, target)
}

// TestStateQueryOnTheWire: State presents what the caller holds the way
// GET /v1/state documents — nothing on first contact, the incarnation
// alone in the query while the caller's copy is not exact, and
// StateETag of the pair as If-None-Match besides once it is. The 304 a
// current validator earns is ErrNotModified, never retried; a coopd
// without the route is an error, not a fallback. A Group, which keeps
// the last query it built, sends the same, each query twice in a row.
func TestStateQueryOnTheWire(t *testing.T) {
	var got []string
	c, _ := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		got = append(got, r.Method+" "+r.URL.RequestURI()+" "+r.Header.Get("If-None-Match"))
		if r.URL.Query().Get("incarnation") == "old daemon" {
			http.NotFound(w, r)
			return
		}
		etag := ctrlplane.StateETag("1f", 7)
		w.Header().Set("ETag", etag)
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		json.NewEncoder(w).Encode(ctrlplane.StateResponse{Incarnation: "1f", Generation: 7})
	}, Config{MaxAttempts: 3})
	g := NewGroup(c)
	for _, tc := range []struct {
		held        ctrlplane.StateQuery
		want        string
		notModified bool
	}{
		{ctrlplane.StateQuery{}, `GET /v1/state `, false},
		{ctrlplane.StateQuery{Generation: 7, Conditional: true}, `GET /v1/state `, false},
		{ctrlplane.StateQuery{Incarnation: "1f", Generation: 7}, `GET /v1/state?incarnation=1f `, false},
		{ctrlplane.StateQuery{Incarnation: "1f", Generation: 7, Conditional: true}, `GET /v1/state?incarnation=1f "1f.7"`, true},
		{ctrlplane.StateQuery{Incarnation: "1f", Generation: 6, Conditional: true}, `GET /v1/state?incarnation=1f "1f.6"`, false},
		{ctrlplane.StateQuery{Incarnation: "a&generation=7", Conditional: true}, `GET /v1/state?incarnation=a%26generation%3D7 "a&generation=7.0"`, false},
	} {
		for _, state := range []func(context.Context, ctrlplane.StateQuery) (*ctrlplane.StateResponse, error){c.State, g.State, g.State} {
			got = nil
			st, err := state(context.Background(), tc.held)
			if tc.notModified {
				if !errors.Is(err, ErrNotModified) || st != nil {
					t.Fatalf("%+v: %+v, %v; want ErrNotModified", tc.held, st, err)
				}
			} else if err != nil || st.Generation != 7 {
				t.Fatalf("%+v: %+v, %v", tc.held, st, err)
			}
			if len(got) != 1 || got[0] != tc.want {
				t.Errorf("%+v went out as %q, want %q once", tc.held, got, tc.want)
			}
		}
	}
	if _, err := c.State(context.Background(), ctrlplane.StateQuery{Incarnation: "old daemon"}); !IsNotFound(err) {
		t.Errorf("a coopd without /v1/state: err = %v, want its 404", err)
	}
}
