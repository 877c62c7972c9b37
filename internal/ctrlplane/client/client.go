// Package client is the typed Go client for the ctrlplane HTTP API, with
// exponential-backoff retries and context-based timeouts: Client talks
// to one coopd endpoint, Group to a coopd through all its replicas.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/httpapi"
)

// ErrUnknownApp is the server's "unknown_app" error code: the ID was
// evicted (or never existed) and the application must re-register.
var ErrUnknownApp = httpapi.ErrUnknownApp

// ErrNotModified is State's answer when the state the caller presented
// is still current (a 304): nothing was read. Detect it with errors.Is.
var ErrNotModified = httpapi.ErrNotModified

// APIError is a non-2xx response from the control plane — or from
// fleetd or a replica peer: all three clients make the same exchange,
// so the predicates below hold for errors from any of them.
type APIError = httpapi.APIError

// IsNotFound reports whether the error is a 404 — for heartbeats, the
// signal that the application was evicted and must re-register.
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusNotFound
}

// IsUnknownApp reports whether the server rejected the request because
// the application ID is not registered.
func IsUnknownApp(err error) bool {
	return errors.Is(err, ErrUnknownApp)
}

// IsNotLeader reports whether a replica follower redirected the request
// (421 + not_leader). The APIError's Leader field, when set, names
// where to go instead.
func IsNotLeader(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == ctrlplane.ErrCodeNotLeader
}

// IsOverloaded reports whether the server shed the request (503 +
// overloaded); the honest reaction is to back off, not hammer.
func IsOverloaded(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == ctrlplane.ErrCodeOverloaded
}

// Config tunes a Client.
type Config struct {
	// HTTPClient is the transport (default: a dedicated http.Client).
	HTTPClient *http.Client
	// MaxAttempts is the total number of tries per request, first
	// included (default 4). Connection failures and 5xx responses are
	// retried; 4xx responses are not.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt (default 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the delay between attempts (default 2s).
	MaxBackoff time.Duration
	// RequestTimeout bounds each request when the caller's context has
	// no deadline of its own (default 10s).
	RequestTimeout time.Duration
}

// Client talks to one control-plane server. Safe for concurrent use.
type Client struct {
	base string
	cfg  Config
	// rnd is the jitter source (the shared math/rand default); tests
	// swap in a seeded function for deterministic schedules.
	rnd func() float64
}

// New creates a client for the server at baseURL (e.g.
// "http://127.0.0.1:8377").
func New(baseURL string, cfg Config) *Client {
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), cfg: cfg, rnd: rand.Float64}
}

// do performs one API call with retries. in (may be nil) is marshaled
// as the JSON body; out (may be nil) receives the decoded response.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	_, err := c.exchange(ctx, method, path, "", in, out)
	return err
}

// exchange is do presenting a validator (see httpapi.Call): a 304 to it
// returns httpapi.ErrNotModified at once, never retried. It also returns
// the X-Coop-Epoch of the answer (0 from a standalone daemon), the
// replica epoch a Group fences on. Transport errors and 5xx answers are
// retried; 4xx ones are not.
func (c *Client) exchange(ctx context.Context, method, path, validator string, in, out any) (epoch uint64, err error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.RequestTimeout)
		defer cancel()
	}
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if serr := sleepBackoff(ctx, c.backoff(attempt)); serr != nil {
				return 0, &giveUpError{attempt, serr, err}
			}
		}
		var hdr http.Header
		hdr, err = httpapi.Call(ctx, c.cfg.HTTPClient, method, c.base+path, validator, in, out)
		if hdr == nil && err != nil && ctx.Err() != nil {
			// No response and the caller's context is done: another
			// attempt cannot fare better.
			return 0, ctx.Err()
		}
		if err == nil || !httpapi.Retryable(err) {
			if v := hdr.Get(ctrlplane.HeaderEpoch); v != "" { // standalone daemons send none
				epoch, _ = strconv.ParseUint(v, 10, 64)
			}
			return epoch, err
		}
	}
	return 0, &giveUpError{c.cfg.MaxAttempts, err, nil}
}

// giveUpError is exchange's failure after attempts tries: err is the
// last attempt's failure, or, with last set, the end of the context a
// backoff was waiting in. Its text is formatted only when read.
type giveUpError struct {
	attempts  int
	err, last error
}

func (e *giveUpError) Error() string {
	if e.last != nil {
		return fmt.Sprintf("ctrlplane: giving up after %d attempts: %v (last error: %v)", e.attempts, e.err, e.last)
	}
	return fmt.Sprintf("ctrlplane: giving up after %d attempts: %v", e.attempts, e.err)
}

func (e *giveUpError) Unwrap() error { return e.err }

// backoff returns the full-jitter delay before the given attempt:
// uniform over (0, ceiling], the ceiling doubling from BaseBackoff up to
// MaxBackoff, so apps retrying a restarted daemon do not stampede it.
func (c *Client) backoff(attempt int) time.Duration {
	ceiling := c.cfg.BaseBackoff << (attempt - 1)
	if ceiling > c.cfg.MaxBackoff || ceiling <= 0 {
		ceiling = c.cfg.MaxBackoff
	}
	d := time.Duration(c.rnd() * float64(ceiling))
	// The floor keeps a tiny draw from turning retries into a hot loop.
	return min(max(d, time.Millisecond), ceiling)
}

func sleepBackoff(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// BaseURL returns the endpoint this client targets.
func (c *Client) BaseURL() string { return c.base }

// ReplicaStatus reads /v1/replica/status. A standalone (non-replicated)
// daemon answers 404; callers render that as "standalone".
func (c *Client) ReplicaStatus(ctx context.Context) (*ctrlplane.ReplicaStatusResponse, error) {
	return httpapi.Typed[ctrlplane.ReplicaStatusResponse](ctx, c.do, http.MethodGet, "/v1/replica/status", nil)
}

// Register announces an application and returns its ID and first
// allocation.
func (c *Client) Register(ctx context.Context, req ctrlplane.RegisterRequest) (*ctrlplane.RegisterResponse, error) {
	return httpapi.Typed[ctrlplane.RegisterResponse](ctx, c.do, http.MethodPost, "/v1/register", req)
}

// Heartbeat refreshes the app's liveness deadline and returns its
// current allocation. IsNotFound(err) means the app was evicted.
func (c *Client) Heartbeat(ctx context.Context, req ctrlplane.HeartbeatRequest) (*ctrlplane.HeartbeatResponse, error) {
	return httpapi.Typed[ctrlplane.HeartbeatResponse](ctx, c.do, http.MethodPost, "/v1/heartbeat", req)
}

// Report delivers observed throughput samples to the adaptive
// recalibration loop and returns the app's tracker after them (404
// without -recalibrate, or unknown_app for an evicted app).
func (c *Client) Report(ctx context.Context, req ctrlplane.ReportRequest) (*ctrlplane.ReportResponse, error) {
	return httpapi.Typed[ctrlplane.ReportResponse](ctx, c.do, http.MethodPost, "/v1/report", req)
}

// Deregister removes an application, releasing its cores.
func (c *Client) Deregister(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/apps/"+url.PathEscape(id), nil, nil)
}

// Allocations reads the machine-wide allocation table.
func (c *Client) Allocations(ctx context.Context) (*ctrlplane.AllocationsResponse, error) {
	return httpapi.Typed[ctrlplane.AllocationsResponse](ctx, c.do, http.MethodGet, "/v1/allocations", nil)
}

// State is the one registry read: the live apps, their solved total and
// the topology, presenting what the caller holds (the zero StateQuery:
// nothing). A full answer to a current incarnation leaves the machine
// out; a Conditional query also presents StateETag of the pair, and
// while both are current the 304 is returned as ErrNotModified.
func (c *Client) State(ctx context.Context, held ctrlplane.StateQuery) (*ctrlplane.StateResponse, error) {
	path, validator := stateRequest(held)
	out := new(ctrlplane.StateResponse)
	if _, err := c.exchange(ctx, http.MethodGet, path, validator, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// stateRequest is the path and validator of a /v1/state read presenting
// held.
func stateRequest(held ctrlplane.StateQuery) (path, validator string) {
	path = "/v1/state"
	if held.Incarnation != "" {
		path += "?incarnation=" + url.QueryEscape(held.Incarnation)
		if held.Conditional {
			validator = ctrlplane.StateETag(held.Incarnation, held.Generation)
		}
	}
	return path, validator
}

// Health reads /healthz.
func (c *Client) Health(ctx context.Context) (*ctrlplane.HealthResponse, error) {
	return httpapi.Typed[ctrlplane.HealthResponse](ctx, c.do, http.MethodGet, "/healthz", nil)
}

// Metrics reads /metricsz.
func (c *Client) Metrics(ctx context.Context) (*ctrlplane.MetricsResponse, error) {
	return httpapi.Typed[ctrlplane.MetricsResponse](ctx, c.do, http.MethodGet, "/metricsz", nil)
}

// WaitForReallocation polls until the server's generation differs from
// prev (an app joined, left, or was evicted) and returns the new
// allocation table. It respects ctx for cancellation and deadline.
func (c *Client) WaitForReallocation(ctx context.Context, prev uint64, poll time.Duration) (*ctrlplane.AllocationsResponse, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		resp, err := c.Allocations(ctx)
		if err != nil {
			return nil, err
		}
		if resp.Generation != prev {
			return resp, nil
		}
		if err := sleepBackoff(ctx, poll); err != nil {
			return nil, fmt.Errorf("ctrlplane: waiting for reallocation past generation %d: %w", prev, err)
		}
	}
}
