package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// MaxBodyBytes bounds request bodies: the largest request (a gang spec,
// a telemetry report) is a few kilobytes, so 1 MiB is generous and
// still stops an oversized body from ballooning a daemon's memory.
const MaxBodyBytes = 1 << 20

// WriteJSON writes v as the JSON response body with the given status.
// v is encoded before anything is written, so a value that cannot be
// encoded is answered with a 500 ErrorResponse, never a status with an
// empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	buf := getBuffer()
	defer putBuffer(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		json.NewEncoder(buf).Encode(ErrorResponse{Error: fmt.Sprintf("encoding response: %v", err)})
		status = http.StatusInternalServerError
	}
	WriteEncoded(w, status, buf.Bytes())
}

// Encode returns v's JSON encoding exactly as WriteJSON writes it: the
// body of an answer encoded once and written many times with
// WriteEncoded.
func Encode(v any) ([]byte, error) {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// WriteEncoded writes body, a JSON encoding as Encode produces it, with
// the given status.
func WriteEncoded(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// WriteError writes an ErrorResponse with the formatted message.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteErrorCode(w, status, "", format, args...)
}

// WriteErrorCode is WriteError with a stable machine-readable code so
// clients can branch on the cause without string-matching the message.
func WriteErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

// Decode reads the request's JSON body into v and closes the body: no
// field v does not declare — a misspelt field is an error, not a
// default — and at most MaxBodyBytes, whether or not the request
// declared its length (Routes refuses a declared one over the cap before
// the handler runs). On failure it answers 400, or 413 for a body over
// the cap, and reports false.
func Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := getBuffer()
	defer putBuffer(buf)
	_, err := buf.ReadFrom(io.LimitReader(r.Body, MaxBodyBytes+1))
	r.Body.Close()
	var tooLarge *http.MaxBytesError // the daemon's own cap on the body
	switch {
	case err != nil && !errors.As(err, &tooLarge):
		WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	case err != nil || buf.Len() > MaxBodyBytes:
		WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", MaxBodyBytes)
		return false
	}
	dec := json.NewDecoder(buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// EndpointMetrics summarizes one endpoint's request history.
type EndpointMetrics struct {
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	MaxMs  float64 `json:"max_ms"`
	// Shed counts requests refused by the load shedder (503 +
	// Retry-After) because the endpoint's in-flight bound was full.
	Shed uint64 `json:"shed,omitempty"`
}

// latWindow is how many of an endpoint's most recent request latencies
// its quantiles are computed over. The window is a ring that stops
// growing at this size, so a daemon's memory does not grow with the
// requests it has served.
const latWindow = 1024

// endpointStats meters one endpoint: request count, error count, the
// all-time maximum latency and a ring of the last latWindow latencies
// (milliseconds) for the quantiles.
type endpointStats struct {
	mu     sync.Mutex
	count  uint64
	errors uint64
	maxMs  float64
	lat    []float64 // ring once len reaches latWindow

	// sem bounds the endpoint's in-flight requests (nil: unbounded) and
	// shed counts the ones refused because it was full.
	sem  chan struct{}
	shed atomic.Uint64
}

func (e *endpointStats) record(d time.Duration, isErr bool) {
	ms := d.Seconds() * 1e3
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.lat) < latWindow {
		e.lat = append(e.lat, ms)
	} else {
		e.lat[e.count%latWindow] = ms
	}
	e.count++
	if ms > e.maxMs {
		e.maxMs = ms
	}
	if isErr {
		e.errors++
	}
}

func (e *endpointStats) view() EndpointMetrics {
	e.mu.Lock()
	recent := append([]float64(nil), e.lat...) // sorted outside the lock
	m := EndpointMetrics{Count: e.count, Errors: e.errors, MaxMs: e.maxMs, Shed: e.shed.Load()}
	e.mu.Unlock()
	sort.Float64s(recent)
	m.P50Ms = metrics.Percentile(recent, 0.50)
	m.P95Ms = metrics.Percentile(recent, 0.95)
	return m
}

// shedRetryAfter is the Retry-After hint on refusals. Admitted requests
// complete in well under a second, so "1" is an honest bound; jittered
// client backoff spreads the retries inside it.
const shedRetryAfter = "1"

// statusWriter captures the response status for the meter. An error
// status written before any route has claimed the request is the mux's
// own plain-text answer (404, 405 + Allow): it is held back, headers
// kept, for ServeHTTP to re-issue as an ErrorResponse.
type statusWriter struct {
	http.ResponseWriter
	status int32
	routed bool
}

func (w *statusWriter) held() bool { return !w.routed && w.status >= 400 }

func (w *statusWriter) WriteHeader(code int) {
	w.status = int32(code)
	if !w.held() {
		w.ResponseWriter.WriteHeader(code)
	}
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.held() {
		return len(p), nil
	}
	return w.ResponseWriter.Write(p)
}

// Routes is the handler scaffold every surface mounts its API through:
// a method-pattern mux (so a wrong method is the standard 405 + Allow)
// whose every route is load-shed, then metered, and whose every error
// body is an ErrorResponse.
type Routes struct {
	mux         *http.ServeMux
	clock       func() time.Time
	maxInFlight int

	mu  sync.Mutex
	eps map[string]*endpointStats
}

// NewRoutes builds an empty route table. clock times the requests;
// maxInFlight bounds concurrently served requests per route, excess
// requests being shed with 503 + Retry-After (0: unbounded).
func NewRoutes(clock func() time.Time, maxInFlight int) *Routes {
	return &Routes{mux: http.NewServeMux(), clock: clock, maxInFlight: maxInFlight, eps: map[string]*endpointStats{}}
}

// Handle mounts h at a "METHOD /path" pattern and meters it under name.
func (rt *Routes) Handle(pattern, name string, h http.HandlerFunc) {
	ep := &endpointStats{}
	if rt.maxInFlight > 0 {
		ep.sem = make(chan struct{}, rt.maxInFlight)
	}
	rt.mu.Lock()
	rt.eps[name] = ep
	rt.mu.Unlock()
	rt.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := w.(*statusWriter) // ServeHTTP is the only way in
		sw.routed = true
		// Load shedding: when the bound is full, excess requests are
		// refused at once with 503 + Retry-After, never queued — under
		// overload (a fleet re-registering after a failover) the daemon
		// keeps serving what it admitted at normal latency and tells the
		// rest when to come back, rather than timing out everything
		// equally. It runs before metering: a refusal is a constant-time
		// header write and should not pollute the latency series.
		if ep.sem != nil {
			select {
			case ep.sem <- struct{}{}:
				defer func() { <-ep.sem }()
			default:
				ep.shed.Add(1)
				w.Header().Set("Retry-After", shedRetryAfter)
				WriteErrorCode(w, http.StatusServiceUnavailable, ErrCodeOverloaded,
					"overloaded: in-flight request bound reached, retry after %ss", shedRetryAfter)
				return
			}
		}
		t0 := rt.clock()
		if r.ContentLength > MaxBodyBytes {
			WriteError(w, http.StatusRequestEntityTooLarge, "request body of %d bytes exceeds the %d-byte limit", r.ContentLength, MaxBodyBytes)
		} else {
			h(w, r)
		}
		ep.record(rt.clock().Sub(t0), sw.status >= 400)
	})
}

// ServeHTTP implements http.Handler.
func (rt *Routes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	rt.mux.ServeHTTP(sw, r)
	if sw.held() {
		WriteError(w, int(sw.status), "%s %s: %s", r.Method, r.URL.Path, http.StatusText(int(sw.status)))
	}
}

// Metrics returns every route's request history, by name.
func (rt *Routes) Metrics() map[string]EndpointMetrics {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]EndpointMetrics, len(rt.eps))
	for name, ep := range rt.eps {
		out[name] = ep.view()
	}
	return out
}
