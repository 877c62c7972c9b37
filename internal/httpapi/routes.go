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

	"repro/internal/freelist"
	"repro/internal/metrics"
	"repro/internal/trace"
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
// the handler runs). Like json.Decoder.Decode it reads the first JSON
// value and ignores anything after it. On failure it answers 400, or 413
// for a body over the cap, and reports false.
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
	if err := decoders.Get().decode(buf.Bytes(), v); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// strictDecoder is Decode's json.Decoder, refusing unknown fields, kept
// between requests with the bytes.Reader it reads each body through.
type strictDecoder struct {
	r   bytes.Reader
	dec *json.Decoder
	fed int64 // bytes of every body dec was given
}

// decoders holds the strict decoders whose last decode was clean.
var decoders freelist.List[strictDecoder]

// decode decodes body's first JSON value into v and returns d to
// decoders only if the decode was clean: no error (it is sticky), the
// decoder's offset at the end of every byte it was fed, so nothing is
// left buffered or unread (a byte after the value, whitespace included,
// would be read ahead of the next body), and a body no larger than
// maxPooledBuffer. The offset alone tells whether anything is left;
// More would refill, and grow, the buffer of a decoder about to be
// dropped. The caller must not use d afterwards.
func (d *strictDecoder) decode(body []byte, v any) error {
	if d.dec == nil {
		d.dec = json.NewDecoder(&d.r)
		d.dec.DisallowUnknownFields()
	}
	d.r.Reset(body)
	d.fed += int64(len(body))
	err := d.dec.Decode(v)
	if err == nil && d.dec.InputOffset() == d.fed && len(body) <= maxPooledBuffer {
		d.r.Reset(nil)
		decoders.Put(d)
	}
	return err
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

// latWindow is how many of an endpoint's newest requests its quantiles
// and /tracez cover: a ring that stops growing at this size, so a
// daemon's memory does not grow with the requests it has served.
const latWindow = 1024

// request is one entry of an endpoint's window: when the request was
// admitted, since its route table was built, and how long it took. 16
// bytes, so a full window is 16 KiB per endpoint.
type request struct{ start, took time.Duration }

// endpointStats meters one endpoint, mounted at pattern under name:
// request count, error count, the all-time maximum latency and a ring of
// the last latWindow requests for the quantiles and the spans.
type endpointStats struct {
	name, pattern string

	mu      sync.Mutex
	count   uint64
	errors  uint64
	maxTook time.Duration
	win     []request // ring once len reaches latWindow

	// sem bounds the endpoint's in-flight requests (nil: unbounded) and
	// shed counts the ones refused because it was full.
	sem  chan struct{}
	shed atomic.Uint64
}

func (e *endpointStats) record(start, took time.Duration, isErr bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.win) < latWindow {
		e.win = append(e.win, request{})
	}
	e.win[e.count%latWindow] = request{start, took}
	e.count++
	e.maxTook = max(e.maxTook, took)
	if isErr {
		e.errors++
	}
}

func (e *endpointStats) view() EndpointMetrics {
	e.mu.Lock()
	recent := make([]float64, len(e.win)) // sorted outside the lock
	for i, r := range e.win {
		recent[i] = r.took.Seconds() * 1e3
	}
	m := EndpointMetrics{Count: e.count, Errors: e.errors, MaxMs: e.maxTook.Seconds() * 1e3, Shed: e.shed.Load()}
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
	epoch       time.Time // when the table was built: span time 0
	maxInFlight int
	admitted    func(name string) // see OnAdmit

	mu  sync.Mutex
	eps []*endpointStats // in mount order
}

// NewRoutes builds an empty route table. clock times the requests;
// maxInFlight bounds concurrently served requests per route, excess
// requests being shed with 503 + Retry-After (0: unbounded).
func NewRoutes(clock func() time.Time, maxInFlight int) *Routes {
	return &Routes{mux: http.NewServeMux(), clock: clock, epoch: clock(), maxInFlight: maxInFlight}
}

// OnAdmit makes f called with a route's name once a request to it is
// admitted, before its handler runs: a test's view of the shedder.
func (rt *Routes) OnAdmit(f func(name string)) { rt.admitted = f }

// Handle mounts h at a "METHOD /path" pattern and meters it under name.
// A route mounted with no name is served the same way but not metered:
// it is for a surface that publishes no window of its own.
func (rt *Routes) Handle(pattern, name string, h http.HandlerFunc) {
	ep := &endpointStats{name: name, pattern: pattern}
	if rt.maxInFlight > 0 {
		ep.sem = make(chan struct{}, rt.maxInFlight)
	}
	if name != "" {
		rt.mu.Lock()
		rt.eps = append(rt.eps, ep)
		rt.mu.Unlock()
	}
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
		if rt.admitted != nil {
			rt.admitted(name)
		}
		t0 := rt.clock()
		if r.ContentLength > MaxBodyBytes {
			WriteError(w, http.StatusRequestEntityTooLarge, "request body of %d bytes exceeds the %d-byte limit", r.ContentLength, MaxBodyBytes)
		} else {
			h(w, r)
		}
		if name != "" {
			ep.record(t0.Sub(rt.epoch), rt.clock().Sub(t0), sw.status >= 400)
		}
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
	for _, ep := range rt.eps {
		out[ep.name] = ep.view()
	}
	return out
}

// Spans returns every route's window, oldest first, as trace spans named
// by the route pattern: pid the route's name, tid the request's number on
// its route, times in seconds since the table was built.
func (rt *Routes) Spans() []trace.Span {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var spans []trace.Span
	for _, e := range rt.eps {
		e.mu.Lock()
		for n := e.count - uint64(len(e.win)); n < e.count; n++ {
			r := e.win[n%latWindow]
			spans = append(spans, trace.Span{Name: e.pattern, PID: e.name, TID: int(n + 1),
				Start: r.start.Seconds(), End: (r.start + r.took).Seconds()})
		}
		e.mu.Unlock()
	}
	return spans
}
