// Package httpapi is the one HTTP layer under the three network
// surfaces — coopd (internal/ctrlplane), its HA replicas
// (ctrlplane/replica) and fleetd (internal/fleet): the JSON exchange
// their clients make (Call, APIError), the handler scaffold their
// servers mount routes through (Routes, Decode, WriteJSON, WriteError)
// and, in httpapi/daemon, the hardened http.Server both daemons run. It
// knows nothing of what the routes do.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/freelist"
)

// Machine-readable error codes carried by ErrorResponse.Code.
const (
	// ErrCodeUnknownApp marks a heartbeat or deregistration for an ID
	// the registry does not know — the client's signal to re-register
	// instead of retrying.
	ErrCodeUnknownApp = "unknown_app"
	// ErrCodeNotLeader marks a write sent to a replication follower.
	// The response's Leader field (and X-Coop-Leader header) carry the
	// current leader's URL; the client should retry there.
	ErrCodeNotLeader = "not_leader"
	// ErrCodeOverloaded marks a request refused by the load shedder;
	// the Retry-After header says when to try again.
	ErrCodeOverloaded = "overloaded"
)

// ErrorResponse carries an error message on non-2xx statuses. Code,
// when set, is a stable machine-readable cause (see ErrCode*) so
// clients do not have to string-match messages.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	// Leader is the current leader's URL on not_leader rejections.
	Leader string `json:"leader,omitempty"`
}

// ErrUnknownApp is the client-side sentinel for the server's
// "unknown_app" error code: the ID was evicted (or never existed) and
// the application must re-register. Detect it with errors.Is.
var ErrUnknownApp = errors.New("ctrlplane: unknown application (evicted or never registered)")

// APIError is a non-2xx response from any of the daemons.
type APIError struct {
	Status  int
	Message string
	// Code is the server's machine-readable cause (may be empty for
	// older servers or intermediaries that answer in plain text).
	Code string
	// Leader is the current leader's URL on not_leader redirects from a
	// replica follower.
	Leader string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

// Is lets errors.Is(err, ErrUnknownApp) match responses carrying the
// unknown_app code, without string-matching messages.
func (e *APIError) Is(target error) bool {
	return target == ErrUnknownApp && e.Code == ErrCodeUnknownApp
}

// MaxResponseBytes caps how much of a response body Call reads (the
// largest legitimate body is a replication snapshot).
const MaxResponseBytes = 16 << 20

// transportError marks a Call failure in which no complete response
// arrived, which is what makes it worth retrying.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// Retryable reports whether a failed Call may succeed when repeated:
// the transport failed, or the server answered 5xx. A request that
// cannot be encoded, a response that cannot be decoded and a 4xx answer
// are permanent, and ErrNotModified is no failure at all.
func Retryable(err error) bool {
	if errors.Is(err, ErrNotModified) {
		return false // decided before errors.As, whose targets escape
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status >= 500
	}
	var te *transportError
	return errors.As(err, &te)
}

// ErrNotModified is Call's answer to a 304, and to a 204 when out wants
// a value: what the request presented still names the server's current
// answer, so nothing was read and out is untouched. It is an outcome,
// not a failure: Retryable reports false, and callers branch on it with
// errors.Is.
var ErrNotModified = errors.New("not modified")

// maxPooledBuffer caps the buffers the exchange keeps between uses: one
// that grew past it (a /v1/state read of a large registry, a
// replication snapshot, an oversized request) is dropped for the
// collector rather than pinned in the pool.
const maxPooledBuffer = 64 << 10

// buffers holds the exchange's encode and read buffers, both sides of
// it: Call's request and response bodies, WriteJSON's encoding and
// Decode's read.
var buffers freelist.List[bytes.Buffer]

// getBuffer returns an empty pooled buffer.
func getBuffer() *bytes.Buffer {
	b := buffers.Get()
	b.Reset()
	return b
}

// putBuffer returns b to the pool unless it grew past maxPooledBuffer.
// The caller must not use b afterwards.
func putBuffer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuffer {
		buffers.Put(b)
	}
}

// pooledBody is a request body encoded into a pooled buffer. The
// transport may still read it after Call has returned (it writes the body
// while the answer arrives), and may open it again through GetBody to
// replay the request on a fresh connection, so the buffer goes back to
// the pool only once Call has returned and every reader is closed.
type pooledBody struct {
	mu   sync.Mutex
	buf  *bytes.Buffer // nil once released
	refs int           // open readers, plus one while Call runs
}

// open returns one more reader over the body.
func (p *pooledBody) open() (io.ReadCloser, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.buf == nil {
		return nil, errors.New("request body already released")
	}
	p.refs++
	r := &bodyReader{p: p}
	r.r.Reset(p.buf.Bytes())
	return r, nil
}

// release drops one reference, pooling the buffer with the last.
func (p *pooledBody) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.refs--; p.refs == 0 {
		putBuffer(p.buf)
		p.buf = nil
	}
}

// bodyReader is one reader of a pooledBody. Reads hold the body's lock,
// so the buffer is never pooled under one.
type bodyReader struct {
	p      *pooledBody
	r      bytes.Reader
	closed atomic.Bool
}

func (b *bodyReader) Read(q []byte) (int, error) {
	b.p.mu.Lock()
	defer b.p.mu.Unlock()
	if b.closed.Load() {
		return 0, errors.New("read of a closed request body")
	}
	return b.r.Read(q)
}

func (b *bodyReader) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		b.p.release()
	}
	return nil
}

// jsonHeader is the request header of every exchange that sends a JSON
// body and presents nothing else, and noHeader of every one that sends
// neither. Every such request shares them, so neither is ever written:
// Call hands them to the transport, which only reads them.
var (
	jsonHeader = http.Header{"Content-Type": jsonContentType}
	noHeader   = http.Header{}
)

// Call performs one JSON exchange. hdr is the request header, which
// Call and the transport only read, so a caller may hand the same one to
// every request it makes; nil sends the shared plain one, Content-Type
// JSON when there is a body. in (nil: no body) is encoded as the request
// body, without the encoder's trailing newline. A 304, or a 204 when out
// wants a value, returns ErrNotModified with the body left unread: the
// answer the request presented (as If-None-Match, or as a heartbeat's
// held answer) still stands. At most MaxResponseBytes of any other
// response are read; any other status >= 300 is returned as an
// *APIError, filled from the ErrorResponse body when there is one; any
// other body is unmarshalled into out (nil: discarded), and an empty one
// is an error when out wants a value. The response header is returned
// whenever a response arrived, failed calls included.
//
// The request goes straight to hc's transport (http.DefaultTransport
// when it has none): no daemon here redirects, so Call follows no
// redirect, and hc.Timeout bounds the exchange as a context deadline,
// added only when ctx has none as early.
func Call(ctx context.Context, hc *http.Client, method, url string, hdr http.Header, in, out any) (http.Header, error) {
	if hc.Timeout > 0 {
		if d, ok := ctx.Deadline(); !ok || time.Until(d) > hc.Timeout {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, hc.Timeout)
			defer cancel()
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return nil, fmt.Errorf("building request: %w", err)
	}
	switch {
	case hdr != nil:
	case in != nil:
		hdr = jsonHeader
	default:
		hdr = noHeader
	}
	req.Header = hdr
	if in != nil {
		body := &pooledBody{buf: getBuffer(), refs: 1}
		defer body.release()
		if err := json.NewEncoder(body.buf).Encode(in); err != nil {
			return nil, fmt.Errorf("encoding request: %w", err)
		}
		body.buf.Truncate(body.buf.Len() - 1) // one JSON value, nothing after it
		req.ContentLength = int64(body.buf.Len())
		req.Body, _ = body.open()
		req.GetBody = body.open
	}
	rt := hc.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		if req.Body != nil {
			req.Body.Close() // a transport that failed may not have
		}
		// The text http.Client.Do gave the same failure.
		op := req.Method[:1] + strings.ToLower(req.Method[1:])
		return nil, &transportError{&neturl.Error{Op: op, URL: url, Err: err}}
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified || (resp.StatusCode == http.StatusNoContent && out != nil) {
		return resp.Header, ErrNotModified
	}
	data := getBuffer()
	defer putBuffer(data)
	if _, err := data.ReadFrom(io.LimitReader(resp.Body, MaxResponseBytes)); err != nil {
		return resp.Header, &transportError{fmt.Errorf("reading response: %w", err)}
	}
	if resp.StatusCode >= 300 {
		ae := &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(data.String())}
		var er ErrorResponse
		if json.Unmarshal(data.Bytes(), &er) == nil && er.Error != "" {
			ae.Message, ae.Code, ae.Leader = er.Error, er.Code, er.Leader
		}
		return resp.Header, ae
	}
	if out == nil {
		return resp.Header, nil
	}
	if data.Len() == 0 {
		return resp.Header, fmt.Errorf("decoding response: empty %d body", resp.StatusCode)
	}
	if err := json.Unmarshal(data.Bytes(), out); err != nil {
		return resp.Header, fmt.Errorf("decoding response: %w", err)
	}
	return resp.Header, nil
}

// Typed runs one call of a client's do(ctx, method, path, in, out) and
// returns the response decoded into a fresh T — the body of every typed
// client method.
func Typed[T any](ctx context.Context, do func(ctx context.Context, method, path string, in, out any) error, method, path string, in any) (*T, error) {
	out := new(T)
	if err := do(ctx, method, path, in, out); err != nil {
		return nil, err
	}
	return out, nil
}
