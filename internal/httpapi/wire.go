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
	"strings"
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

// ErrNotModified is Call's answer to a 304: the validator it presented
// still names the server's current representation, so nothing was read
// and out is untouched. It is an outcome, not a failure: Retryable
// reports false, and callers branch on it with errors.Is.
var ErrNotModified = errors.New("not modified")

// Call performs one JSON exchange. in (nil: no body) is marshalled as
// the request body; validator, when not "", is sent as If-None-Match, and
// a 304 answer returns ErrNotModified with the body left unread; at most
// MaxResponseBytes of any other response are read; a status >= 400 is
// returned as an *APIError, filled from the ErrorResponse body when there
// is one; any other body is unmarshalled into out (nil: discarded). The
// response header is returned whenever a response arrived, failed calls
// included.
func Call(ctx context.Context, hc *http.Client, method, url, validator string, in, out any) (http.Header, error) {
	var rd io.Reader
	if in != nil {
		body, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("encoding request: %w", err)
		}
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, fmt.Errorf("building request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if validator != "" {
		req.Header.Set("If-None-Match", validator)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, &transportError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		return resp.Header, ErrNotModified
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxResponseBytes))
	if err != nil {
		return resp.Header, &transportError{fmt.Errorf("reading response: %w", err)}
	}
	if resp.StatusCode >= 400 {
		ae := &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(data))}
		var er ErrorResponse
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			ae.Message, ae.Code, ae.Leader = er.Error, er.Code, er.Leader
		}
		return resp.Header, ae
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.Header, fmt.Errorf("decoding response: %w", err)
		}
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
