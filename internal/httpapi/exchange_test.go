package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestCallRefusesRedirect: no daemon here redirects, so a 3xx is an
// answer, not a pointer to follow: an *APIError carrying the status,
// permanent, and the target is never asked.
func TestCallRefusesRedirect(t *testing.T) {
	var followed atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/moved", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/target", http.StatusFound)
	})
	mux.HandleFunc("/target", func(w http.ResponseWriter, r *http.Request) {
		followed.Add(1)
		WriteJSON(w, http.StatusOK, map[string]int{"a": 1})
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()
	var out map[string]int
	_, err := Call(context.Background(), hs.Client(), http.MethodGet, hs.URL+"/moved", nil, nil, &out)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusFound || Retryable(err) || out != nil {
		t.Errorf("302: err %v (retryable %v), out %v; want a permanent *APIError with status 302 and out untouched", err, Retryable(err), out)
	}
	if n := followed.Load(); n != 0 {
		t.Errorf("the redirect target was asked %d times, want 0", n)
	}
}

// blockTransport answers nothing: each request waits for its context to
// end, and the deadline the request carried is recorded.
type blockTransport struct{ deadline chan time.Time }

func (b blockTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	d, _ := req.Context().Deadline()
	b.deadline <- d
	<-req.Context().Done()
	return nil, req.Context().Err()
}

// TestCallTimeoutIsDeadline: hc.Timeout bounds an exchange whose
// transport never answers, as a deadline on the request's context; the
// failure is a retryable transport error that keeps the cause.
func TestCallTimeoutIsDeadline(t *testing.T) {
	bt := blockTransport{make(chan time.Time, 1)}
	hc := &http.Client{Transport: bt, Timeout: 20 * time.Millisecond}
	start := time.Now()
	_, err := Call(context.Background(), hc, http.MethodPost, "http://peer/x", nil, map[string]int{"a": 1}, nil)
	took := time.Since(start)
	d := <-bt.deadline
	if !errors.Is(err, context.DeadlineExceeded) || !Retryable(err) {
		t.Errorf("err %v (retryable %v), want a retryable context.DeadlineExceeded", err, Retryable(err))
	}
	if want := `Post "http://peer/x": context deadline exceeded`; err == nil || err.Error() != want {
		t.Errorf("error text %q, want %q", err, want)
	}
	if d.IsZero() || d.Before(start.Add(hc.Timeout)) || d.After(start.Add(hc.Timeout+time.Second)) {
		t.Errorf("the request carried deadline %v, want about %v after %v", d, hc.Timeout, start)
	}
	if took > 5*time.Second {
		t.Errorf("the call took %v under a %v timeout", took, hc.Timeout)
	}
}

// TestCallEarlierDeadlineWins: a context deadline earlier than
// hc.Timeout is the one the request carries, unchanged; a later one is
// cut to hc.Timeout.
func TestCallEarlierDeadlineWins(t *testing.T) {
	bt := blockTransport{make(chan time.Time, 1)}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	want, _ := ctx.Deadline()
	_, err := Call(ctx, &http.Client{Transport: bt, Timeout: time.Hour}, http.MethodGet, "http://peer/x", nil, nil, nil)
	if got := <-bt.deadline; !got.Equal(want) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("earlier context deadline: the request carried %v (err %v), want the context's %v", got, err, want)
	}

	late, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	start := time.Now()
	_, err = Call(late, &http.Client{Transport: bt, Timeout: 20 * time.Millisecond}, http.MethodGet, "http://peer/x", nil, nil, nil)
	if got := <-bt.deadline; got.After(start.Add(time.Second)) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("later context deadline: the request carried %v (err %v), want about 20ms after %v", got, err, start)
	}
}

// TestCallSendsOneValue: a request body is the JSON value alone, no
// trailing newline, and its Content-Length says so.
func TestCallSendsOneValue(t *testing.T) {
	var got []byte
	var length int64
	rt := NewRoutes(time.Now, 0)
	rt.Handle("POST /echo", "echo", func(w http.ResponseWriter, r *http.Request) {
		length = r.ContentLength
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		got = buf.Bytes()
		w.WriteHeader(http.StatusNoContent)
	})
	hs := httptest.NewServer(rt)
	defer hs.Close()
	if _, err := Call(context.Background(), hs.Client(), http.MethodPost, hs.URL+"/echo", nil, map[string]int{"a": 1}, nil); err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"a":1}` || length != int64(len(got)) {
		t.Errorf("sent %q with Content-Length %d, want {\"a\":1} and its length", got, length)
	}
}

// drainDecoders empties the strict decoder pool.
func drainDecoders() {
	for i := 0; i < 64; i++ {
		decoders.Get()
	}
}

// TestDecodeReuse: a decoder goes back to the pool after a body it read
// to the end without error, and only then: not after trailing bytes
// (whitespace included), an error, or a body over maxPooledBuffer.
func TestDecodeReuse(t *testing.T) {
	pad := strings.Repeat(" ", maxPooledBuffer)
	for _, c := range []struct {
		body string
		kept bool
	}{
		{`{"name":"a","ai":1}`, true},
		{`{"name":"a","ai":1}` + "\n", false},
		{`{"name":"a","ai":1}}`, false},
		{`{"name":"a"} {"name":"b"}`, false},
		{`{"name":"a","nope":1}`, false},
		{`{"name":`, false},
		{``, false},
		{pad + `{"name":"a"}`, false},
	} {
		drainDecoders()
		var v fuzzBody
		Decode(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/x", strings.NewReader(c.body)), &v)
		if kept := decoders.Get().dec != nil; kept != c.kept {
			t.Errorf("after %.40q: decoder pooled %v, want %v", c.body, kept, c.kept)
		}
	}
}

// fuzzBody has the field kinds request bodies carry.
type fuzzBody struct {
	Name   string            `json:"name"`
	AI     float64           `json:"ai"`
	Counts []int             `json:"counts,omitempty"`
	Solved *struct{ N uint } `json:"solved,omitempty"`
	Tags   map[string]string `json:"tags,omitempty"`
}

// decodeOutcome is what a request body came to: the status Decode
// answered (200 when it succeeded), the value and the error body.
type decodeOutcome struct {
	status int
	v      fuzzBody
	text   string
}

// pooledDecode runs body through Decode.
func pooledDecode(body []byte) decodeOutcome {
	rec := httptest.NewRecorder()
	var o decodeOutcome
	if Decode(rec, httptest.NewRequest(http.MethodPost, "/x", bytes.NewReader(body)), &o.v) {
		return decodeOutcome{status: http.StatusOK, v: o.v}
	}
	o.status, o.text = rec.Code, rec.Body.String()
	return o
}

// freshDecode is Decode with a new strict decoder per body.
func freshDecode(body []byte) decodeOutcome {
	rec := httptest.NewRecorder()
	var o decodeOutcome
	if len(body) > MaxBodyBytes {
		WriteError(rec, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", MaxBodyBytes)
		return decodeOutcome{status: rec.Code, text: rec.Body.String()}
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&o.v); err != nil {
		WriteError(rec, http.StatusBadRequest, "invalid request body: %v", err)
		o.status, o.text = rec.Code, rec.Body.String()
		return o
	}
	o.status = http.StatusOK
	return o
}

// FuzzDecodeReuse: whatever the first body held — junk, trailing bytes,
// unknown fields, more than maxPooledBuffer — the second body decodes
// through the pool exactly as through a fresh strict decoder: same
// status, same value, same error text.
func FuzzDecodeReuse(f *testing.F) {
	for _, s := range [][2]string{
		{`{"name":"a","ai":1}`, `{"name":"b","counts":[1,2]}`},
		{`{"name":"a"}` + "\n", `{"name":"b"}`},
		{`{"name":"a"}}`, `{"name":"b"}`},
		{`{"name":"a"} {"ai":2}`, `{"ai":3}`},
		{`{"name":"a","nope":1}`, `{"name":"b","solved":{"N":4}}`},
		{`{"name":"a"}`, `{"name":"b","nope":1}`},
		{`tru`, `true`},
		{`{"tags":{"x":"y"}}`, `tru `},
		{``, `  `},
		{`{"ai":"x"}`, `[1]`},
		{`{"name":"a"}`, `{"name":"b"}]`},
	} {
		f.Add([]byte(s[0]), []byte(s[1]), false)
		f.Add([]byte(s[0]), []byte(s[1]), true)
	}
	f.Fuzz(func(t *testing.T, first, second []byte, oversize bool) {
		if oversize { // leading whitespace: the same value, a larger body
			first = append(bytes.Repeat([]byte(" "), maxPooledBuffer), first...)
		}
		pooledDecode(first)
		got, want := pooledDecode(second), freshDecode(second)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("after %.60q, %.60q decoded to %+v, a fresh decoder to %+v", first, second, got, want)
		}
	})
}

// TestUnnamedRouteNotMetered: a route mounted with no name is served
// through the scaffold (a wrong method is still a JSON 405) but keeps no
// window: nothing shows in Metrics or Spans.
func TestUnnamedRouteNotMetered(t *testing.T) {
	rt := NewRoutes(time.Now, 0)
	rt.Handle("GET /peer", "", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]int{"a": 1})
	})
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/peer", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /peer: %d", rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/peer", nil))
	var er ErrorResponse
	if rec.Code != http.StatusMethodNotAllowed || json.Unmarshal(rec.Body.Bytes(), &er) != nil || er.Error == "" {
		t.Errorf("POST /peer: %d %q, want a 405 ErrorResponse", rec.Code, rec.Body.String())
	}
	if m, s := rt.Metrics(), rt.Spans(); len(m) != 0 || len(s) != 0 {
		t.Errorf("an unnamed route left metrics %v and %d spans, want none", m, len(s))
	}
}
