package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// parkedRoutes mounts one route ("GET /slow", metered as "slow") whose
// handler reports its admission and then parks until release is closed.
func parkedRoutes(maxInFlight int, admitted *sync.WaitGroup, release <-chan struct{}) *Routes {
	rt := NewRoutes(time.Now, maxInFlight)
	rt.Handle("GET /slow", "slow", func(w http.ResponseWriter, r *http.Request) {
		admitted.Done()
		<-release
		w.WriteHeader(http.StatusOK)
	})
	return rt
}

// TestShedderBound: a route admits at most maxInFlight concurrent
// requests; excess requests get an immediate 503 with Retry-After and
// are counted, never queued.
func TestShedderBound(t *testing.T) {
	const bound = 2
	release := make(chan struct{})
	var admitted sync.WaitGroup
	admitted.Add(bound)
	rt := parkedRoutes(bound, &admitted, release)
	hs := httptest.NewServer(rt)
	defer hs.Close()

	// Fill the bound with parked requests.
	var wg sync.WaitGroup
	for i := 0; i < bound; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(hs.URL + "/slow")
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	admitted.Wait()

	// The next request is shed, not queued.
	hdr, err := Call(context.Background(), http.DefaultClient, http.MethodGet, hs.URL+"/slow", "", nil, nil)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.Code != ErrCodeOverloaded {
		t.Fatalf("err = %v, want a 503 APIError with code %q", err, ErrCodeOverloaded)
	}
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if !Retryable(err) {
		t.Error("a shed request is not Retryable")
	}
	// A refusal is counted as shed and kept out of the latency series.
	if m := rt.Metrics()["slow"]; m.Shed != 1 || m.Count != 0 {
		t.Errorf("metrics = %+v, want shed 1 and count 0", m)
	}

	close(release) // drain the parked handlers
	wg.Wait()
	if m := rt.Metrics()["slow"]; m.Count != bound || m.Errors != 0 {
		t.Errorf("metrics after drain = %+v, want count %d, no errors", m, bound)
	}
}

// TestShedderUnbounded: the zero bound admits everything, and the
// window's spans can be read while the requests complete.
func TestShedderUnbounded(t *testing.T) {
	const n = 100
	release := make(chan struct{})
	var admitted, wg sync.WaitGroup
	admitted.Add(n)
	rt := parkedRoutes(0, &admitted, release)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/slow", nil))
		}()
	}
	admitted.Wait() // all n in flight at once
	close(release)
	for len(rt.Spans()) < n { // read the window while the handlers record into it
	}
	wg.Wait()
	if m := rt.Metrics()["slow"]; m.Shed != 0 || m.Count != n {
		t.Errorf("metrics = %+v, want shed 0 and count %d", m, n)
	}
}

// TestEndpointStatsBoundedMemory: an endpoint's window of requests stops
// growing at latWindow entries, so the next 100k requests retain no more
// memory (record no longer allocates), the quantiles describe the last
// latWindow requests while max_ms stays all-time, and the spans are that
// window's requests, oldest first, each in the lane of its number.
func TestEndpointStatsBoundedMemory(t *testing.T) {
	ep := &endpointStats{name: "x", pattern: "POST /x"}
	// AllocsPerRun's warm-up call fills the ring; the measured one must
	// find it full.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100_000; i++ {
			ep.record(time.Duration(i)*time.Second, 5*time.Second, i%10 == 0)
		}
	})
	if allocs != 0 || cap(ep.win) > 2*latWindow {
		t.Errorf("100k recorded requests allocated %.0f objects and retain %d entries, want 0 and <= %d",
			allocs, cap(ep.win), 2*latWindow)
	}
	for i := 1; i <= latWindow; i++ {
		ep.record(time.Duration(i)*time.Second, time.Duration(i)*time.Millisecond, false)
	}
	m := ep.view()
	want := EndpointMetrics{
		Count: 200_000 + latWindow, Errors: 20_000,
		P50Ms: (latWindow + 1) / 2.0, P95Ms: 1 + 0.95*(latWindow-1), MaxMs: 5000,
	}
	if m.Count != want.Count || m.Errors != want.Errors || m.MaxMs != want.MaxMs ||
		math.Abs(m.P50Ms-want.P50Ms) > 1e-9 || math.Abs(m.P95Ms-want.P95Ms) > 1e-9 {
		t.Errorf("view = %+v, want %+v", m, want)
	}
	spans := (&Routes{eps: []*endpointStats{ep}}).Spans()
	if len(spans) != latWindow {
		t.Fatalf("%d spans, want the window's %d", len(spans), latWindow)
	}
	for i, s := range spans {
		n := i + 1
		want := trace.Span{Name: "POST /x", PID: "x", TID: 200_000 + n, Start: float64(n), End: float64(n) + float64(n)/1e3}
		if math.Abs(s.End-want.End) > 1e-9 {
			t.Fatalf("span %d = %+v, want %+v", i, s, want)
		}
		s.End = want.End
		if s != want {
			t.Fatalf("span %d = %+v, want %+v", i, s, want)
		}
	}
}

// TestCallErrors: the one exchange turns every failure into the error
// its callers branch on — an ErrorResponse body or a plain-text one into
// an *APIError, retryable iff 5xx; a dead peer into a retryable
// transport error; an undecodable 200 into a permanent one.
func TestCallErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/typed", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusMisdirectedRequest, ErrorResponse{Error: "go away", Code: ErrCodeNotLeader, Leader: "http://b"})
	})
	mux.HandleFunc("/unknown", func(w http.ResponseWriter, r *http.Request) {
		WriteErrorCode(w, http.StatusNotFound, ErrCodeUnknownApp, "app-%d: gone", 7)
	})
	mux.HandleFunc("/text", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "proxy exploded", http.StatusBadGateway)
	})
	mux.HandleFunc("/garbage", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{not json"))
	})
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		var v map[string]int
		json.NewDecoder(r.Body).Decode(&v)
		WriteJSON(w, http.StatusOK, v)
	})
	hs := httptest.NewServer(mux)
	ctx := context.Background()
	call := func(path string, in, out any) error {
		_, err := Call(ctx, hs.Client(), http.MethodPost, hs.URL+path, "", in, out)
		return err
	}

	var out map[string]int
	if err := call("/echo", map[string]int{"a": 1}, &out); err != nil || out["a"] != 1 {
		t.Fatalf("echo: out %v, err %v", out, err)
	}

	var ae *APIError
	err := call("/typed", nil, nil)
	if !errors.As(err, &ae) || *ae != (APIError{Status: 421, Message: "go away", Code: ErrCodeNotLeader, Leader: "http://b"}) || Retryable(err) {
		t.Errorf("/typed: err %#v (retryable %v), want the decoded 421, permanent", err, Retryable(err))
	}
	err = call("/unknown", nil, nil)
	if !errors.Is(err, ErrUnknownApp) || !errors.As(err, &ae) || ae.Message != "app-7: gone" {
		t.Errorf("/unknown: err %v, want ErrUnknownApp with the server's message", err)
	}
	err = call("/text", nil, nil)
	if !errors.As(err, &ae) || ae.Status != 502 || ae.Message != "proxy exploded" || ae.Code != "" || !Retryable(err) {
		t.Errorf("/text: err %#v, want a retryable 502 with the trimmed text", err)
	}
	if err = call("/garbage", nil, &out); err == nil || errors.As(err, &ae) || Retryable(err) {
		t.Errorf("/garbage: err %v, want a permanent decode error", err)
	}
	if err = call("/echo", make(chan int), nil); err == nil || Retryable(err) {
		t.Errorf("unencodable request: err %v, want a permanent error", err)
	}

	hs.Close()
	hdr, err := Call(ctx, http.DefaultClient, http.MethodGet, hs.URL+"/echo", "", nil, nil)
	if err == nil || hdr != nil || !Retryable(err) {
		t.Errorf("dead peer: hdr %v, err %v, want a retryable transport error and no header", hdr, err)
	}
}

// TestCallNotModified: a validator goes out as If-None-Match, and the
// 304 it earns comes back as ErrNotModified — permanent, out untouched —
// which Routes meters as a success; a stale validator gets the body.
func TestCallNotModified(t *testing.T) {
	rt := NewRoutes(time.Now, 0)
	rt.Handle("GET /doc", "doc", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"v2"`)
		if r.Header.Get("If-None-Match") == `"v2"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]int{"v": 2})
	})
	hs := httptest.NewServer(rt)
	defer hs.Close()
	ctx := context.Background()

	out := map[string]int{"kept": 1}
	hdr, err := Call(ctx, hs.Client(), http.MethodGet, hs.URL+"/doc", `"v2"`, nil, &out)
	if !errors.Is(err, ErrNotModified) || Retryable(err) || hdr.Get("ETag") != `"v2"` || !reflect.DeepEqual(out, map[string]int{"kept": 1}) {
		t.Fatalf("current validator: err %v (retryable %v), etag %q, out %v; want ErrNotModified, permanent, out untouched", err, Retryable(err), hdr.Get("ETag"), out)
	}
	for _, validator := range []string{`"v1"`, ""} {
		out = nil
		if _, err := Call(ctx, hs.Client(), http.MethodGet, hs.URL+"/doc", validator, nil, &out); err != nil || out["v"] != 2 {
			t.Fatalf("validator %q: out %v, err %v; want the body", validator, out, err)
		}
	}
	if m := rt.Metrics()["doc"]; m.Count != 3 || m.Errors != 0 {
		t.Errorf("metrics = %+v, want 3 requests and no errors: a 304 is a success", m)
	}
}

// TestWriteJSONUnencodable: a value that cannot be encoded is answered
// 500 with an ErrorResponse, not its status with an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]float64{"ai": math.Inf(1)})
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusInternalServerError || err != nil || er.Error == "" {
		t.Fatalf("answered %d %q, want a 500 ErrorResponse", rec.Code, rec.Body.String())
	}
}

// TestCallEmptyBody: an empty 2xx body is an error for a caller that
// wants a value, unless the status is 204; a caller that wants none
// takes either.
func TestCallEmptyBody(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/empty", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("/gone", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNoContent) })
	hs := httptest.NewServer(mux)
	defer hs.Close()
	ctx := context.Background()
	call := func(path string, out any) error {
		_, err := Call(ctx, hs.Client(), http.MethodGet, hs.URL+path, "", nil, out)
		return err
	}
	var out map[string]int
	if err := call("/empty", &out); err == nil || Retryable(err) {
		t.Errorf("empty 200 into a value: err %v, want a permanent error", err)
	}
	if err := call("/gone", &out); err != nil {
		t.Errorf("204 into a value: %v", err)
	}
	if err := call("/empty", nil); err != nil {
		t.Errorf("empty 200, no value wanted: %v", err)
	}
}

// drainBuffers empties the exchange's buffer pool and returns the
// largest capacity it held.
func drainBuffers() (largest int) {
	for i := 0; i < 64; i++ {
		largest = max(largest, buffers.Get().Cap())
	}
	return largest
}

// TestPooledBuffersStayCapped: a request near the body cap, one over it
// (declared and chunked, both 413) and a multi-MiB answer grow buffers
// on both sides of the exchange, and none of those stays pooled.
func TestPooledBuffersStayCapped(t *testing.T) {
	rt := NewRoutes(time.Now, 0)
	rt.Handle("POST /echo", "echo", func(w http.ResponseWriter, r *http.Request) {
		var v map[string]string
		if Decode(w, r, &v) {
			WriteJSON(w, http.StatusOK, map[string]int{"len": len(v["pad"])})
		}
	})
	rt.Handle("GET /big", "big", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"pad": strings.Repeat("x", 3<<20)})
	})
	// Behind the body cap daemon.Serve puts on every request, so a
	// chunked body over it ends in an *http.MaxBytesError.
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		rt.ServeHTTP(w, r)
	}))
	defer hs.Close()
	ctx := context.Background()
	drainBuffers()

	pad := strings.Repeat("x", MaxBodyBytes-64)
	var got map[string]int
	if _, err := Call(ctx, hs.Client(), http.MethodPost, hs.URL+"/echo", "", map[string]string{"pad": pad}, &got); err != nil || got["len"] != len(pad) {
		t.Fatalf("a request under the cap: %v %v", got, err)
	}
	var ae *APIError
	over := map[string]string{"pad": pad + strings.Repeat("x", 128)}
	if _, err := Call(ctx, hs.Client(), http.MethodPost, hs.URL+"/echo", "", over, nil); !errors.As(err, &ae) || ae.Status != http.StatusRequestEntityTooLarge {
		t.Errorf("a declared body over the cap: %v, want 413", err)
	}
	body, _ := json.Marshal(over)
	resp, err := hs.Client().Post(hs.URL+"/echo", "application/json", struct{ io.Reader }{bytes.NewReader(body)})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("a chunked body over the cap: %d, want 413", resp.StatusCode)
	}
	var big map[string]string
	if _, err := Call(ctx, hs.Client(), http.MethodGet, hs.URL+"/big", "", nil, &big); err != nil || len(big["pad"]) != 3<<20 {
		t.Fatalf("a multi-MiB answer: %d bytes, %v", len(big["pad"]), err)
	}
	hs.CloseClientConnections() // the transport has closed every request body
	if largest := drainBuffers(); largest > maxPooledBuffer {
		t.Errorf("a %d-byte buffer stayed pooled, cap %d", largest, maxPooledBuffer)
	}
}

// replayTransport reads each request body, then opens it again through
// GetBody, as a transport does to replay a request on a fresh connection,
// and answers with what the replay read.
type replayTransport struct{ t *testing.T }

func (rt replayTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	first, _ := io.ReadAll(req.Body)
	req.Body.Close()
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	again, _ := io.ReadAll(body)
	body.Close()
	if !bytes.Equal(first, again) || int64(len(again)) != req.ContentLength {
		rt.t.Errorf("replayed body %q, first read %q, Content-Length %d", again, first, req.ContentLength)
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(again))}, nil
}

// TestCallBodyReplays: the pooled request body can be opened again until
// the exchange is over, so the transport may replay it.
func TestCallBodyReplays(t *testing.T) {
	hc := &http.Client{Transport: replayTransport{t}}
	var out map[string]int
	if _, err := Call(context.Background(), hc, http.MethodPost, "http://peer/echo", "", map[string]int{"a": 1}, &out); err != nil || out["a"] != 1 {
		t.Fatalf("out %v, err %v", out, err)
	}
}
