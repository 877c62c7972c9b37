package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/machine"
)

// fakeClock is a settable time source for deterministic breaker tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// TestBreakerLifecycle: closed -> open after threshold consecutive
// failures -> half-open after the cooldown (one probe) -> closed on
// probe success / re-open on probe failure.
func TestBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := NewBreaker(3, time.Second, clk.Now)

	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("fresh breaker is not closed")
	}
	// Two failures: still closed. Third: trips.
	b.Record(false)
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", b.State())
	}
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state after 3 failures = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}

	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted during half-open")
	}
	// Probe fails: open again for a full cooldown.
	b.Record(false)
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("failed probe did not re-open the circuit")
	}
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("no probe after second cooldown")
	}
	b.Record(true)
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("successful probe did not close the circuit")
	}
	if b.Trips() != 2 {
		t.Errorf("trips = %d, want 2", b.Trips())
	}

	// A success resets the consecutive-failure count.
	b.Record(false)
	b.Record(false)
	b.Record(true)
	b.Record(false)
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Error("failure count survived an intervening success")
	}
}

// flakyServer is a minimal control plane whose availability a test can
// toggle; down means connection-level resets (no HTTP response at all).
type flakyServer struct {
	t    *testing.T
	hs   *httptest.Server
	down atomic.Bool
	gen  atomic.Uint64
}

func newFlakyServer(t *testing.T) *flakyServer {
	f := &flakyServer{t: t}
	f.gen.Store(1)
	f.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.down.Load() {
			panic(http.ErrAbortHandler) // slam the connection shut
		}
		switch r.URL.Path {
		case "/v1/register":
			json.NewEncoder(w).Encode(ctrlplane.RegisterResponse{ID: "app-1", Generation: f.gen.Load()})
		case "/v1/state":
			json.NewEncoder(w).Encode(ctrlplane.StateResponse{Incarnation: "i1", Generation: f.gen.Load(), Machine: machine.PaperModel()})
		case "/v1/allocations":
			json.NewEncoder(w).Encode(ctrlplane.AllocationsResponse{
				Generation: f.gen.Load(),
				Machine:    "paper-model",
				Policy:     ctrlplane.PolicyRoofline,
				Apps: []ctrlplane.AppAllocation{
					{ID: "app-1", Name: "solo", PerNode: []int{5, 5, 5, 5}, Threads: 20, PredictedGFLOPS: 200},
				},
				TotalGFLOPS: 200,
			})
		case "/v1/heartbeat":
			json.NewEncoder(w).Encode(ctrlplane.HeartbeatResponse{Generation: f.gen.Load()})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(f.hs.Close)
	return f
}

func (f *flakyServer) resilient(t *testing.T, cfg ResilientConfig) *Resilient {
	t.Helper()
	c := New(f.hs.URL, Config{MaxAttempts: 2, BaseBackoff: time.Millisecond, RequestTimeout: 2 * time.Second})
	r, err := NewResilient(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestResilientServesCachedWhenDown: after one good read, an outage is
// absorbed — the client serves the last-known-good table and reports
// its source, and the breaker trips open instead of hammering.
func TestResilientServesCachedWhenDown(t *testing.T) {
	f := newFlakyServer(t)
	clk := &fakeClock{now: time.Unix(0, 0)}
	r := f.resilient(t, ResilientConfig{BreakerThreshold: 2, BreakerCooldown: time.Minute, Clock: clk.Now})
	ctx := context.Background()

	if _, err := r.Register(ctx, ctrlplane.RegisterRequest{Name: "solo", AI: 10}); err != nil {
		t.Fatalf("register: %v", err)
	}
	live, src, err := r.Allocations(ctx)
	if err != nil || src != SourceLive {
		t.Fatalf("live read: src %v, err %v", src, err)
	}

	f.down.Store(true)
	// First degraded read trips the breaker partway; keep reading until
	// it is fully open — every answer must still be the cached table.
	for i := 0; i < 4; i++ {
		got, src, err := r.Allocations(ctx)
		if err != nil {
			t.Fatalf("degraded read %d: %v", i, err)
		}
		if src != SourceCached {
			t.Fatalf("degraded read %d source = %v, want cached", i, src)
		}
		if got.TotalGFLOPS != live.TotalGFLOPS || len(got.Apps) != len(live.Apps) {
			t.Fatalf("cached table diverged: %+v", got)
		}
	}
	if r.BreakerState() != BreakerOpen {
		t.Errorf("breaker = %v after repeated transport failures, want open", r.BreakerState())
	}

	// Recovery: cooldown elapses, the half-open probe hits a healthy
	// server, and reads go live again.
	f.down.Store(false)
	clk.Advance(time.Minute)
	_, src, err = r.Allocations(ctx)
	if err != nil || src != SourceLive {
		t.Fatalf("post-recovery read: src %v, err %v", src, err)
	}
	if r.BreakerState() != BreakerClosed {
		t.Errorf("breaker = %v after recovery, want closed", r.BreakerState())
	}
}

// TestResilientLocalSolveWhenNothingCached: daemon dies before the
// first allocation read — the client solves locally over its own known
// demand on the cached topology and reproduces the paper's Table I
// optimum (254 > 140 even > 128 node-per-app).
func TestResilientLocalSolveWhenNothingCached(t *testing.T) {
	f := newFlakyServer(t)
	clk := &fakeClock{now: time.Unix(0, 0)}
	r := f.resilient(t, ResilientConfig{BreakerThreshold: 1, BreakerCooldown: time.Minute, Clock: clk.Now})
	ctx := context.Background()

	if _, err := r.Register(ctx, ctrlplane.RegisterRequest{Name: "comp", AI: 10}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if r.Machine() == nil {
		t.Fatal("register did not cache the topology")
	}
	r.SetLocalDemand([]ctrlplane.RegisterRequest{
		{Name: "mem-a", AI: 0.5},
		{Name: "mem-b", AI: 0.5},
		{Name: "mem-c", AI: 0.5},
		{Name: "comp", AI: 10},
	})

	f.down.Store(true)
	got, src, err := r.Allocations(ctx)
	if err != nil {
		t.Fatalf("local fallback: %v", err)
	}
	if src != SourceLocal {
		t.Fatalf("source = %v, want local", src)
	}
	if got.TotalGFLOPS < 250 || got.TotalGFLOPS > 260 {
		t.Errorf("local solve total = %g GFLOPS, want the ~254 Table I optimum", got.TotalGFLOPS)
	}
	if got.Reference == nil {
		t.Fatal("local solve dropped the reference baselines")
	}
	if !(got.TotalGFLOPS > got.Reference.EvenGFLOPS && got.Reference.EvenGFLOPS > got.Reference.NodePerAppGFLOPS) {
		t.Errorf("ranking broken: optimal %g, even %g, node-per-app %g",
			got.TotalGFLOPS, got.Reference.EvenGFLOPS, got.Reference.NodePerAppGFLOPS)
	}
}

// TestResilientAutoReRegister: an eviction (typed unknown_app on
// heartbeat) triggers transparent re-registration and a retried beat.
// The re-registration carries the remembered spec but not the offered
// solve the first one went out with: that described the machine's
// demand set then, not now.
func TestResilientAutoReRegister(t *testing.T) {
	var regs atomic.Int32
	var beats atomic.Int32
	var offered [2]atomic.Bool
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/register":
			var req ctrlplane.RegisterRequest
			json.NewDecoder(r.Body).Decode(&req)
			n := regs.Add(1)
			if n <= 2 {
				offered[n-1].Store(req.Solved != nil && req.Name == "app")
			}
			id := "app-1"
			if n > 1 {
				id = "app-2"
			}
			json.NewEncoder(w).Encode(ctrlplane.RegisterResponse{ID: id, Generation: uint64(n)})
		case "/v1/heartbeat":
			var hb ctrlplane.HeartbeatRequest
			json.NewDecoder(r.Body).Decode(&hb)
			beats.Add(1)
			if hb.ID == "app-1" {
				// The first ID was "evicted".
				w.WriteHeader(http.StatusNotFound)
				json.NewEncoder(w).Encode(ctrlplane.ErrorResponse{Error: "unknown", Code: ctrlplane.ErrCodeUnknownApp})
				return
			}
			json.NewEncoder(w).Encode(ctrlplane.HeartbeatResponse{Generation: 2})
		case "/v1/state":
			json.NewEncoder(w).Encode(ctrlplane.StateResponse{Incarnation: "i1", Generation: uint64(regs.Load()), Machine: machine.PaperModel()})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(hs.Close)

	c := New(hs.URL, Config{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	r, err := NewResilient(c, ResilientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first := ctrlplane.RegisterRequest{Name: "app", AI: 1, Solved: &ctrlplane.Solved{Key: 42, Counts: []int{8}}}
	if _, err := r.Register(ctx, first); err != nil {
		t.Fatal(err)
	}
	if r.ID() != "app-1" {
		t.Fatalf("initial id = %q", r.ID())
	}
	resp, err := r.Heartbeat(ctx, ctrlplane.HeartbeatRequest{})
	if err != nil {
		t.Fatalf("heartbeat across eviction: %v", err)
	}
	if resp.Generation != 2 {
		t.Errorf("generation = %d, want 2", resp.Generation)
	}
	if r.ID() != "app-2" {
		t.Errorf("id after re-register = %q, want app-2", r.ID())
	}
	if r.ReRegisters() != 1 {
		t.Errorf("re-registers = %d, want 1", r.ReRegisters())
	}
	if got := regs.Load(); got != 2 {
		t.Errorf("server saw %d registrations, want 2", got)
	}
	if !offered[0].Load() || offered[1].Load() {
		t.Errorf("offer went out with register 1: %v, with the re-register: %v; want true, false", offered[0].Load(), offered[1].Load())
	}
}

// restartableDaemon is a real coopd behind one stable URL. restart swaps
// in a fresh one that remembers no app (no state dir), readsDown makes
// every GET a 503 and down drops every connection.
type restartableDaemon struct {
	srv       atomic.Pointer[ctrlplane.Server]
	readsDown atomic.Bool
	down      atomic.Bool
	hs        *httptest.Server
}

func newRestartableDaemon(t *testing.T, m *machine.Machine) *restartableDaemon {
	d := &restartableDaemon{}
	d.restart(t, m)
	d.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case d.down.Load():
			panic(http.ErrAbortHandler)
		case d.readsDown.Load() && r.Method == http.MethodGet:
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(ctrlplane.ErrorResponse{Error: "reads unavailable"})
			return
		}
		d.srv.Load().Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(d.hs.Close)
	return d
}

func (d *restartableDaemon) restart(t *testing.T, m *machine.Machine) {
	t.Helper()
	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	d.srv.Store(srv)
}

// TestResilientRelearnsTopologyOnEveryRegistration: the cached topology
// is read again by every successful registration, the re-registration
// after unknown_app included. So a failed first read is not final, and a
// daemon restarted on another machine description is what the local
// fallback then solves over.
func TestResilientRelearnsTopologyOnEveryRegistration(t *testing.T) {
	ctx := context.Background()
	setup := func(t *testing.T, m *machine.Machine) (*restartableDaemon, *Resilient) {
		d := newRestartableDaemon(t, m)
		r, err := NewResilient(New(d.hs.URL, Config{MaxAttempts: 1, RequestTimeout: 2 * time.Second}), ResilientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return d, r
	}
	reRegister := func(t *testing.T, r *Resilient) {
		t.Helper()
		if _, err := r.Heartbeat(ctx, ctrlplane.HeartbeatRequest{}); err != nil {
			t.Fatalf("heartbeat across the restart: %v", err)
		}
		if r.ReRegisters() != 1 {
			t.Fatalf("re-registers = %d, want 1", r.ReRegisters())
		}
	}

	t.Run("first read fails", func(t *testing.T) {
		d, r := setup(t, machine.PaperModel())
		d.readsDown.Store(true)
		if _, err := r.Register(ctx, ctrlplane.RegisterRequest{Name: "comp", AI: 10}); err != nil {
			t.Fatal(err)
		}
		if m := r.Machine(); m != nil {
			t.Fatalf("topology %s learned while every read failed", m.Name)
		}
		d.readsDown.Store(false)
		d.restart(t, machine.PaperModel())
		reRegister(t, r)
		if m := r.Machine(); m == nil || m.Name != machine.PaperModel().Name {
			t.Fatalf("after the re-registration the cached topology is %v, want %s", m, machine.PaperModel().Name)
		}
	})

	t.Run("restart on another machine", func(t *testing.T) {
		d, r := setup(t, machine.PaperModel())
		if _, err := r.Register(ctx, ctrlplane.RegisterRequest{Name: "comp", AI: 10}); err != nil {
			t.Fatal(err)
		}
		if m := r.Machine(); m == nil || m.Name != machine.PaperModel().Name {
			t.Fatalf("cached topology %v, want %s", m, machine.PaperModel().Name)
		}
		knl := machine.KNLSNC4()
		d.restart(t, knl)
		reRegister(t, r)
		if m := r.Machine(); m == nil || m.Name != knl.Name {
			t.Fatalf("after a restart on %s the cached topology is %v", knl.Name, m)
		}
		d.down.Store(true)
		got, src, err := r.Allocations(ctx)
		if err != nil || src != SourceLocal {
			t.Fatalf("degraded read: src %v, err %v; want a local solve", src, err)
		}
		if got.Machine != knl.Name || len(got.Apps) != 1 || len(got.Apps[0].PerNode) != knl.NumNodes() {
			t.Fatalf("local solve over %s %+v, want one app over the %d nodes of %s", got.Machine, got.Apps, knl.NumNodes(), knl.Name)
		}
	})
}

// TestResilientNoDegradeOnAPIError: a live server rejecting the request
// (4xx) must surface the error, not silently serve stale cache.
func TestResilientNoDegradeOnAPIError(t *testing.T) {
	var served atomic.Bool
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/allocations" && served.Load() {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(ctrlplane.ErrorResponse{Error: "bad request"})
			return
		}
		served.Store(true)
		json.NewEncoder(w).Encode(ctrlplane.AllocationsResponse{Generation: 1, TotalGFLOPS: 100})
	}))
	t.Cleanup(hs.Close)
	r, err := NewResilient(New(hs.URL, Config{MaxAttempts: 1, BaseBackoff: time.Millisecond}), ResilientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, src, err := r.Allocations(ctx); err != nil || src != SourceLive {
		t.Fatalf("first read: src %v, err %v", src, err)
	}
	_, _, err = r.Allocations(ctx)
	if err == nil {
		t.Fatal("API rejection was masked by the cache")
	}
	if r.BreakerState() != BreakerClosed {
		t.Errorf("breaker = %v, want closed (the daemon IS alive)", r.BreakerState())
	}
}
