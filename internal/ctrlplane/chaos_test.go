package ctrlplane_test

// Chaos suite: a real coopd-shaped daemon (ctrlplane.Server behind
// net/http on a TCP port, registry journaled to a state dir) is stormed
// with injected faults, killed mid-workload, and restarted on the same
// address with the same state dir. The paper's Table I result — the
// uneven (1,1,1,5)-style optimum at ~254 GFLOPS beating the even split
// (140) and node-per-app (128) — must survive the whole ordeal, and
// client generations must never regress. Run via `make chaos` (or the
// normal test suite; schedules are short).

import (
	"context"
	"net"
	"net/http"
	"slices"
	"testing"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/ctrlplane/persist"
	"repro/internal/faultinject"
	"repro/internal/machine"
)

// chaosDaemon is a restartable control-plane daemon on a fixed address.
type chaosDaemon struct {
	t     *testing.T
	addr  string
	dir   string
	clock *faultinject.SkewedClock
	ttl   time.Duration

	store *persist.Store
	srv   *ctrlplane.Server
	hs    *http.Server
}

// startChaosDaemon boots (or reboots) the daemon. addr "" picks an
// ephemeral port; pass the previous addr to restart in place.
func startChaosDaemon(t *testing.T, dir, addr string, clock *faultinject.SkewedClock, ttl time.Duration) *chaosDaemon {
	t.Helper()
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("opening state dir: %v", err)
	}
	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{
		Machine:    machine.PaperModel(),
		DefaultTTL: ttl,
		Clock:      clock.Now,
		Store:      store,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if attempt > 50 {
			t.Fatalf("listening on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond) // the dying daemon's port lingers briefly
	}
	d := &chaosDaemon{
		t: t, addr: ln.Addr().String(), dir: dir, clock: clock, ttl: ttl,
		store: store, srv: srv,
		hs: &http.Server{Handler: srv.Handler()},
	}
	go d.hs.Serve(ln)
	srv.Start()
	t.Cleanup(d.kill)
	return d
}

// kill simulates a daemon crash: connections are severed and the state
// dir is abandoned WITHOUT a clean store close, so recovery runs off
// the fsynced journal alone.
func (d *chaosDaemon) kill() {
	if d.hs == nil {
		return
	}
	d.hs.Close()
	d.srv.Close()
	d.hs = nil
}

// url is the daemon's base URL (stable across restarts).
func (d *chaosDaemon) url() string { return "http://" + d.addr }

// tableIRequests is the paper's Table I demand mix.
func tableIRequests() []ctrlplane.RegisterRequest {
	return []ctrlplane.RegisterRequest{
		{Name: "mem-a", AI: 0.5},
		{Name: "mem-b", AI: 0.5},
		{Name: "mem-c", AI: 0.5},
		{Name: "comp", AI: 10},
	}
}

// assertTableIRanking checks the reproduced Table I numbers: optimal
// ~254 GFLOPS > even 140 > node-per-app 128.
func assertTableIRanking(t *testing.T, resp *ctrlplane.AllocationsResponse, label string) {
	t.Helper()
	if len(resp.Apps) != 4 {
		t.Fatalf("%s: %d apps in allocation, want 4", label, len(resp.Apps))
	}
	if resp.TotalGFLOPS < 250 || resp.TotalGFLOPS > 260 {
		t.Errorf("%s: total = %g GFLOPS, want ~254", label, resp.TotalGFLOPS)
	}
	ref := resp.Reference
	if ref == nil {
		t.Fatalf("%s: no reference baselines", label)
	}
	if ref.EvenGFLOPS < 135 || ref.EvenGFLOPS > 145 {
		t.Errorf("%s: even = %g GFLOPS, want ~140", label, ref.EvenGFLOPS)
	}
	if ref.NodePerAppGFLOPS < 123 || ref.NodePerAppGFLOPS > 133 {
		t.Errorf("%s: node-per-app = %g GFLOPS, want ~128", label, ref.NodePerAppGFLOPS)
	}
	if !(resp.TotalGFLOPS > ref.EvenGFLOPS && ref.EvenGFLOPS > ref.NodePerAppGFLOPS) {
		t.Errorf("%s: ranking broken: %g / %g / %g", label, resp.TotalGFLOPS, ref.EvenGFLOPS, ref.NodePerAppGFLOPS)
	}
}

// faultyClient builds a client whose transport injects a seeded fault
// storm on idempotent paths (register is spared — a blind retry there
// would duplicate the app and change the demand mix).
func faultyClient(baseURL string, seed int64) (*client.Client, *faultinject.Injector) {
	inj := faultinject.NewInjector(faultinject.Seeded(seed, faultinject.Mix{
		Drop:       0.05,
		Latency:    0.20,
		Truncate:   0.05,
		Err5xx:     0.10,
		MaxLatency: 5 * time.Millisecond,
	}))
	c := client.New(baseURL, client.Config{
		HTTPClient: &http.Client{Transport: &faultinject.Transport{
			Inj:    inj,
			Filter: func(r *http.Request) bool { return r.URL.Path != "/v1/register" },
		}},
		MaxAttempts:    6,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
	})
	return c, inj
}

// TestChaosKillRestartRecovery is the acceptance scenario: register the
// Table I mix under an injected fault storm, kill the daemon
// mid-workload, restart on the same state dir and address, and verify
// the registry (an app's class and move round included), generations,
// and the 254/140/128 ranking all survive. The clients hold their apps'
// answers across the crash: the restarted daemon is a new incarnation,
// so the first heartbeat of each is a full answer at its version, never
// a 204.
func TestChaosKillRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	clock := faultinject.NewSkewedClock(nil)
	d := startChaosDaemon(t, dir, "", clock, 30*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Phase 1: the workload, under faults.
	reqs := tableIRequests()
	reqs[3].Priority, reqs[3].MovedRound = ctrlplane.PriorityLatency, 7 // the fleet's state rides the record
	apps := make([]*client.Client, len(reqs))
	ids := make([]string, len(reqs))
	var inj *faultinject.Injector
	for i, req := range reqs {
		apps[i], inj = faultyClient(d.url(), int64(1000+i))
		resp, err := apps[i].Register(ctx, req)
		if err != nil {
			t.Fatalf("register %s: %v", req.Name, err)
		}
		ids[i] = resp.ID
	}
	for round := 0; round < 3; round++ {
		for i := range apps {
			if _, err := apps[i].Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: ids[i], Workers: 4}); err != nil {
				t.Fatalf("heartbeat %s round %d: %v", ids[i], round, err)
			}
		}
	}
	live, err := apps[0].Allocations(ctx)
	if err != nil {
		t.Fatalf("live allocations: %v", err)
	}
	assertTableIRanking(t, live, "live before crash")
	genBeforeCrash := live.Generation
	if m, err := client.New(d.url(), client.Config{}).Metrics(ctx); err != nil || m.Table.Held == 0 {
		t.Fatalf("metrics before the crash: %+v, %v; want heartbeats answered held", m, err)
	}

	// Phase 2: crash, then restart with the same state dir on the same
	// address.
	d.kill()
	d2 := startChaosDaemon(t, dir, d.addr, clock, 30*time.Second)
	if d2.srv.RestoredApps() != 4 {
		t.Fatalf("restored %d apps, want 4", d2.srv.RestoredApps())
	}
	// Old IDs keep working: heartbeats land without re-registration, each
	// a full answer at the restarted daemon's version.
	_, genAfterRestart := d2.srv.Registry().Version()
	for i := range apps {
		hb, err := apps[i].Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: ids[i], Workers: 4})
		if err != nil {
			t.Fatalf("heartbeat %s after restart: %v", ids[i], err)
		}
		if hb.Generation != genAfterRestart || hb.Allocation == nil {
			t.Errorf("heartbeat %s after restart: %+v, want an allocation at generation %d", ids[i], hb, genAfterRestart)
		}
	}
	if m, err := client.New(d2.url(), client.Config{}).Metrics(ctx); err != nil || m.Table.Held != 0 {
		t.Errorf("metrics after the first heartbeats since the restart: %+v, %v; want none answered held", m, err)
	}
	recovered, err := apps[0].Allocations(ctx)
	if err != nil {
		t.Fatalf("allocations after restart: %v", err)
	}
	assertTableIRanking(t, recovered, "live after restart")
	st, err := client.New(d2.url(), client.Config{}).State(ctx, ctrlplane.StateQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if i := slices.IndexFunc(st.Apps, func(a ctrlplane.AppView) bool { return a.ID == ids[3] }); i < 0 ||
		st.Apps[i].Priority != reqs[3].Priority || st.Apps[i].MovedRound != reqs[3].MovedRound {
		t.Errorf("state after restart %+v: want %s in class %q, moved in round %d", st.Apps, ids[3], reqs[3].Priority, reqs[3].MovedRound)
	}
	if recovered.Generation < genBeforeCrash {
		t.Errorf("generation regressed across restart: %d -> %d", genBeforeCrash, recovered.Generation)
	}
	lastGen := recovered.Generation

	// Phase 3: churn after recovery stays monotonic and reallocates.
	if err := apps[3].Deregister(ctx, ids[3]); err != nil {
		t.Fatalf("deregister comp: %v", err)
	}
	after, err := apps[0].WaitForReallocation(ctx, lastGen, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("waiting for reallocation: %v", err)
	}
	if after.Generation <= lastGen {
		t.Errorf("generation after deregister = %d, want > %d", after.Generation, lastGen)
	}
	if len(after.Apps) != 3 {
		t.Errorf("%d apps after deregister, want 3", len(after.Apps))
	}

	// The storm must actually have stormed.
	counts := inj.Counts()
	injected := counts[faultinject.KindDrop] + counts[faultinject.KindLatency] +
		counts[faultinject.KindTruncate] + counts[faultinject.Kind5xx]
	if injected == 0 {
		t.Error("fault injector never fired; the chaos test ran without chaos")
	}
}

// TestChaosClockSkewEviction: a clock-skewed TTL expiry evicts a silent
// app; its next heartbeat gets the typed unknown_app error and the app
// registers again under a fresh ID. Generations never regress through
// eviction + re-registration.
func TestChaosClockSkewEviction(t *testing.T) {
	dir := t.TempDir()
	clock := faultinject.NewSkewedClock(nil)
	d := startChaosDaemon(t, dir, "", clock, 500*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	c := client.New(d.url(), client.Config{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	req := ctrlplane.RegisterRequest{Name: "skewed", AI: 1}
	reg, err := c.Register(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	firstID := reg.ID
	genSeen := reg.Generation

	// Jump the daemon's clock far past the TTL: the app has "missed"
	// its deadline without any real time passing.
	clock.Skew(time.Hour)
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatalf("health during skew: %v", err)
		}
		if h.Apps == 0 {
			if h.Generation < genSeen {
				t.Errorf("generation regressed during eviction: %d -> %d", genSeen, h.Generation)
			}
			genSeen = h.Generation
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never evicted the skewed app")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The heartbeat hits unknown_app, and the app registers again.
	if _, err := c.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: firstID}); !client.IsUnknownApp(err) {
		t.Fatalf("heartbeat across eviction: %v, want unknown_app", err)
	}
	again, err := c.Register(ctx, req)
	if err != nil {
		t.Fatalf("re-registering after eviction: %v", err)
	}
	if again.ID == firstID || again.ID == "" {
		t.Errorf("id after eviction = %q, want a fresh one (was %q)", again.ID, firstID)
	}
	if _, err := c.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: again.ID}); err != nil {
		t.Fatalf("heartbeat under the fresh id: %v", err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Apps != 1 {
		t.Errorf("apps after re-register = %d, want 1", h.Apps)
	}
	if h.Generation < genSeen {
		t.Errorf("generation regressed after re-register: %d -> %d", genSeen, h.Generation)
	}

	// And the re-registered app survives a daemon restart.
	d.kill()
	d2 := startChaosDaemon(t, dir, d.addr, clock, 500*time.Millisecond)
	if d2.srv.RestoredApps() != 1 {
		t.Errorf("restored %d apps, want the re-registered one", d2.srv.RestoredApps())
	}
	h2, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("health after restart: %v", err)
	}
	if h2.Generation < h.Generation {
		t.Errorf("generation regressed across restart: %d -> %d", h.Generation, h2.Generation)
	}
}

// TestChaosServerSideFaultStorm: the daemon itself misbehaves (injected
// server-side 5xx bursts, latency, truncation) and the plain client's
// retry + jittered backoff still lands every exchange.
func TestChaosServerSideFaultStorm(t *testing.T) {
	store, err := persist.Open(t.TempDir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{
		Machine: machine.PaperModel(),
		Store:   store,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.NewInjector(faultinject.Seeded(7, faultinject.Mix{
		Drop:       0.08,
		Latency:    0.20,
		Truncate:   0.08,
		Err5xx:     0.14,
		MaxLatency: 5 * time.Millisecond,
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Register is spared, same as on the client side: a server-side drop
	// or truncation after the registry committed would make the client's
	// retry duplicate the app and change the demand mix.
	base := srv.Handler()
	stormy := faultinject.Middleware(inj, base)
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/register" {
			base.ServeHTTP(w, r)
			return
		}
		stormy.ServeHTTP(w, r)
	})}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close(); srv.Close() })

	c := client.New("http://"+ln.Addr().String(), client.Config{
		MaxAttempts: 8,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var ids []string
	for _, req := range tableIRequests() {
		resp, err := c.Register(ctx, req)
		if err != nil {
			t.Fatalf("register %s through the storm: %v", req.Name, err)
		}
		ids = append(ids, resp.ID)
	}
	for round := 0; round < 5; round++ {
		for _, id := range ids {
			if _, err := c.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: id}); err != nil {
				t.Fatalf("heartbeat %s through the storm: %v", id, err)
			}
		}
	}
	alloc, err := c.Allocations(ctx)
	if err != nil {
		t.Fatalf("allocations through the storm: %v", err)
	}
	assertTableIRanking(t, alloc, "through server-side storm")
	if counts := inj.Counts(); counts[faultinject.Kind5xx] == 0 && counts[faultinject.KindDrop] == 0 {
		t.Errorf("storm too gentle to mean anything: %v", counts)
	}
}
