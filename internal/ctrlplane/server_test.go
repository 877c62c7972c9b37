package ctrlplane_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/ctrlplane/persist"
	"repro/internal/machine"
)

// startServer runs a control-plane server on an ephemeral port and
// returns a typed client for it.
func startServer(t *testing.T, cfg ctrlplane.ServerConfig) (*ctrlplane.Server, *client.Client) {
	t.Helper()
	if cfg.Machine == nil {
		cfg.Machine = machine.PaperModel()
	}
	srv, err := ctrlplane.NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	srv.Start()
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, client.New(hs.URL, client.Config{
		MaxAttempts: 2,
		BaseBackoff: 5 * time.Millisecond,
	})
}

// registerTableIMix registers the paper's Table I demand mix (three
// memory-bound apps at AI 0.5 and one compute-bound at AI 10) and
// returns the assigned IDs.
func registerTableIMix(t *testing.T, c *client.Client) []string {
	t.Helper()
	ctx := context.Background()
	reqs := []ctrlplane.RegisterRequest{
		{Name: "mem-a", AI: 0.5},
		{Name: "mem-b", AI: 0.5},
		{Name: "mem-c", AI: 0.5},
		{Name: "comp", AI: 10},
	}
	ids := make([]string, len(reqs))
	for i, r := range reqs {
		resp, err := c.Register(ctx, r)
		if err != nil {
			t.Fatalf("register %s: %v", r.Name, err)
		}
		if resp.ID == "" {
			t.Fatalf("register %s: empty id", r.Name)
		}
		ids[i] = resp.ID
	}
	return ids
}

func almost(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("%s = %.6f, want %.6f", what, got, want)
	}
}

// TestEndToEndPaperRanking drives the full loop the issue asks for: the
// server on an ephemeral port serves, through the client, allocations
// that reproduce the paper's uneven=254 / even=140 / node-per-app=128
// GFLOPS ranking for the Table I/II demand mixes.
func TestEndToEndPaperRanking(t *testing.T) {
	_, c := startServer(t, ctrlplane.ServerConfig{})
	ctx := context.Background()
	ids := registerTableIMix(t, c)

	alloc, err := c.Allocations(ctx)
	if err != nil {
		t.Fatalf("allocations: %v", err)
	}
	// Served allocation = the paper's Table I uneven optimum: 254
	// GFLOPS total, compute-bound app on 5 threads per node.
	almost(t, "served total GFLOPS", alloc.TotalGFLOPS, 254)
	if alloc.Reference == nil {
		t.Fatal("no reference allocations in response")
	}
	almost(t, "even baseline (Table II)", alloc.Reference.EvenGFLOPS, 140)
	almost(t, "node-per-app baseline", alloc.Reference.NodePerAppGFLOPS, 128)
	if !(alloc.TotalGFLOPS > alloc.Reference.EvenGFLOPS &&
		alloc.Reference.EvenGFLOPS > alloc.Reference.NodePerAppGFLOPS) {
		t.Errorf("ranking not reproduced: uneven %.1f, even %.1f, node-per-app %.1f",
			alloc.TotalGFLOPS, alloc.Reference.EvenGFLOPS, alloc.Reference.NodePerAppGFLOPS)
	}

	byID := map[string]ctrlplane.AppAllocation{}
	for _, a := range alloc.Apps {
		byID[a.ID] = a
	}
	for i, id := range ids[:3] {
		a := byID[id]
		if a.Threads != 4 {
			t.Errorf("mem app %d threads = %d (%v), want 4 (1 per node)", i, a.Threads, a.PerNode)
		}
		almost(t, "mem app GFLOPS", a.PredictedGFLOPS, 18) // 4 threads x 4.5 GFLOPS
	}
	comp := byID[ids[3]]
	if comp.Threads != 20 {
		t.Errorf("comp app threads = %d (%v), want 20 (5 per node)", comp.Threads, comp.PerNode)
	}
	almost(t, "comp app GFLOPS", comp.PredictedGFLOPS, 200)

	// The register response itself carries the app's slice.
	resp, err := c.Register(ctx, ctrlplane.RegisterRequest{Name: "late", AI: 0.5})
	if err != nil {
		t.Fatalf("late register: %v", err)
	}
	if resp.Allocation == nil || resp.Allocation.Threads == 0 {
		t.Errorf("late register got no allocation: %+v", resp.Allocation)
	}
}

// TestHeartbeatEviction checks the liveness path end to end: a silent
// app is evicted after its heartbeat deadline and its cores are
// reallocated to the survivor.
func TestHeartbeatEviction(t *testing.T) {
	_, c := startServer(t, ctrlplane.ServerConfig{
		DefaultTTL:    100 * time.Millisecond,
		SweepInterval: 20 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	comp, err := c.Register(ctx, ctrlplane.RegisterRequest{Name: "survivor", AI: 10})
	if err != nil {
		t.Fatalf("register survivor: %v", err)
	}
	mem, err := c.Register(ctx, ctrlplane.RegisterRequest{Name: "silent", AI: 0.5})
	if err != nil {
		t.Fatalf("register silent: %v", err)
	}

	before, err := c.Allocations(ctx)
	if err != nil {
		t.Fatalf("allocations: %v", err)
	}
	if len(before.Apps) != 2 {
		t.Fatalf("apps before eviction = %d, want 2", len(before.Apps))
	}
	var survivorBefore int
	for _, a := range before.Apps {
		if a.ID == comp.ID {
			survivorBefore = a.Threads
		}
	}

	// Keep the survivor alive; let "silent" miss its deadline.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				c.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: comp.ID, Workers: 8})
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	after, err := c.WaitForReallocation(ctx, before.Generation, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("waiting for eviction: %v", err)
	}
	if len(after.Apps) != 1 || after.Apps[0].ID != comp.ID {
		t.Fatalf("apps after eviction = %+v, want only %s", after.Apps, comp.ID)
	}
	if after.Apps[0].Threads <= survivorBefore {
		t.Errorf("survivor threads = %d, want > %d (reclaimed the evicted app's cores)",
			after.Apps[0].Threads, survivorBefore)
	}
	// The machine is now all the survivor's: 8 threads on each of the
	// 4 nodes, 320 GFLOPS at peak.
	if after.Apps[0].Threads != 32 {
		t.Errorf("survivor threads = %d, want 32", after.Apps[0].Threads)
	}
	almost(t, "survivor GFLOPS", after.TotalGFLOPS, 320)

	// The evicted app's heartbeat is refused: it must re-register.
	_, err = c.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: mem.ID})
	if !client.IsNotFound(err) {
		t.Errorf("heartbeat after eviction: err = %v, want 404", err)
	}
	// A deregister of the evicted app 404s too.
	if err := c.Deregister(ctx, mem.ID); !client.IsNotFound(err) {
		t.Errorf("deregister after eviction: err = %v, want 404", err)
	}
}

// TestZeroApps: an empty registry serves an empty allocation table, not
// an error (the paper's agent panics without clients; the service must
// not).
func TestZeroApps(t *testing.T) {
	_, c := startServer(t, ctrlplane.ServerConfig{})
	alloc, err := c.Allocations(context.Background())
	if err != nil {
		t.Fatalf("allocations with no apps: %v", err)
	}
	if len(alloc.Apps) != 0 || alloc.TotalGFLOPS != 0 {
		t.Errorf("empty registry allocation = %+v", alloc)
	}
}

// TestMaxThreadsCap: a single app demanding more threads than the
// machine has cores is served the machine, never more; an explicit cap
// trims the allocation.
func TestMaxThreadsCap(t *testing.T) {
	_, c := startServer(t, ctrlplane.ServerConfig{})
	ctx := context.Background()

	resp, err := c.Register(ctx, ctrlplane.RegisterRequest{Name: "greedy", AI: 10, MaxThreads: 1000})
	if err != nil {
		t.Fatalf("register greedy: %v", err)
	}
	if resp.Allocation.Threads != 32 {
		t.Errorf("greedy threads = %d, want 32 (whole machine, not 1000)", resp.Allocation.Threads)
	}
	if err := c.Deregister(ctx, resp.ID); err != nil {
		t.Fatalf("deregister: %v", err)
	}

	capped, err := c.Register(ctx, ctrlplane.RegisterRequest{Name: "capped", AI: 10, MaxThreads: 3})
	if err != nil {
		t.Fatalf("register capped: %v", err)
	}
	if capped.Allocation.Threads != 3 {
		t.Errorf("capped threads = %d (%v), want 3", capped.Allocation.Threads, capped.Allocation.PerNode)
	}
}

// TestRegisterValidation: a registration coopd refuses gets a 400
// naming what is wrong instead of solving something else: a misspelt
// placement is not numa-perfect, a negative thread cap is not
// "uncapped".
func TestRegisterValidation(t *testing.T) {
	_, c := startServer(t, ctrlplane.ServerConfig{})
	ctx := context.Background()
	for _, tc := range []struct {
		req  ctrlplane.RegisterRequest
		want string // the 400 message; "" registers
	}{
		{ctrlplane.RegisterRequest{Name: "no-ai"}, "ai must be > 0, got 0"},
		{ctrlplane.RegisterRequest{Name: "neg-ai", AI: -1}, "ai must be > 0, got -1"},
		{ctrlplane.RegisterRequest{Name: "typo", AI: 1, Placement: "numa_bad"}, `unknown placement "numa_bad" (want "numa-perfect" or "numa-bad")`},
		{ctrlplane.RegisterRequest{Name: "bad-home", AI: 1, Placement: ctrlplane.PlacementBad, HomeNode: 9}, "home_node 9 out of range (machine has 4 nodes)"},
		{ctrlplane.RegisterRequest{Name: "neg-max", AI: 1, MaxThreads: -3}, "max_threads must be >= 0, got -3"},
		{ctrlplane.RegisterRequest{Name: strings.Repeat("n", ctrlplane.MaxNameBytes+1), AI: 1}, "name is 257 bytes, limit 256"},
		{ctrlplane.RegisterRequest{Name: "classy", AI: 1, Priority: "urgent"}, `unknown priority "urgent" (want "system", "latency" or "batch")`},
		{ctrlplane.RegisterRequest{AI: 1, Placement: ctrlplane.PlacementBad, HomeNode: 3, MaxThreads: 2}, ""},
		{ctrlplane.RegisterRequest{AI: 1, Priority: ctrlplane.PriorityLatency}, ""},
		{ctrlplane.RegisterRequest{AI: 1, MovedRound: math.MaxUint64}, ""}, // stored verbatim, never read
	} {
		resp, err := c.Register(ctx, tc.req)
		var ae *client.APIError
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("register %+v: %v", tc.req, err)
		case tc.want == "":
			if err := c.Deregister(ctx, resp.ID); err != nil {
				t.Fatal(err)
			}
		case !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Message != tc.want:
			t.Errorf("register %.20s: err %v, want 400 %q", tc.req.Name, err, tc.want)
		}
	}
	if _, err := c.Register(ctx, ctrlplane.RegisterRequest{Name: "neg-ttl", AI: 1, TTLMillis: -5}); err == nil {
		t.Error("register with a negative ttl_ms: expected an error")
	}
	if n, err := c.State(ctx, ctrlplane.StateQuery{}); err != nil || len(n.Apps) != 0 {
		t.Errorf("registry not empty after rejected registrations: %v apps, err %v", len(n.Apps), err)
	}
}

// TestRegisterNameCap: a name is carried verbatim into every journal
// line and replicated record, so its size is capped at the door: at the
// limit it registers, one byte over is a 400 that states the limit.
func TestRegisterNameCap(t *testing.T) {
	_, c := startServer(t, ctrlplane.ServerConfig{})
	ctx := context.Background()
	if _, err := c.Register(ctx, ctrlplane.RegisterRequest{Name: strings.Repeat("n", ctrlplane.MaxNameBytes), AI: 1}); err != nil {
		t.Fatalf("register with a %d-byte name: %v", ctrlplane.MaxNameBytes, err)
	}
	_, err := c.Register(ctx, ctrlplane.RegisterRequest{Name: strings.Repeat("n", ctrlplane.MaxNameBytes+1), AI: 1})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || !strings.Contains(ae.Message, "limit 256") {
		t.Fatalf("register with a %d-byte name: err = %v, want 400 naming the limit", ctrlplane.MaxNameBytes+1, err)
	}
	if n, err := c.State(ctx, ctrlplane.StateQuery{}); err != nil || len(n.Apps) != 1 {
		t.Errorf("apps after the refused registration: %v, err %v", n, err)
	}
}

// TestJournalFailureOnTheWire: with the state dir gone bad (here: the
// store closed under the server) a registration is refused with 503 and
// leaves nothing behind, a deregistration is still served, and both
// failures show in /metricsz.
func TestJournalFailureOnTheWire(t *testing.T) {
	store, err := persist.Open(t.TempDir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, c := startServer(t, ctrlplane.ServerConfig{Store: store})
	ctx := context.Background()
	ok, err := c.Register(ctx, ctrlplane.RegisterRequest{Name: "durable", AI: 1})
	if err != nil {
		t.Fatal(err)
	}
	store.Close()

	_, err = c.Register(ctx, ctrlplane.RegisterRequest{Name: "unpersistable", AI: 1})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("register with a failing journal: err = %v, want 503", err)
	}
	if apps, err := c.State(ctx, ctrlplane.StateQuery{}); err != nil || len(apps.Apps) != 1 || apps.Apps[0].ID != ok.ID {
		t.Errorf("apps after the refused registration: %+v, err %v", apps, err)
	}
	if err := c.Deregister(ctx, ok.ID); err != nil {
		t.Errorf("deregister with a failing journal: %v", err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// 2 attempts at the registration (the client retries a 503 once) + 1
	// deregistration.
	if m.Apps != 0 || m.Persist == nil || m.Persist.Failures != 3 {
		t.Errorf("metrics after journal failures: apps %d, persist %+v, want 0 apps and 3 failures", m.Apps, m.Persist)
	}
}

// TestNUMABadPlacement: a numa-bad app registers with a home node and
// the placement survives to the allocation.
func TestNUMABadPlacement(t *testing.T) {
	_, c := startServer(t, ctrlplane.ServerConfig{Machine: machine.PaperModelNUMABad()})
	ctx := context.Background()
	_, err := c.Register(ctx, ctrlplane.RegisterRequest{
		Name: "bad", AI: 1, Placement: ctrlplane.PlacementBad, HomeNode: 0,
	})
	if err != nil {
		t.Fatalf("register numa-bad: %v", err)
	}
	apps, err := c.State(ctx, ctrlplane.StateQuery{})
	if err != nil {
		t.Fatalf("apps: %v", err)
	}
	if len(apps.Apps) != 1 || apps.Apps[0].Placement != ctrlplane.PlacementBad {
		t.Errorf("apps = %+v, want one numa-bad app", apps.Apps)
	}
	alloc, err := c.Allocations(ctx)
	if err != nil {
		t.Fatalf("allocations: %v", err)
	}
	if alloc.TotalGFLOPS <= 0 {
		t.Errorf("numa-bad app served %g GFLOPS", alloc.TotalGFLOPS)
	}
}

// TestMetricsAndHealth: the observability endpoints report requests,
// cache activity, search work, and liveness.
func TestMetricsAndHealth(t *testing.T) {
	_, c := startServer(t, ctrlplane.ServerConfig{})
	ctx := context.Background()
	ids := registerTableIMix(t, c)
	for i := 0; i < 3; i++ {
		if _, err := c.Allocations(ctx); err != nil {
			t.Fatalf("allocations: %v", err)
		}
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if h.Status != "ok" || h.Apps != 4 {
		t.Errorf("health = %+v, want ok with 4 apps", h)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if reg := m.Endpoints["register"]; reg.Count != 4 || reg.Errors != 0 {
		t.Errorf("register endpoint metrics = %+v, want 4 requests, 0 errors", reg)
	}
	if al := m.Endpoints["allocations"]; al.Count != 3 || al.P95Ms < al.P50Ms {
		t.Errorf("allocations endpoint metrics = %+v", al)
	}
	// 4 registers solve the growing demand sets; the first allocation
	// read solves the last of them again (a cache hit) and installs the
	// served table, which answers the other two without the solver.
	if m.Solver.Hits < 1 {
		t.Errorf("solver cache hits = %d, want >= 1", m.Solver.Hits)
	}
	if want := (ctrlplane.TableMetrics{Hits: 2, Solves: 1}); m.Table != want {
		t.Errorf("table = %+v, want %+v", m.Table, want)
	}
	// Every miss ran one search, each scoring a leaf at least; the
	// multi-app ones bounded their subtrees, and cut some that could at
	// best tie an earlier leaf (a bound call each).
	if sc := m.SolverSearch; sc.Solves != m.Solver.Misses || sc.Leaves < sc.Solves || sc.Bounds == 0 || sc.Ties == 0 || sc.Ties > sc.Bounds {
		t.Errorf("solver_search = %+v, want %d solves with a leaf each, some bound calls and some tie cuts among them", sc, m.Solver.Misses)
	}

	// A client's first heartbeat of an app is a full answer from the
	// table; its second presents that answer, which stands, and is
	// counted held. A fresh client presents nothing.
	fresh := client.New(c.BaseURL(), client.Config{})
	for i, step := range []struct {
		cli  *client.Client
		want ctrlplane.TableMetrics
	}{
		{c, ctrlplane.TableMetrics{Hits: 3, Solves: 1}},
		{c, ctrlplane.TableMetrics{Hits: 3, Solves: 1, Held: 1}},
		{fresh, ctrlplane.TableMetrics{Hits: 4, Solves: 1, Held: 1}},
	} {
		if _, err := step.cli.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: ids[0]}); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
		if m, err = c.Metrics(ctx); err != nil {
			t.Fatalf("metrics: %v", err)
		}
		if m.Table != step.want {
			t.Errorf("table after heartbeat %d = %+v, want %+v", i, m.Table, step.want)
		}
	}
}

// TestCacheAcrossPermutation: the solver cache is keyed by the sorted
// demand multiset, so registering an equivalent mix in a different
// order is a hit, not a new solve.
func TestCacheAcrossPermutation(t *testing.T) {
	srv, c := startServer(t, ctrlplane.ServerConfig{})
	ctx := context.Background()
	ids := registerTableIMix(t, c)
	if _, err := c.Allocations(ctx); err != nil {
		t.Fatal(err)
	}
	m0, _ := c.Metrics(ctx)

	// Re-register the same mix in reverse order.
	for _, id := range ids {
		if err := c.Deregister(ctx, id); err != nil {
			t.Fatalf("deregister %s: %v", id, err)
		}
	}
	for _, r := range []ctrlplane.RegisterRequest{
		{Name: "comp2", AI: 10},
		{Name: "mem-z", AI: 0.5},
		{Name: "mem-y", AI: 0.5},
		{Name: "mem-x", AI: 0.5},
	} {
		if _, err := c.Register(ctx, r); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	alloc, err := c.Allocations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !alloc.CacheHit {
		t.Error("permuted equivalent mix missed the cache")
	}
	almost(t, "permuted mix total", alloc.TotalGFLOPS, 254)
	m1, _ := c.Metrics(ctx)
	// The full 4-app solve happened once: re-registering the permuted
	// mix added no misses for the complete set (intermediate partial
	// sets do miss).
	if m1.Solver.Misses-m0.Solver.Misses > 3 {
		t.Errorf("permuted mix added %d cache misses", m1.Solver.Misses-m0.Solver.Misses)
	}
	_ = srv
}

// TestConcurrentRegistryStress hammers register/heartbeat/deregister
// concurrently through real HTTP and one client; run under -race this is
// the concurrency certification of the registry, the solver and the
// client's held heartbeat answers.
func TestConcurrentRegistryStress(t *testing.T) {
	_, c := startServer(t, ctrlplane.ServerConfig{
		Policy:        ctrlplane.PolicyFairShare, // cheap solves: stress the locking, not the optimizer
		DefaultTTL:    50 * time.Millisecond,
		SweepInterval: 5 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const workers = 8
	const rounds = 20
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := c.Register(ctx, ctrlplane.RegisterRequest{
					Name: fmt.Sprintf("stress-%d", w),
					AI:   0.5 + float64(w%4),
				})
				if err != nil {
					errc <- fmt.Errorf("worker %d register: %w", w, err)
					return
				}
				for beat := 0; beat < 2; beat++ { // the second presents the answer the client holds
					if _, err := c.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: resp.ID, Workers: 4}); err != nil && !client.IsNotFound(err) {
						errc <- fmt.Errorf("worker %d heartbeat %d: %w", w, beat, err)
						return
					}
				}
				if _, err := c.Allocations(ctx); err != nil {
					errc <- fmt.Errorf("worker %d allocations: %w", w, err)
					return
				}
				// Half the apps deregister; the other half go silent
				// and are reaped by the janitor sweeping at 5ms.
				if i%2 == 0 {
					if err := c.Deregister(ctx, resp.ID); err != nil && !client.IsNotFound(err) {
						errc <- fmt.Errorf("worker %d deregister: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Everything left either deregistered or goes silent: the registry
	// must drain to empty once the TTLs pass.
	deadline := time.Now().Add(5 * time.Second)
	for {
		apps, err := c.State(ctx, ctrlplane.StateQuery{})
		if err != nil {
			t.Fatalf("apps: %v", err)
		}
		if len(apps.Apps) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry did not drain: %d apps left", len(apps.Apps))
		}
		time.Sleep(20 * time.Millisecond)
	}
}
