package ctrlplane

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
)

// TestSolveCachedNoAllocs pins the allocation-free steady-state serve
// path: once the demand mix is cached, SolveInto into a warm Solution
// must not touch the heap.
func TestSolveCachedNoAllocs(t *testing.T) {
	m := machine.PaperModel()
	apps := tableIMix()
	s, err := NewSolver(PolicyRoofline)
	if err != nil {
		t.Fatal(err)
	}
	sol := &Solution{}
	if err := s.SolveInto(sol, m, apps); err != nil {
		t.Fatal(err)
	}
	if sol.FromCache {
		t.Fatal("first solve should miss")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.SolveInto(sol, m, apps); err != nil {
			t.Fatal(err)
		}
		if !sol.FromCache {
			t.Fatal("warm solve should hit the cache")
		}
	})
	if allocs > 0 {
		t.Errorf("cached SolveInto allocates %.2f objects/op, want 0", allocs)
	}
}

// mixForAI is a single-app demand mix whose cache key is unique per AI.
func mixForAI(i int) []AppState {
	return []AppState{{
		ID:   fmt.Sprintf("app-%d", i),
		Spec: AppSpec{Name: "app", AI: 0.25 + float64(i)*0.001},
	}}
}

// TestLRUEviction replaces the old flush-all behaviour test: cycling
// past maxCacheEntries evicts only the least-recently-used keys, and a
// touched entry survives a full wave of inserts that would have flushed
// everything before.
func TestLRUEviction(t *testing.T) {
	m := machine.PaperModel()
	s, err := NewSolver(PolicyRoofline)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(i int) {
		t.Helper()
		if _, err := s.Solve(m, mixForAI(i)); err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
	}

	solve(0) // the entry we keep alive
	for i := 1; i < maxCacheEntries; i++ {
		solve(i)
	}
	if got := s.Metrics().Entries; got != maxCacheEntries {
		t.Fatalf("entries = %d, want %d", got, maxCacheEntries)
	}

	// Touch entry 0, then push maxCacheEntries-1 fresh keys through: the
	// touched entry must survive while the untouched middle is evicted.
	before := s.Metrics()
	solve(0)
	if got := s.Metrics().Hits; got != before.Hits+1 {
		t.Fatalf("touching entry 0 should hit, hits = %d, want %d", got, before.Hits+1)
	}
	for i := maxCacheEntries; i < 2*maxCacheEntries-1; i++ {
		solve(i)
	}
	if got := s.Metrics().Entries; got != maxCacheEntries {
		t.Fatalf("entries after cycling = %d, want %d", got, maxCacheEntries)
	}
	hitsBefore := s.Metrics().Hits
	solve(0)
	if got := s.Metrics().Hits; got != hitsBefore+1 {
		t.Errorf("recently-touched entry was evicted (hits = %d, want %d)", got, hitsBefore+1)
	}
	missesBefore := s.Metrics().Misses
	solve(1) // inserted first after 0, never touched: must be gone
	if got := s.Metrics().Misses; got != missesBefore+1 {
		t.Errorf("LRU entry 1 should have been evicted (misses = %d, want %d)", got, missesBefore+1)
	}
}

// TestSingleflightCoalesces holds the first solve of a key in flight
// while concurrent identical requests arrive: exactly one solve runs,
// the rest join it (Coalesced) and return its result.
func TestSingleflightCoalesces(t *testing.T) {
	m := machine.PaperModel()
	apps := tableIMix()
	s, err := NewSolver(PolicyRoofline)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s.testSolveDelay = func() { <-release }

	const followers = 7
	var wg sync.WaitGroup
	results := make([]*Solution, followers+1)
	errs := make([]error, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Solve(m, apps)
		}(i)
	}

	// Wait until every follower has parked on the in-flight call, then
	// release the leader.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Coalesced != followers {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d, want %d before release", s.Metrics().Coalesced, followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	met := s.Metrics()
	if met.Misses != 1 {
		t.Errorf("misses = %d, want 1 (one leader solve)", met.Misses)
	}
	if met.Coalesced != followers {
		t.Errorf("coalesced = %d, want %d", met.Coalesced, followers)
	}
	fromCache := 0
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("solve %d: %v", i, errs[i])
		}
		if r.FromCache {
			fromCache++
		}
		if r.TotalGFLOPS != results[0].TotalGFLOPS {
			t.Errorf("solve %d total %v differs from leader %v", i, r.TotalGFLOPS, results[0].TotalGFLOPS)
		}
	}
	if fromCache != followers {
		t.Errorf("%d solves reported FromCache, want %d (all but the leader)", fromCache, followers)
	}
}

// TestTopologyHashStability checks the field-walking hash: identical
// topologies agree, and every field (and the nil-vs-zero link matrix
// distinction) feeds the fingerprint.
func TestTopologyHashStability(t *testing.T) {
	base := func() *machine.Machine { return machine.Uniform("m", 2, 4, 10, 32, 8) }
	if TopologyHash(base()) != TopologyHash(base()) {
		t.Error("identical machines must hash equal")
	}
	seen := map[uint64]string{TopologyHash(base()): "base"}
	variants := map[string]*machine.Machine{
		"renamed":    machine.Uniform("m2", 2, 4, 10, 32, 8),
		"more-cores": machine.Uniform("m", 2, 5, 10, 32, 8),
		"more-peak":  machine.Uniform("m", 2, 4, 11, 32, 8),
		"more-bw":    machine.Uniform("m", 2, 4, 10, 33, 8),
		"more-link":  machine.Uniform("m", 2, 4, 10, 32, 9),
		"no-links":   machine.Uniform("m", 2, 4, 10, 32, 0),
		"3-nodes":    machine.Uniform("m", 3, 4, 10, 32, 8),
	}
	zeroLinks := machine.Uniform("m", 2, 4, 10, 32, 0)
	zeroLinks.LinkBandwidth = [][]float64{{0, 0}, {0, 0}}
	variants["zero-links"] = zeroLinks
	for name, m := range variants {
		h := TopologyHash(m)
		if prev, dup := seen[h]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[h] = name
	}
}

// TestServerServeScratchNoAllocs drives the server's pooled serve path
// directly: with the registry populated and the solver warm, resolving
// an application's allocation into scratch performs no heap allocations.
func TestServerServeScratchNoAllocs(t *testing.T) {
	srv, err := NewServer(ServerConfig{Machine: machine.PaperModel()})
	if err != nil {
		t.Fatal(err)
	}
	specs := []AppSpec{
		{Name: "mem-a", AI: 0.5},
		{Name: "mem-b", AI: 0.5},
		{Name: "mem-c", AI: 0.5},
		{Name: "comp", AI: 10},
	}
	var lastID string
	for _, spec := range specs {
		st, _, err := srv.reg.Register(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		lastID = st.ID
	}
	sc := srv.serve.Get()
	defer srv.serve.Put(sc)
	alloc, _, err := srv.allocationInto(sc, lastID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if alloc == nil || alloc.Threads == 0 {
		t.Fatalf("warmup allocation = %+v, want a non-empty slice for %s", alloc, lastID)
	}
	allocs := testing.AllocsPerRun(200, func() {
		a, _, err := srv.allocationInto(sc, lastID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a == nil {
			t.Fatal("allocation vanished")
		}
	})
	if allocs > 0 {
		t.Errorf("warm allocationInto allocates %.2f objects/op, want 0", allocs)
	}
}
