package ctrlplane

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"repro/internal/freelist"
	"repro/internal/machine"
	"repro/internal/roofline"
	"repro/internal/solvecache"
)

// Policy names accepted by NewSolver.
const (
	PolicyRoofline  = "roofline"
	PolicyFairShare = "fairshare"
)

// AppSolution is one application's computed slice, aligned with the
// []AppState passed to Solve.
type AppSolution struct {
	ID      string
	Name    string
	PerNode []int
	GFLOPS  float64
}

// Solution is a full solve outcome. SolveInto reuses its slices, so a
// pooled Solution makes the steady-state serve path allocation-free.
type Solution struct {
	PerApp      []AppSolution
	TotalGFLOPS float64
	// FromCache reports whether the roofline solve was skipped.
	FromCache bool
}

// cachedSolution is the solver's cache value: counts and rates per
// demand slot (the key's sorted segment order), so any permutation of
// equivalent apps maps onto it, plus the aggregate. Immutable once
// inserted (concurrent readers copy out of it without a lock).
type cachedSolution struct {
	counts [][]int
	gflops []float64
	total  float64
}

// Solver computes per-NUMA-node allocations and memoizes them in a
// solvecache.Cache (bounded LRU, singleflight collapsing of concurrent
// identical solves). It is safe for concurrent use.
type Solver struct {
	policy string
	// tag names what cached values were solved under. The roofline
	// policy is the total-GFLOPS objective, so it carries that
	// objective's name and coopd and fleetd derive the same key for the
	// same demand set.
	tag    string
	search roofline.Search
	cache  *solvecache.Cache[*cachedSolution]

	// keys holds the per-request key builders, so a steady-state
	// (cache-hit) solve allocates nothing.
	keys freelist.List[solvecache.Key]

	// Offers refused: made for another key, or failing validation. An
	// invalid offer means a bug or corruption upstream and is logged,
	// once per key digest (the set is bounded like the cache).
	stale, invalid atomic.Uint64
	loggedMu       sync.Mutex
	logged         map[uint64]struct{}

	// testSolveDelay, when set, runs between claiming a flight slot and
	// solving; tests use it to hold the leader while followers pile up.
	testSolveDelay func()
}

// maxCacheEntries bounds the memo (see solvecache.New).
const maxCacheEntries = 256

// NewSolver creates a solver for the named policy (PolicyRoofline or
// PolicyFairShare).
func NewSolver(policy string) (*Solver, error) {
	tag := policy
	switch policy {
	case PolicyRoofline:
		tag = roofline.ObjTotalGFLOPS.Name()
	case PolicyFairShare:
	default:
		return nil, fmt.Errorf("ctrlplane: unknown policy %q", policy)
	}
	return &Solver{
		policy: policy,
		tag:    tag,
		cache:  solvecache.New[*cachedSolution](maxCacheEntries),
	}, nil
}

// Policy returns the solver's policy name.
func (s *Solver) Policy() string { return s.policy }

// Metrics returns the cache's counters plus the offers this solver
// refused.
func (s *Solver) Metrics() SolverMetrics {
	c := s.cache.Counters()
	c.Stale, c.Invalid = s.stale.Load(), s.invalid.Load()
	return c
}

// TopologyHash is solvecache.TopologyHash, the machine fingerprint
// solutions are keyed by.
func TopologyHash(m *machine.Machine) uint64 { return solvecache.TopologyHash(m) }

// rooflineApp is the spec as the roofline model sees it.
func (s *AppSpec) rooflineApp() roofline.App {
	return roofline.App{Name: s.Name, AI: s.AI, Placement: s.Placement, HomeNode: s.HomeNode}
}

// demandKey builds the cache key of (m, apps) into k and returns it
// with the slot order: slot i of a cached solution belongs to
// apps[order[i]]. Apps with equal demand are interchangeable, so the
// lower ID takes the earlier slot to keep the mapping deterministic.
func (s *Solver) demandKey(k *solvecache.Key, m *machine.Machine, apps []AppState) (key []byte, order []int) {
	k.Reset(s.cache.TopologyHash(m), s.tag)
	for i := range apps {
		// Effective spec: a fitted (recalibrated) AI replaces the declared
		// one here, so a confirmed drift changes the cache key and the
		// next lookup is naturally a fresh solve.
		spec := apps[i].EffectiveSpec()
		app := spec.rooflineApp()
		k.Add(&app, spec.MaxThreads)
	}
	return k.Sort(func(i, j int) bool { return apps[i].ID < apps[j].ID })
}

// Key returns the cache key Solve files (m, apps) under.
func (s *Solver) Key(m *machine.Machine, apps []AppState) []byte {
	key, _ := s.demandKey(&solvecache.Key{}, m, apps)
	return key
}

// Solve computes the allocation for the registered applications on the
// machine into a fresh Solution. See SolveInto for the reusing variant.
func (s *Solver) Solve(m *machine.Machine, apps []AppState) (*Solution, error) {
	sol := &Solution{}
	if err := s.SolveInto(sol, m, apps); err != nil {
		return nil, err
	}
	return sol, nil
}

// SolveInto computes the allocation for the registered applications on
// the machine, reusing sol's slices. Apps with identical demand are
// interchangeable, so the cache is keyed by the sorted demand set;
// results are mapped back to the callers' order. A cache-hit solve into
// a warm Solution performs no heap allocations.
func (s *Solver) SolveInto(sol *Solution, m *machine.Machine, apps []AppState) error {
	return s.solveInto(sol, m, apps, nil)
}

// solveInto is SolveInto with an offered solve (nil: none), which a
// cache miss adopts instead of searching when it is of this very key
// and validates (see adopt).
func (s *Solver) solveInto(sol *Solution, m *machine.Machine, apps []AppState, offer *Solved) error {
	sol.PerApp = sol.PerApp[:0]
	sol.TotalGFLOPS = 0
	sol.FromCache = false
	if len(apps) == 0 {
		return nil
	}

	k := s.keys.Get()
	defer s.keys.Put(k)
	key, order := s.demandKey(k, m, apps)
	var adopt func() (*cachedSolution, bool)
	if offer != nil {
		adopt = func() (*cachedSolution, bool) { return s.adopt(m, apps, order, key, offer) }
	}
	cached, fromCache, err := s.cache.Do(key, nil, adopt, func() (*cachedSolution, error) {
		if s.testSolveDelay != nil {
			s.testSolveDelay()
		}
		return s.solveSlots(m, apps, order)
	})
	if err != nil {
		return err
	}

	n := len(apps)
	sol.TotalGFLOPS = cached.total
	sol.FromCache = fromCache
	if cap(sol.PerApp) < n {
		sol.PerApp = make([]AppSolution, n)
	} else {
		sol.PerApp = sol.PerApp[:n]
	}
	for slot, idx := range order {
		pa := &sol.PerApp[idx]
		pa.ID = apps[idx].ID
		pa.Name = apps[idx].Spec.Name
		pa.PerNode = append(pa.PerNode[:0], cached.counts[slot]...)
		pa.GFLOPS = cached.gflops[slot]
	}
	return nil
}

// slotApps is the demand in slot order as the roofline model sees it.
func slotApps(apps []AppState, order []int) []roofline.App {
	rapps := make([]roofline.App, len(order))
	for slot, idx := range order {
		spec := apps[idx].EffectiveSpec()
		rapps[slot] = spec.rooflineApp()
	}
	return rapps
}

// uniformCores reports whether every node of m has the same cores, and
// how many the smallest has.
func uniformCores(m *machine.Machine) (least int, uniform bool) {
	least, most := m.Nodes[0].Cores, m.Nodes[0].Cores
	for _, n := range m.Nodes[1:] {
		least, most = min(least, n.Cores), max(most, n.Cores)
	}
	return least, least == most
}

// solveSlots solves the demand slots (apps in order) under the policy.
func (s *Solver) solveSlots(m *machine.Machine, apps []AppState, order []int) (*cachedSolution, error) {
	rapps := slotApps(apps, order)
	if s.policy == PolicyFairShare {
		al := roofline.FairShareFirst(m, len(rapps))
		var counts []int
		if _, uniform := uniformCores(m); uniform {
			// Every node splits alike, as node 0 does.
			counts = make([]int, len(rapps))
			for slot, row := range al.Threads {
				counts[slot] = row[0]
			}
		}
		return served(m, apps, order, rapps, al, counts)
	}
	counts, _, err := s.search.Solve(roofline.ObjTotalGFLOPS, nil, m, rapps)
	if err != nil {
		return nil, fmt.Errorf("ctrlplane: policy %s produced no allocation for %d apps: %w", s.policy, len(rapps), err)
	}
	return servedCounts(m, apps, order, rapps, counts)
}

// adopt turns an offered solve into the cache value solveSlots would
// have produced, or refuses it. The offer is trusted as much as the
// registration it rides on: it must be of this key (so the sender
// solved the same topology, policy, demand multiset and caps, in the
// same slot order) and its counts must be a leaf the search itself
// could return — one per slot, each at least the floor Solve uses,
// together within the smallest node, the roofline.Canonical row of its
// orbit — that evaluates and is no worse than the even baseline where
// that baseline is such a leaf too.
// Optimality is not re-checked; that would be the search.
func (s *Solver) adopt(m *machine.Machine, apps []AppState, order []int, key []byte, offer *Solved) (*cachedSolution, bool) {
	if solvecache.Digest(key) != offer.Key {
		s.stale.Add(1)
		return nil, false
	}
	cs, err := adoptSlots(m, apps, order, offer.Counts)
	if err != nil {
		s.invalid.Add(1)
		s.logInvalid(offer.Key, err)
		return nil, false
	}
	return cs, true
}

// logInvalid reports an invalid offer, the first time its key is seen.
func (s *Solver) logInvalid(key uint64, err error) {
	s.loggedMu.Lock()
	defer s.loggedMu.Unlock()
	if _, seen := s.logged[key]; seen || len(s.logged) >= maxCacheEntries {
		return
	}
	if s.logged == nil {
		s.logged = map[uint64]struct{}{}
	}
	s.logged[key] = struct{}{}
	log.Printf("ctrlplane: refusing the offered solve of key %016x, solving here instead: %v", key, err)
}

// adoptSlots is servedCounts for an offer's counts that pass its checks.
func adoptSlots(m *machine.Machine, apps []AppState, order []int, counts []int) (*cachedSolution, error) {
	if len(counts) != len(order) {
		return nil, fmt.Errorf("%d counts for %d apps", len(counts), len(order))
	}
	least, uniform := uniformCores(m)
	floor, sum := roofline.SolveFloor(m, len(order)), 0
	for slot, c := range counts {
		if c < floor {
			return nil, fmt.Errorf("slot %d has %d threads per node, under the floor of %d", slot, c, floor)
		}
		if c > least-sum { // not sum+c > least: c is the network's and may overflow
			return nil, fmt.Errorf("more than the smallest node's %d cores by slot %d", least, slot)
		}
		sum += c
	}
	rapps := slotApps(apps, order)
	if !roofline.Canonical(roofline.ObjTotalGFLOPS, rapps, counts) {
		return nil, fmt.Errorf("counts %v are not the canonical row of their interchangeable slots", counts)
	}
	cs, err := servedCounts(m, apps, order, rapps, counts)
	if err != nil || !uniform {
		return cs, err
	}
	// Where every node has the same cores the even split is itself a
	// leaf of the search, so no optimum lies on a lower level of the
	// grid the search compares on. It is infeasible, and no bar, when
	// the cores do not divide among the slots.
	even := 0.0
	if least%len(counts) == 0 {
		split := make([]int, len(counts))
		for slot := range split {
			split[slot] = least / len(counts)
		}
		if _, even, err = roofline.EvaluateCounts(m, rapps, split); err != nil {
			return nil, err
		}
	}
	if g := roofline.NewScoreGrid(m); g.Level(cs.total) < g.Level(even) {
		return nil, fmt.Errorf("total %g GFLOPS is below the even split's %g", cs.total, even)
	}
	return cs, nil
}

// servedCounts is served for counts[slot] threads of each slot per node.
func servedCounts(m *machine.Machine, apps []AppState, order []int, rapps []roofline.App, counts []int) (*cachedSolution, error) {
	al, err := roofline.PerNodeCounts(m, counts)
	if err != nil {
		return nil, err
	}
	return served(m, apps, order, rapps, al, counts)
}

// served builds the cache value for an allocation of the demand slots,
// caps applied. counts, when not nil, is the per-node row al was built
// from (PerNodeCounts): while no cap trims a row the leaf kernel scores
// it, and the reference model evaluates every other allocation.
func served(m *machine.Machine, apps []AppState, order []int, rapps []roofline.App, al roofline.Allocation, counts []int) (*cachedSolution, error) {
	for slot, idx := range order {
		if trimToCap(al.Threads[slot], apps[idx].Spec.MaxThreads) {
			counts = nil // no longer the same count on every node
		}
	}
	res := &roofline.Result{}
	var err error
	if counts != nil {
		res.AppGFLOPS, res.TotalGFLOPS, err = roofline.EvaluateCounts(m, rapps, counts)
	} else {
		res, err = roofline.Evaluate(m, rapps, al)
	}
	if err != nil {
		return nil, fmt.Errorf("ctrlplane: evaluating allocation: %w", err)
	}
	return &cachedSolution{counts: al.Threads, gflops: res.AppGFLOPS, total: res.TotalGFLOPS}, nil
}

// Reference evaluates the paper's structured baselines for apps on m,
// the demand slots in the order a solve of them takes: the even split
// and one node per app, each 0 where its shape does not fit the app
// count and machine, and nil when neither does.
func (s *Solver) Reference(m *machine.Machine, apps []AppState) *ReferenceAllocations {
	if len(apps) == 0 {
		return nil
	}
	_, order := s.demandKey(&solvecache.Key{}, m, apps)
	rapps := slotApps(apps, order)
	baseline := func(shape roofline.Allocation, err error) float64 {
		if err == nil {
			if r, err := roofline.Evaluate(m, rapps, shape); err == nil {
				return r.TotalGFLOPS
			}
		}
		return 0
	}
	ref := ReferenceAllocations{
		EvenGFLOPS:       baseline(roofline.Even(m, len(rapps))),
		NodePerAppGFLOPS: baseline(roofline.NodePerApp(m, len(rapps), nil)),
	}
	if ref == (ReferenceAllocations{}) {
		return nil
	}
	return &ref
}

// trimToCap removes threads round-robin across nodes (from the last
// node backwards) until the total is within the app's requested cap,
// and reports whether it removed any. cap <= 0 means uncapped. An
// application demanding more threads than the machine has cores is
// thus served the solver's optimum, never more than exists.
func trimToCap(perNode []int, cap int) bool {
	if cap <= 0 {
		return false
	}
	total := 0
	for _, c := range perNode {
		total += c
	}
	trimmed := total > cap
	for j := len(perNode) - 1; total > cap; j-- {
		if j < 0 {
			j = len(perNode) - 1
		}
		if perNode[j] > 0 {
			perNode[j]--
			total--
		}
	}
	return trimmed
}
