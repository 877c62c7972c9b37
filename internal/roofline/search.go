package roofline

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/freelist"
	"repro/internal/machine"
)

// Search owns the reusable state of the per-node-counts optimizer: a
// free list of per-worker scratch. The zero value is ready to use, and
// one Search can be shared by concurrent solves (the control-plane
// solver and the fleet Scorer each hold one for their whole lifetime).
// What it retains is bounded: at most freelist's idle cap of workers,
// each with the scratch, model and branch table of the largest solve it
// served — O(apps × nodes + cores) and O((cores+1) × apps) — and no
// machine, app or objective of any solve.
type Search struct {
	// Parallelism caps the worker goroutines fanned out over the
	// top-level enumeration branches; 0 means GOMAXPROCS.
	Parallelism int

	pool freelist.List[bnbWorker]
	// The work done so far (see Stats); workers count privately and add
	// theirs when released.
	solves, leaves, bounds, ties atomic.Uint64
}

// SearchStats is how hard a Search has worked since it was made.
type SearchStats struct {
	// Solves counts the searches run: every Solve and
	// BestPerNodeCountsFloorSpec call whose demand set is non-empty and
	// valid.
	Solves uint64 `json:"solves"`
	// Leaves counts leaf evaluations: the leaves scored through the
	// objective, warm-start seeds included.
	Leaves uint64 `json:"leaves"`
	// Bounds counts evaluations of the objective's upper bound.
	Bounds uint64 `json:"bounds"`
	// Ties counts the subtrees the tie arm of the prune cut: those that
	// could at best tie an incumbent earlier in enumeration order on the
	// ScoreGrid, and no more.
	Ties uint64 `json:"ties"`
}

// Stats returns the work counts of every solve finished so far.
func (s *Search) Stats() SearchStats {
	return SearchStats{Solves: s.solves.Load(), Leaves: s.leaves.Load(), Bounds: s.bounds.Load(), Ties: s.ties.Load()}
}

// ScoreGrid is the fixed grid Search compares objective values on: a
// score s lies on level floor(s/Q), with the quantum Q = 2⁻⁴⁰ × the
// machine's compute ceiling Σ cores × peak (machine.PeakGFLOPS). Scores
// on one level tie, so which of two leaves wins is decided by the
// enumeration order, not by the summation order of their totals (see
// BestPerNodeCountsFloorSpec).
type ScoreGrid struct{ Q float64 }

// NewScoreGrid returns m's grid.
func NewScoreGrid(m *machine.Machine) ScoreGrid { return ScoreGrid{Q: 0x1p-40 * m.PeakGFLOPS()} }

// Level is the level s lies on.
func (g ScoreGrid) Level(s float64) float64 { return math.Floor(s / g.Q) }

// leafKernel scores one leaf of the search: a uniform per-node counts
// vector (every app i runs counts[i] threads on every node). Fitted once
// per solve and shared read-only by its workers, it evaluates one node
// per class of the nodeModel — under uniform counts every node of a
// class sees the same claims — and sums the per-app and machine totals
// in the reference order, which is all an Objective reads. No
// Allocation, no Result grid, no allocation per leaf.
type leafKernel struct {
	md *nodeModel
	// src[i*nNodes+j] indexes leafScratch.rate for app i's threads on
	// node j: the (class of j, i) cell when j serves them locally, the
	// (i, j) remote cell when i is NUMA-bad and homed elsewhere.
	src []int32
}

// leafScratch is one worker's mutable state for leafKernel.eval.
type leafScratch struct {
	ev      nodeEval
	perLink []float64
	// rate holds GFLOPS cells: nClasses×nApps local cells, then
	// nApps×nNodes remote cells.
	rate []float64
	res  Result // AppGFLOPS and TotalGFLOPS only
}

// fit refits the kernel to md in place, reusing its table.
func (k *leafKernel) fit(md *nodeModel) {
	k.md = md
	k.src = slices.Grow(k.src[:0], md.nApps*md.nNodes)[:md.nApps*md.nNodes]
	remote := len(md.classRep) * md.nApps
	for i, a := range md.apps {
		for j := 0; j < md.nNodes; j++ {
			if a.Placement == NUMABad && int(a.HomeNode) != j {
				k.src[i*md.nNodes+j] = int32(remote + i*md.nNodes + j)
			} else {
				k.src[i*md.nNodes+j] = int32(md.classOf[j]*md.nApps + i)
			}
		}
	}
}

// fit sizes the scratch for the kernel, reusing its backing arrays.
func (s *leafScratch) fit(k *leafKernel) {
	md := k.md
	s.perLink = slices.Grow(s.perLink[:0], md.nNodes)[:md.nNodes]
	clear(s.perLink)
	n := (len(md.classRep) + md.nNodes) * md.nApps
	s.rate = slices.Grow(s.rate[:0], n)[:n]
	s.res.AppGFLOPS = slices.Grow(s.res.AppGFLOPS[:0], md.nApps)[:md.nApps]
	// A node's claims at most: every app locally, and every homed app's
	// threads on every other node.
	s.ev.local = slices.Grow(s.ev.local[:0], md.nApps)
	s.ev.remote = slices.Grow(s.ev.remote[:0], md.nApps*(md.nNodes-1))
}

// eval returns the totals of the allocation PerNodeCounts(m, counts),
// bit-identical to the reference Evaluate's AppGFLOPS and TotalGFLOPS;
// PerApp and PerNode stay nil. The caller guarantees what
// Allocation.Validate would check: len(counts) == nApps, every count
// >= 0, and their sum within the smallest node's cores.
func (k *leafKernel) eval(s *leafScratch, counts []int) *Result {
	md := k.md
	for c, h := range md.classRep {
		// The claim arrays were sized by fit; only the fields compute reads
		// are written, it overwrites the rest.
		ev := &s.ev
		local, remote := ev.local[:cap(ev.local)], ev.remote[:cap(ev.remote)]
		nl, nr := 0, 0
		for _, i := range md.localApps[h] {
			if th := counts[i]; th != 0 {
				local[nl].app, local[nl].threads = i, th
				nl++
			}
		}
		for _, i := range md.homeApps[h] {
			if th := counts[i]; th != 0 {
				for j := 0; j < md.nNodes; j++ {
					if j != h {
						remote[nr].app, remote[nr].node, remote[nr].threads = i, int32(j), th
						nr++
					}
				}
			}
		}
		ev.local, ev.remote = local[:nl], remote[:nr]
		md.compute(ev, s.perLink, h)
		rate := s.rate[c*md.nApps:]
		for idx := range ev.local {
			rate[ev.local[idx].app] = ev.local[idx].gflops
		}
		rate = s.rate[len(md.classRep)*md.nApps:]
		for idx := range ev.remote {
			cl := &ev.remote[idx]
			rate[int(cl.app)*md.nNodes+int(cl.node)] = cl.gflops
		}
	}
	// Totals in the reference order: per app, nodes in index order, then
	// the app total folded into the machine total. An app with threads
	// has a freshly written cell on every node; one without has none, and
	// the reference sums its zero cells to zero.
	total := 0.0
	for i := range s.res.AppGFLOPS {
		g := 0.0
		if counts[i] != 0 {
			for _, ix := range k.src[i*md.nNodes : (i+1)*md.nNodes] {
				g += s.rate[ix]
			}
		}
		s.res.AppGFLOPS[i] = g
		total += g
	}
	s.res.TotalGFLOPS = total
	return &s.res
}

// boundMargin is the float-noise margin the prune adds to a bound b
// before it compares it on the grid, relative to |b|: (nApps+2) × nNodes
// × 2⁻⁵⁰, that is 8 units of roundoff for every per-node rate a leaf
// total sums, plus two apps' worth for the bound's own greedy sums (see
// DESIGN.md §3.3). Below one quantum while (nApps+2) × nNodes < 2¹⁰.
func boundMargin(nApps, nNodes int) float64 {
	return float64((nApps+2)*nNodes) * 0x1p-50
}

// seqLeafThreshold is the candidate count under which the search stays
// on the calling goroutine; fan-out costs more than it buys on the
// paper-sized problems.
const seqLeafThreshold = 4096

// bnbCtx is the read-only shared state of one solve plus the shared
// incumbents.
type bnbCtx struct {
	nApps  int
	floor  int
	cores  int // the smallest node's: the per-node budget of a row
	kernel *leafKernel
	obj    Objective
	// symmetric is the spec's declaration (ObjectiveSpec.Symmetric) that
	// rows of interchangeable apps may be enumerated once per orbit.
	symmetric bool
	// bound is the objective's admissible upper bound (see
	// ObjectiveSpec); nil declares the run bound-free and the search
	// degrades to the unpruned enumeration.
	bound BoundFunc

	// best is the strict arm's incumbent: Float64bits of the highest
	// level any leaf reached so far, warm-start seeds included.
	best atomic.Uint64
	// first is the tie arm's: the branch that first reached the highest
	// level any branch has published (its branchResult.level), -1 while
	// none has. Only later branches may read it.
	first atomic.Int64
	next  atomic.Int64 // branch work-stealing cursor
}

func (c *bnbCtx) bestLevel() float64 { return math.Float64frombits(c.best.Load()) }

func (c *bnbCtx) raiseBest(v float64) {
	for {
		old := c.best.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if c.best.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// bnbWorker is one goroutine's private search state, pooled by Search
// between solves.
type bnbWorker struct {
	ctx     *bnbCtx
	scratch leafScratch
	// ints backs the three vectors below and, after them, cores+1
	// entries of estimateLeaves scratch: one allocation for all.
	ints   []int
	counts []int
	// The solve's run table (linkRuns): the rows of a run of
	// interchangeable apps are enumerated non-decreasing.
	prevSame, runLeft []int

	grid   ScoreGrid
	margin float64 // boundMargin: relative to the bound

	// The highest level the leaves of the branch being searched reached
	// so far; results is the solve's table of every branch's best.
	branchLevel float64
	results     []branchResult

	// This solve's leaf and bound evaluations and tie-arm cuts, added to
	// the Search's counts on release.
	leaves, bounds, ties uint64

	// What the worker owns for the solves its own goroutine calls,
	// refitted in place by each: the model and kernel all the solve's
	// workers read, and the branch results with the counts table their
	// windows lie in.
	md       nodeModel
	kernel   leafKernel
	branches []branchResult
	table    []int
}

// fit fits the worker's scratch to the solve.
func (w *bnbWorker) fit(ctx *bnbCtx) {
	w.ctx, w.leaves, w.bounds, w.ties = ctx, 0, 0, 0
	w.grid, w.margin = NewScoreGrid(ctx.kernel.md.m), boundMargin(ctx.nApps, ctx.kernel.md.nNodes)
	w.scratch.fit(ctx.kernel)
	n := ctx.nApps
	w.ints = slices.Grow(w.ints[:0], 3*n+ctx.cores+1)[:3*n+ctx.cores+1]
	w.counts, w.prevSame, w.runLeft = w.ints[:n], w.ints[n:2*n], w.ints[2*n:3*n]
	linkRuns(ctx.symmetric, ctx.kernel.md.apps, w.prevSame, w.runLeft)
}

// fitBranches readies the worker's branch table for n branches of nApps
// counts each: every branch without a leaf yet, on no level.
func (w *bnbWorker) fitBranches(n, nApps int) []branchResult {
	w.branches = slices.Grow(w.branches[:0], n)[:n]
	w.table = slices.Grow(w.table[:0], n*nApps)[:n*nApps]
	for b := range w.branches {
		r := &w.branches[b]
		r.level.Store(math.Float64bits(math.Inf(-1)))
		// A branch's best counts land in its own window of the table.
		r.counts, r.score = w.table[b*nApps:b*nApps], 0
	}
	return w.branches
}

// release adds the worker's counts to the Search's and pools it without
// the solve's machine, apps or objective, so an idle Search holds
// scratch only.
func (s *Search) release(w *bnbWorker) {
	s.leaves.Add(w.leaves)
	s.bounds.Add(w.bounds)
	s.ties.Add(w.ties)
	w.ctx, w.results = nil, nil
	clear(w.md.apps)
	w.md.m, w.md.apps = nil, w.md.apps[:0]
	s.pool.Put(w)
}

// score scores the leaf w.counts: the objective's value and its level
// on the grid. Every leaf the search scores — the enumeration's and the
// warm-start seeds' — has every count >= floor >= 0 and a sum within
// the smallest node's cores, so the allocation it stands for is valid
// by construction and is not re-validated per leaf
// (TestSearchLeavesAreValidAllocations pins this).
func (w *bnbWorker) score() (v, level float64) {
	w.leaves++
	v = w.ctx.obj(w.ctx.kernel.eval(&w.scratch, w.counts))
	return v, w.grid.Level(v)
}

// branch is the top-level branch being searched: app 0's count over the
// floor, where its span starts.
func (w *bnbWorker) branch() int { return w.counts[0] - w.ctx.floor }

// span is the range of counts the enumeration tries for app pos with
// remaining cores per node left for apps pos..n-1: from the floor — or,
// rows being non-decreasing along a run, from the count of the run's
// previous app — up to an equal share of remaining among the run's apps
// still to place. An app that is a run of one gets floor..remaining.
func (w *bnbWorker) span(pos, remaining int) (lo, hi int) {
	lo, hi = w.ctx.floor, remaining
	if q := w.prevSame[pos]; q >= 0 {
		lo = w.counts[q]
	}
	if left := w.runLeft[pos]; left > 1 {
		hi = remaining / left
	}
	return lo, hi
}

// hopeless reports whether no completion of counts[0..pos-1] with at
// most rem cores per node for apps pos..n-1 can be the answer: the
// bound, plus its margin, lies on a level below the best one reached
// (the strict arm), or on one no higher than a leaf earlier in
// enumeration order reached (the tie arm): the branch's own best so far,
// or the first branch's to reach the highest level when that branch
// comes before this one. Seeds are not in order, so only the strict arm
// sees them.
func (w *bnbWorker) hopeless(pos, rem int) bool {
	w.bounds++
	b := w.ctx.bound(w.counts, pos, rem)
	u := w.grid.Level(b + w.margin*math.Abs(b))
	if u < w.ctx.bestLevel() {
		return true
	}
	t := w.branchLevel
	if f := w.ctx.first.Load(); f >= 0 && int(f) < w.branch() {
		t = max(t, math.Float64frombits(w.results[f].level.Load()))
	}
	if u <= t {
		w.ties++
		return true
	}
	return false
}

// leaf scores the completed counts vector and keeps it when it is the
// first of its branch on a higher level, publishing that level to the
// incumbents.
func (w *bnbWorker) leaf() {
	v, l := w.score()
	if !(l > w.branchLevel) { // a NaN score never wins
		return
	}
	w.branchLevel = l
	b, c := w.branch(), w.ctx
	r := &w.results[b]
	r.counts, r.score = append(r.counts[:0], w.counts...), v
	c.raiseBest(l)
	r.level.Store(math.Float64bits(l))
	// This branch becomes the tie arm's incumbent unless one on a higher
	// level, or an earlier one on the same, already is. A race that keeps
	// a worse incumbent costs cuts, never soundness: any branch's
	// published level was reached by a leaf of that branch.
	for {
		f := c.first.Load()
		if f >= 0 {
			fl := math.Float64frombits(w.results[f].level.Load())
			if l < fl || l == fl && int(f) <= b {
				return
			}
		}
		if c.first.CompareAndSwap(f, int64(b)) {
			return
		}
	}
}

// rec enumerates apps pos..n-1 with remaining cores per node left. It is
// entered at pos 1: the caller fixes app 0's row, the top-level branch.
func (w *bnbWorker) rec(pos, remaining int) {
	c := w.ctx
	if pos == c.nApps {
		w.leaf() // a one-app solve: the branch's row is the leaf
		return
	}
	if c.bound != nil && w.hopeless(pos, remaining) {
		return
	}
	lo, hi := w.span(pos, remaining)
	if pos < c.nApps-1 {
		for cnt := lo; cnt <= hi; cnt++ {
			w.counts[pos] = cnt
			w.rec(pos+1, remaining-cnt)
		}
		return
	}
	// The last app's leaves are one range. By the BoundFunc contract
	// bound(counts, pos, r) covers every leaf whose last count is at most
	// r, so the first r (scanning down) whose bound is hopeless rejects
	// lo..r at once — every incumbent hopeless reads comes before them in
	// order; the check above already covered hi, which is remaining for
	// the last app. The survivors are scored without a bound of their
	// own: one that lies below the incumbent's level cannot be the answer.
	if c.bound != nil {
		for r := hi - 1; r >= lo; r-- {
			if w.hopeless(pos, r) {
				lo = r + 1
				break
			}
		}
	}
	for cnt := lo; cnt <= hi; cnt++ {
		w.counts[pos] = cnt
		w.leaf()
	}
}

// branchResult is one top-level branch's best candidate, the first of
// its leaves on the highest level they reached, and its objective value;
// results are reduced in branch order so the parallel search returns the
// same first-in-enumeration-order optimum as a sequential scan. The
// owning worker writes every field as the level rises; the tie arm of
// later branches reads level meanwhile, the reduction the rest once all
// are done.
type branchResult struct {
	level  atomic.Uint64 // Float64bits; -Inf while the branch has no leaf
	counts []int
	score  float64
}

// BestPerNodeCountsFloorSpec is the search: over uniform per-node
// allocations (every app gets counts[i] threads on every node, each app
// at least floor) it returns the one maximizing spec's objective, using
// the leafKernel, goroutine fan-out of the top-level branches and, when
// spec supplies an admissible bound, a branch-and-bound prune. Without a
// bound every leaf is scored. It returns ErrNoAllocation when the floors
// alone over-subscribe a node (more apps than cores).
//
// Scores are compared on m's ScoreGrid: the answer is the first leaf in
// enumeration order on the highest level, so it scores less than one
// quantum Q below the highest float score, and leaves that differ by the
// summation order of their totals tie. It returns the winning counts,
// their allocation (PerNodeCounts) and the reference Evaluate's Result
// for it; Solve returns the counts alone, with their score.
//
// The prune cuts a subtree whose bound b, plus the float-noise margin
// |b| × boundMargin, lies on a level
//
//   - below the highest level any leaf reached (the strict arm), or
//   - no higher than a leaf earlier in enumeration order reached (the tie
//     arm: the branch's own first leaf on its highest level, or, for a
//     later branch, the first branch's to reach the highest level any
//     branch has published).
//
// The margin makes the bound admissible on the grid: every completion's
// float score s has Level(s) <= Level(b + margin). So a strict cut drops
// only leaves below the answer's level and a tie cut only leaves at most
// on the level of an earlier one; neither drops the answer, and the
// parallel search returns what the sequential one does.
//
// The enumeration walks one row per orbit of Interchangeable apps. When
// spec is Symmetric, the rows of a run of such apps (wherever its
// members sit in apps) are enumerated non-decreasing in app order — the
// Canonical rows; every other row is a canonical one with some runs
// permuted and scores the same but for the order of a float sum. The
// canonical row is its orbit's first in enumeration order, so:
//
//	(a) counts, allocation and Result are bit-identical to the
//	    exhaustive reference enumeration restricted to Canonical rows,
//	    the first leaf on the highest grid level winning;
//	(b) they are bit-identical to the unrestricted reference under the
//	    same rule whenever its optimum is a canonical row — always, on
//	    the paper's fixtures; a permuted row can come first there only by
//	    reaching a higher level on summation order, and then the two
//	    objective values agree to 1e-9 relative;
//	(c) under a spec that is not Symmetric, or with no two
//	    interchangeable apps, the walk is the unrestricted one.
//
// search_test.go and orbit_test.go prove all three differentially.
//
// prev warm-starts the search from a previous optimum: the counts
// vector of a related solve, one entry per app of this one — the same
// apps, or the demand set minus one app, whose entry is negative (the
// gap; the +1-app neighbour the fleet scorer hits on every placement
// decision, where key order puts the newcomer anywhere). A prev one
// entry short is the same with the gap at the last app. Seed
// candidates derived from prev are evaluated up front and their levels
// raise the strict arm's incumbent before the search starts, so when the
// new optimum is near the old one most subtrees prune immediately.
//
// Warm-starting cannot change the answer: every seed is an ordinary
// feasible candidate, so the strict incumbent is only raised to levels
// the enumeration itself attains, and a seed never feeds the tie arm,
// which needs a leaf earlier in order. Counts, allocation, Result and
// score are bit-identical to the cold solve — warmstart_test.go and the
// FuzzEvaluatorEquivalence corpus prove it differentially. A prev of any
// other length, with a second negative entry, or infeasible under the
// requested floor, is ignored (the solve degrades to cold, never
// errors).
func (s *Search) BestPerNodeCountsFloorSpec(spec ObjectiveSpec, prev []int, m *machine.Machine, apps []App, floor int) ([]int, Allocation, *Result, error) {
	counts, _, err := s.solve(spec, prev, m, apps, floor)
	if err != nil {
		return nil, Allocation{}, nil, err
	}
	// An empty demand set has one allocation, the empty one.
	al := NewAllocation(0, m.NumNodes())
	if len(apps) > 0 {
		if al, err = PerNodeCounts(m, counts); err != nil {
			return nil, Allocation{}, nil, err
		}
	}
	res, err := Evaluate(m, apps, al)
	if err != nil {
		return nil, Allocation{}, nil, err
	}
	return counts, al, res, nil
}

// solve is the search of BestPerNodeCountsFloorSpec without its
// allocation and Result: the winning counts and the objective value the
// leaf kernel computed for them, which the ObjectiveSpec contract makes
// bit-identical to spec.Objective(apps) of the reference Evaluate's
// Result. The model, kernel and branch table live in the calling
// goroutine's pooled worker, refitted in place, so a solve on a warm
// Search allocates little beyond the spec's objective and bound and the
// returned counts. An empty demand set scores 0 without a search.
func (s *Search) solve(spec ObjectiveSpec, prev []int, m *machine.Machine, apps []App, floor int) ([]int, float64, error) {
	floor = max(floor, 0)
	nApps := len(apps)
	if nApps == 0 {
		return nil, 0, nil
	}
	// The calling goroutine's worker owns the solve's shared tables, so
	// it goes back to the pool only once the reduction has read them.
	w0 := s.pool.Get()
	defer s.release(w0)
	if err := w0.md.fit(m, apps, Options{}); err != nil {
		// Invalid (machine, apps) inputs: the reference enumeration skips
		// every candidate and reports no feasible allocation.
		return nil, 0, ErrNoAllocation
	}
	w0.kernel.fit(&w0.md)
	ctx := &bnbCtx{
		nApps:     nApps,
		floor:     floor,
		cores:     minCores(m),
		kernel:    &w0.kernel,
		obj:       spec.Objective(apps),
		symmetric: spec.Symmetric(),
		bound:     spec.Bound(m, apps),
	}
	ctx.best.Store(math.Float64bits(math.Inf(-1)))
	ctx.first.Store(-1)
	s.solves.Add(1)

	// The calling goroutine's worker seeds the incumbent and sizes the
	// tree before it searches beside the others.
	w0.fit(ctx)
	if ctx.bound != nil && len(prev) > 0 {
		w0.seedIncumbent(prev)
	}
	first, last := w0.span(0, ctx.cores)
	nBranches := max(last-first+1, 0)

	workers := s.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 && estimateLeaves(ctx.cores-floor*nApps, w0.runLeft, w0.ints[3*nApps:]) <= seqLeafThreshold {
		workers = 1
	}

	results := w0.fitBranches(nBranches, nApps)
	search := func(w *bnbWorker) {
		w.results = results
		for {
			b := int(ctx.next.Add(1)) - 1
			if b >= nBranches {
				return
			}
			w.branchLevel = math.Inf(-1)
			w.counts[0] = first + b
			w.rec(1, ctx.cores-(first+b))
		}
	}
	if workers = min(workers, nBranches); workers <= 1 {
		search(w0)
	} else {
		var wg sync.WaitGroup
		for wi := 1; wi < workers; wi++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if int(ctx.next.Load()) >= nBranches {
					return // the others have taken every branch
				}
				w := s.pool.Get()
				w.fit(ctx)
				defer s.release(w)
				search(w)
			}()
		}
		search(w0)
		wg.Wait()
	}

	// Deterministic reduction in branch order: strict > keeps the first
	// branch on the highest level, matching the sequential scan.
	win, best := -1, math.Inf(-1)
	for b := range results {
		if l := math.Float64frombits(results[b].level.Load()); l > best {
			win, best = b, l
		}
	}
	if win < 0 {
		return nil, 0, ErrNoAllocation
	}
	return slices.Clone(results[win].counts), results[win].score, nil
}

// SolveFloor is the floor Solve searches under for nApps apps on m: the
// no-starvation floor of one thread per app per node while that fits
// the smallest node, zero once there are more apps than it has cores.
func SolveFloor(m *machine.Machine, nApps int) int {
	if nApps > minCores(m) {
		return 0
	}
	return 1
}

// Solve is the one question both daemons ask of a demand set: the
// optimum under the no-starvation floor of one thread per app per node
// (the paper's Table I optimum), or — when those floors alone
// over-subscribe a node, i.e. more apps than the smallest node has
// cores — the unfloored optimum. floor reports which of the two was
// solved (SolveFloor); prev warm-starts it exactly as in
// BestPerNodeCountsFloorSpec. It returns the counts
// BestPerNodeCountsFloorSpec does and their score, bit-identical to
// spec.Objective(apps) of that call's Result, without building the
// allocation or evaluating it: a caller that serves the counts builds
// the allocation with PerNodeCounts. An empty demand set gives nil
// counts and a score of 0.
func (s *Search) Solve(spec ObjectiveSpec, prev []int, m *machine.Machine, apps []App) (counts []int, score float64, floor int, err error) {
	floor = SolveFloor(m, len(apps))
	counts, score, err = s.solve(spec, prev, m, apps, floor)
	return counts, score, floor, err
}

// seedIncumbent evaluates the warm-start candidates derived from prev
// (see BestPerNodeCountsFloorSpec) and raises the strict arm's incumbent
// to the highest of their levels. A hint without a gap is
// evaluated as-is; a hint with one is extended over every feasible
// count for the app in the gap (at most capCores leaf evaluations).
// Infeasible hints are silently skipped — seeding is purely an
// acceleration.
func (w *bnbWorker) seedIncumbent(prev []int) {
	ctx := w.ctx
	nApps, floor, capCores := ctx.nApps, ctx.floor, ctx.cores
	if len(prev) != nApps && len(prev) != nApps-1 {
		return // not a ±1 neighbour's counts; nothing usable
	}
	w.counts[nApps-1] = -1 // a one-short hint's gap is the last app
	copy(w.counts, prev)
	gap, used := -1, 0
	for i, c := range w.counts {
		switch {
		case c < 0 && gap < 0:
			gap = i
		case c < floor:
			return // infeasible under this floor (e.g. a floor-0 optimum's zero), or a second negative
		default:
			used += c
		}
	}
	if used > capCores {
		return
	}
	if gap < 0 {
		_, l := w.score()
		ctx.raiseBest(l)
		return
	}
	// When the previous optimum saturates the node (the common case when
	// an app arrives on a packed machine), free room for the newcomer by
	// shaving the widest rows — still a plausible near-optimal shape, and
	// seeds are re-evaluated anyway. The gap's -1 is never the widest.
	for used+floor > capCores {
		widest := -1
		for i, c := range w.counts {
			if c > floor && (widest < 0 || c > w.counts[widest]) {
				widest = i
			}
		}
		if widest < 0 {
			return // every row already at floor; no room at all
		}
		w.counts[widest]--
		used--
	}
	for c := floor; c <= capCores-used; c++ {
		w.counts[gap] = c
		_, l := w.score()
		ctx.raiseBest(l)
	}
}

// estimateLeaves returns the number of leaves the enumeration visits:
// rows with at most budget cores over the floors in total,
// non-decreasing along every run of the table runLeft is of. A run of k
// apps contributes the partitions of its extra cores into at most k
// parts, generating function Π_{j=1..k} 1/(1-x^j), and its members'
// runLeft values are exactly 1..k; one more factor 1/(1-x) sums the
// coefficients up to budget. ways is scratch of budget+1 entries or
// more. Exact (orbit_test.go) until it saturates, far above the
// sequential threshold.
func estimateLeaves(budget int, runLeft, ways []int) int {
	if budget < 0 {
		return 0
	}
	ways = ways[:budget+1]
	clear(ways)
	ways[0] = 1
	times := func(j int) { // multiply by 1/(1-x^j)
		for s := j; s <= budget; s++ {
			ways[s] = min(ways[s]+ways[s-j], 1<<30)
		}
	}
	for _, j := range runLeft {
		times(j)
	}
	times(1)
	return ways[budget]
}
