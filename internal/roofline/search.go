package roofline

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/freelist"
	"repro/internal/machine"
)

// Search owns the reusable state of the per-node-counts optimizer: a
// free list of solve workers. The zero value is ready to use, and one
// Search can be shared by concurrent solves (the control-plane solver
// and the fleet Scorer each hold one for their whole lifetime): each
// solve runs on its calling goroutine with a worker of its own. What
// it retains is bounded: at most freelist's idle cap of workers, each
// with the kernel and scratch of the largest solve it served —
// O(apps × nodes) — and no machine, app or objective of any solve.
type Search struct {
	pool freelist.List[bnbWorker]
	// The work done so far (see Stats); each solve counts on its worker
	// and adds its counts when it finishes.
	solves, leaves, bounds, ties atomic.Uint64
}

// SearchStats is how hard a Search has worked since it was made.
type SearchStats struct {
	// Solves counts the searches run: every Solve, SolveAbove and
	// BestPerNodeCountsFloorSpec call whose demand set is non-empty and
	// valid, but for a SolveAbove its root test answered (whose one bound
	// evaluation Bounds counts).
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

// boundMargin is the float-noise margin the prune adds to a bound b
// before it compares it on the grid, relative to |b|: (nApps+2) × nNodes
// × 2⁻⁵⁰, that is 8 units of roundoff for every per-node rate a leaf
// total sums, plus two apps' worth for the bound's own greedy sums (see
// DESIGN.md §3.3). Below one quantum while (nApps+2) × nNodes < 2¹⁰.
func boundMargin(nApps, nNodes int) float64 {
	return float64((nApps+2)*nNodes) * 0x1p-50
}

// bnbWorker is one solve's search state, pooled by Search between
// solves: the solve's inputs, the kernel fitted to them, the
// enumeration's scratch and the incumbents. A solve runs on its calling
// goroutine with a worker of its own.
type bnbWorker struct {
	floor int
	cores int // the smallest node's: the per-node budget of a row
	obj   Objective
	// bound is the objective's admissible upper bound (see
	// ObjectiveSpec); nil declares the run bound-free and the search
	// degrades to the unpruned enumeration.
	bound BoundFunc

	// builtin is a built-in spec's objective and bound (greedySpec),
	// refitted in place, which obj and bound are set to: a solve under
	// a built-in spec allocates neither.
	builtin builtinFit

	kernel leafKernel
	// ints backs the four vectors below: one allocation for all.
	ints   []int
	counts []int
	// The solve's run table (linkRuns): the rows of a run of
	// interchangeable apps are enumerated non-decreasing.
	prevSame, runLeft []int
	// win is the answer so far, the first enumerated leaf on level tie,
	// and winScore its objective value.
	win      []int
	winScore float64

	grid   ScoreGrid
	margin float64 // boundMargin: relative to the bound

	// best is the strict arm's incumbent: the highest level any leaf
	// reached, warm-start seeds included. tie is the tie arm's: the
	// highest level an enumerated leaf reached. Both are -Inf while no
	// leaf has.
	best, tie float64

	// This solve's leaf and bound evaluations and tie-arm cuts, added to
	// the Search's counts on release.
	leaves, bounds, ties uint64
}

// fit refits the worker in place to the solve of spec over (m, apps)
// under floor, all but the kernel, which solve loads after its root
// test. It fails, leaving the worker unfitted, on inputs Evaluate would
// refuse.
func (w *bnbWorker) fit(spec ObjectiveSpec, m *machine.Machine, apps []App, floor int) error {
	if err := checkInputs(m, apps); err != nil {
		return err
	}
	n := len(apps)
	w.floor, w.cores = floor, minCores(m)
	w.ints = slices.Grow(w.ints[:0], 4*n)[:4*n]
	w.counts, w.prevSame, w.runLeft, w.win = w.ints[:n], w.ints[n:2*n], w.ints[2*n:3*n], w.ints[3*n:]
	linkRuns(spec.Symmetric(), apps, w.prevSame, w.runLeft)
	if g, ok := spec.(greedySpec); ok {
		f := w.builtin.fitObjective(g, apps).fitBound(m, apps)
		w.obj, w.bound = f.objective(), f.bound()
	} else {
		w.obj, w.bound = spec.Objective(apps), spec.Bound(m, apps)
	}
	w.grid, w.margin = NewScoreGrid(m), boundMargin(n, m.NumNodes())
	w.best, w.tie = math.Inf(-1), math.Inf(-1)
	w.leaves, w.bounds, w.ties = 0, 0, 0
	return nil
}

// release adds the worker's counts to the Search's and pools it without
// the solve's machine, apps or objective, so an idle Search holds
// scratch only.
func (s *Search) release(w *bnbWorker) {
	s.leaves.Add(w.leaves)
	s.bounds.Add(w.bounds)
	s.ties.Add(w.ties)
	w.obj, w.bound = nil, nil
	w.kernel.unfit()
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
	v = w.obj(w.kernel.eval(w.counts))
	return v, w.grid.Level(v)
}

// raiseBest raises the strict arm's incumbent to level l.
func (w *bnbWorker) raiseBest(l float64) {
	if !(w.best >= l) {
		w.best = l
	}
}

// span is the range of counts the enumeration tries for app pos with
// remaining cores per node left for apps pos..n-1: from the floor — or,
// rows being non-decreasing along a run, from the count of the run's
// previous app — up to an equal share of remaining among the run's apps
// still to place. An app that is a run of one gets floor..remaining.
func (w *bnbWorker) span(pos, remaining int) (lo, hi int) {
	lo, hi = w.floor, remaining
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
// (the strict arm), or on one no higher than an enumerated leaf reached
// (the tie arm: every such leaf comes earlier in enumeration order).
// Seeds are not in order, so only the strict arm sees them.
func (w *bnbWorker) hopeless(pos, rem int) bool {
	w.bounds++
	b := w.bound(w.counts, pos, rem)
	u := w.grid.Level(b + w.margin*math.Abs(b))
	if u < w.best {
		return true
	}
	if u <= w.tie {
		w.ties++
		return true
	}
	return false
}

// leaf scores the completed counts vector and keeps it as the answer
// when it is the first leaf on a level higher than any before it.
func (w *bnbWorker) leaf() {
	v, l := w.score()
	if !(l > w.tie) { // a NaN score never wins
		return
	}
	w.tie = l
	w.raiseBest(l)
	copy(w.win, w.counts)
	w.winScore = v
}

// rec enumerates apps pos..n-1 with remaining cores per node left. It is
// entered at pos 1: the caller fixes app 0's row, the top-level branch.
func (w *bnbWorker) rec(pos, remaining int) {
	n := len(w.counts)
	if pos == n {
		w.leaf() // a one-app solve: the branch's row is the leaf
		return
	}
	if w.bound != nil && w.hopeless(pos, remaining) {
		return
	}
	lo, hi := w.span(pos, remaining)
	if pos < n-1 {
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
	if w.bound != nil {
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

// BestPerNodeCountsFloorSpec is the search: over uniform per-node
// allocations (every app gets counts[i] threads on every node, each app
// at least floor) it returns the one maximizing spec's objective, using
// the leafKernel and, when spec supplies an admissible bound, a
// branch-and-bound prune. Without a bound every leaf is scored. It
// returns ErrNoAllocation when the floors alone over-subscribe a node
// (more apps than cores). The search walks the top-level branches in
// order on the calling goroutine.
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
//   - no higher than the highest level an enumerated leaf reached (the
//     tie arm: every enumerated leaf comes earlier in order than the
//     subtree).
//
// The margin makes the bound admissible on the grid: every completion's
// float score s has Level(s) <= Level(b + margin). So a strict cut drops
// only leaves below the answer's level and a tie cut only leaves at most
// on the level of an earlier one; neither drops the answer.
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
	counts, _, err := s.solve(spec, prev, m, apps, floor, noBar)
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
// Result. It runs on the calling goroutine with a pooled worker whose
// kernel and scratch are refitted in place, so a solve on a warm
// Search under a built-in spec allocates the returned counts alone. An
// empty demand set scores 0 without a search. Under a bar it is the
// search of SolveAbove.
func (s *Search) solve(spec ObjectiveSpec, prev []int, m *machine.Machine, apps []App, floor int, bar float64) ([]int, float64, error) {
	floor = max(floor, 0)
	barred := bar > noBar // a NaN bar is no bar either
	if len(apps) == 0 {
		if g := NewScoreGrid(m); barred && g.Level(0) < g.Level(bar) {
			return nil, 0, ErrBelowBar
		}
		return nil, 0, nil
	}
	w := s.pool.Get()
	defer s.release(w)
	if err := w.fit(spec, m, apps, floor); err != nil {
		// Invalid (machine, apps) inputs: the reference enumeration skips
		// every candidate and reports no feasible allocation.
		return nil, 0, ErrNoAllocation
	}
	if barred {
		w.best = w.grid.Level(bar)
		if w.bound != nil && w.hopeless(0, w.cores) {
			return nil, 0, ErrBelowCeiling
		}
	}
	w.kernel.fit(m, apps)
	s.solves.Add(1)
	if w.bound != nil && len(prev) > 0 {
		w.seedIncumbent(prev)
	}
	first, last := w.span(0, w.cores)
	for c := first; c <= last; c++ {
		w.counts[0] = c
		w.rec(1, w.cores-c)
	}
	if barred && !(w.tie >= w.grid.Level(bar)) {
		return nil, 0, ErrBelowBar
	}
	if math.IsInf(w.tie, -1) {
		return nil, 0, ErrNoAllocation
	}
	return slices.Clone(w.win), w.winScore, nil
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
// cores — the unfloored optimum (SolveFloor says which); prev
// warm-starts it exactly as in BestPerNodeCountsFloorSpec. It returns the counts
// BestPerNodeCountsFloorSpec does and their score, bit-identical to
// spec.Objective(apps) of that call's Result, without building the
// allocation or evaluating it: a caller that serves the counts builds
// the allocation with PerNodeCounts. An empty demand set gives nil
// counts and a score of 0.
func (s *Search) Solve(spec ObjectiveSpec, prev []int, m *machine.Machine, apps []App) (counts []int, score float64, err error) {
	return s.SolveAbove(spec, prev, m, apps, noBar)
}

// noBar is the bar of a solve that has none: every allocation reaches it.
var noBar = math.Inf(-1)

// ErrBelowBar is SolveAbove's answer when no allocation's score reaches
// the bar's level on the ScoreGrid, so the optimum lies below the bar.
// ErrBelowCeiling is the same answer decided at the root, before the
// kernel was fitted or a leaf scored: the bound over the whole
// enumeration, margin included, already lies below the bar's level.
var (
	ErrBelowBar     = errors.New("roofline: optimum below the bar")
	ErrBelowCeiling = fmt.Errorf("%w: the ceiling is below it", ErrBelowBar)
)

// SolveAbove is Solve for a caller that can use the optimum only if it
// reaches bar: a placement decision asking whether a machine can still
// beat the best score it has seen. It returns exactly what Solve
// returns — counts and score bit for bit — when the optimum's level on
// the ScoreGrid is at least the bar's, and ErrBelowBar (errors.Is)
// otherwise, which proves every allocation scores below bar.
//
// The bar enters the search as the strict arm's incumbent, seeded at
// the bar's level before the enumeration starts — the warm-start
// argument (see BestPerNodeCountsFloorSpec): the strict arm cuts only
// subtrees whose bound lies below a level, and the answer's own level is
// at least the bar's, so the answer is never cut, and the tie arm, which
// reads enumerated leaves only, still keeps the first leaf on the
// highest level. Before anything else it runs the prune's root test:
// the spec's bound over the whole enumeration (pos 0, the whole core
// budget), through the same hopeless check every subtree takes, margin
// included; when that lies below the bar's level it answers
// ErrBelowCeiling without fitting the kernel. For a total-GFLOPS spec
// that bound is the machine's roofline ceiling, min(Σ peak, bandwidth ×
// the best AI). A bound-free spec skips the root test and enumerates.
// A bar of -Inf (or NaN) is no bar: the solve is Solve's, Stats
// included.
func (s *Search) SolveAbove(spec ObjectiveSpec, prev []int, m *machine.Machine, apps []App, bar float64) (counts []int, score float64, err error) {
	return s.solve(spec, prev, m, apps, SolveFloor(m, len(apps)), bar)
}

// seedIncumbent evaluates the warm-start candidates derived from prev
// (see BestPerNodeCountsFloorSpec) and raises the strict arm's incumbent
// to the highest of their levels. A hint without a gap is
// evaluated as-is; a hint with one is extended over every feasible
// count for the app in the gap (at most capCores leaf evaluations).
// Infeasible hints are silently skipped — seeding is purely an
// acceleration.
func (w *bnbWorker) seedIncumbent(prev []int) {
	nApps, floor, capCores := len(w.counts), w.floor, w.cores
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
		w.raiseBest(l)
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
		w.raiseBest(l)
	}
}
