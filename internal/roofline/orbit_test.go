package roofline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/machine"
)

// asymmetricSpec is spec with its symmetry declaration withdrawn: the
// search walks every row, as it did before it knew about orbits.
type asymmetricSpec struct{ ObjectiveSpec }

func (asymmetricSpec) Symmetric() bool { return false }

// sameRun is the test's own statement of interchangeability, pairwise
// and without the search's run table.
func sameRun(a, b App) bool {
	w := func(a App) float64 {
		if a.Weight <= 0 {
			return 1
		}
		return a.Weight
	}
	if a.AI != b.AI || a.Placement != b.Placement || w(a) != w(b) {
		return false
	}
	return a.Placement == NUMAPerfect || a.HomeNode == b.HomeNode
}

// naiveCanonical: no two apps of a run are out of order.
func naiveCanonical(apps []App, counts []int) bool {
	for i := range apps {
		for j := i + 1; j < len(apps); j++ {
			if sameRun(apps[i], apps[j]) && counts[i] > counts[j] {
				return false
			}
		}
	}
	return true
}

// naiveBest is one optimum of the naive reference enumeration: the first
// leaf with the highest key.
type naiveBest struct {
	key, score float64
	counts     []int
	res        *Result
}

func (b *naiveBest) offer(key, score float64, counts []int, res *Result) {
	if b.res == nil || key > b.key {
		b.key, b.score, b.counts, b.res = key, score, slices.Clone(counts), res
	}
}

// naiveOrbitOptima walks every row of the per-node-counts enumeration in
// the search's order with the reference model and returns two optima
// under the grid and the exact rule (naiveOptimum): over all rows (the
// enumeration the search was before it knew about orbits) and over the
// canonical rows only (when symmetric; all rows otherwise). leaves
// counts the latter.
func naiveOrbitOptima(m *machine.Machine, apps []App, obj Objective, symmetric bool, floor int) (all, canon naiveOptimum, leaves int) {
	all.g, canon.g = NewScoreGrid(m), NewScoreGrid(m)
	counts := make([]int, len(apps))
	var rec func(pos, remaining int)
	rec = func(pos, remaining int) {
		if pos < len(apps) {
			for c := floor; c <= remaining; c++ {
				counts[pos] = c
				rec(pos+1, remaining-c)
			}
			return
		}
		res, err := Evaluate(m, apps, MustPerNodeCounts(m, counts))
		if err != nil {
			return
		}
		score := obj(res)
		all.offer(score, counts, res)
		if !symmetric || naiveCanonical(apps, counts) {
			leaves++
			canon.offer(score, counts, res)
		}
	}
	rec(0, minCores(m))
	return all, canon, leaves
}

// checkOrbitContract holds one solve to the statements of
// BestPerNodeCountsFloorSpec's symmetry contract that a single solve can
// show: (a) bit-identical to the naive enumeration restricted to
// canonical rows; (b) against the unrestricted one, the very same row
// and bits whenever its optimum is a canonical row, and otherwise — a
// permuted row can only win on the summation order of its total — the
// same objective value to 1e-9 relative; and the leaves scored without
// a bound are exactly the canonical rows. It reports whether the
// unrestricted optimum was canonical.
func checkOrbitContract(t *testing.T, label string, m *machine.Machine, apps []App, spec ObjectiveSpec, floor int) (exact bool) {
	t.Helper()
	obj := spec.Objective(apps)
	allRules, canonRules, leaves := naiveOrbitOptima(m, apps, obj, spec.Symmetric(), floor)
	checkGridOptimum(t, label, canonRules)
	all, canon := allRules.grid, canonRules.grid

	s, _ := watchedSearch()
	scored := 0
	counts, al, res, err := s.BestPerNodeCountsFloorSpec(leafWatchSpec{spec, func() { scored++ }}, nil, m, apps, floor)
	if canon.res == nil {
		if !errors.Is(err, ErrNoAllocation) {
			t.Fatalf("%s: no feasible row, search returned %v, %v", label, counts, err)
		}
		return true
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}

	// (a)
	if !intsEqual(counts, canon.counts) {
		t.Fatalf("%s: counts %v, canonical naive %v", label, counts, canon.counts)
	}
	if d := diffResults(canon.res, res); d != "" {
		t.Fatalf("%s: result differs from the canonical naive's: %s", label, d)
	}
	if want := MustPerNodeCounts(m, counts); !slices.EqualFunc(al.Threads, want.Threads, slices.Equal[[]int]) {
		t.Fatalf("%s: allocation %v is not PerNodeCounts(%v)", label, al.Threads, counts)
	}
	if !Canonical(spec, apps, counts) {
		t.Fatalf("%s: returned row %v is not Canonical", label, counts)
	}

	// (b)
	exact = !spec.Symmetric() || naiveCanonical(apps, all.counts)
	if exact && (!intsEqual(counts, all.counts) || diffResults(all.res, res) != "") {
		t.Fatalf("%s: optimum %v, the unrestricted naive's is the canonical row %v", label, counts, all.counts)
	}
	if got := obj(res); math.Abs(got-all.score) > 1e-9*math.Abs(all.score) {
		t.Fatalf("%s: objective %v at %v, unrestricted naive %v at %v", label, got, counts, all.score, all.counts)
	}

	// Leaves.
	if spec.Bound(m, apps) == nil && scored != leaves {
		t.Fatalf("%s: scored %d leaves unpruned, the canonical rows are %d", label, scored, leaves)
	}
	return exact
}

// orbitDemand draws a small machine and a demand set built from runs of
// 2-6 identical apps: NUMA-perfect runs, NUMA-bad runs sharing a home,
// a weighted run, plus near misses that must NOT merge (same AI but
// another weight, another home) and, half the time, a shuffle so that a
// run's members are split by other apps and prevSame is non-adjacent.
func orbitDemand(r *rand.Rand) (*machine.Machine, []App) {
	nNodes := 1 + r.Intn(3)
	node := machine.Node{Cores: 4 + r.Intn(4), PeakGFLOPS: 1 + 10*r.Float64(), MemBandwidth: 4 + 40*r.Float64()}
	m := &machine.Machine{Name: "orbit-rand"}
	for i := 0; i < nNodes; i++ {
		n := node
		if r.Intn(4) == 0 { // a second class of node
			n.MemBandwidth *= 2
		}
		m.Nodes = append(m.Nodes, n)
	}
	var apps []App
	add := func(a App, n int) {
		for ; n > 0 && len(apps) < 7; n-- {
			a.Name = fmt.Sprintf("o%d", len(apps))
			apps = append(apps, a)
		}
	}
	base := App{AI: pow2(r.Float64()*8 - 4)}
	if r.Intn(3) == 0 {
		base.Placement, base.HomeNode = NUMABad, machine.NodeID(r.Intn(nNodes))
	}
	add(base, 2+r.Intn(5))
	for len(apps) < 3 || (len(apps) < 7 && r.Intn(2) == 0) {
		switch r.Intn(5) {
		case 0: // a second run
			add(App{AI: pow2(r.Float64()*8 - 4)}, 2+r.Intn(2))
		case 1: // same demand, another weight: a run of its own
			a := base
			a.Weight = 2
			add(a, 1+r.Intn(2))
		case 2: // explicit weight 1 is the unset weight: joins the run
			a := base
			a.Weight = 1
			add(a, 1)
		case 3: // the same AI, NUMA-bad on some home: its own run per home
			a := App{AI: base.AI, Placement: NUMABad, HomeNode: machine.NodeID(r.Intn(nNodes))}
			add(a, 1+r.Intn(2))
		default: // a singleton
			add(App{AI: pow2(r.Float64()*8 - 4)}, 1)
		}
	}
	if r.Intn(2) == 0 {
		r.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	}
	return m, apps
}

// orbitRound is the fuzz limb for symmetry breaking: one orbitDemand
// draw under the three built-in objectives (weighted-priority also
// without its bound) and a spec that declares no symmetry, at floors
// 0-2. Wired into FuzzEvaluatorEquivalence.
func orbitRound(t *testing.T, r *rand.Rand) (solves, exact int) {
	t.Helper()
	m, apps := orbitDemand(r)
	specs := []ObjectiveSpec{
		ObjTotalGFLOPS,
		ObjWeightedPriority,
		strippedSpec{ObjWeightedPriority},
		ObjMaxMinGFLOPS,
		asymmetricSpec{ObjTotalGFLOPS},
	}
	for floor := 0; floor <= 2; floor++ {
		for si, spec := range specs {
			solves++
			if checkOrbitContract(t, fmt.Sprintf("%d apps/spec %d %s/floor=%d", len(apps), si, spec.Name(), floor), m, apps, spec, floor) {
				exact++
			}
		}
	}
	return solves, exact
}

// TestSearchWalksOneLeafPerOrbitRandomized runs orbitRound over seeded
// draws. Float sums are not permutation-invariant, so now and then the
// unrestricted enumeration prefers a permuted row by an ulp and only
// the 1e-9 half of (b) applies; the bit-for-bit half must carry most
// solves or the test shows little.
func TestSearchWalksOneLeafPerOrbitRandomized(t *testing.T) {
	solves, exact := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		n, e := orbitRound(t, rand.New(rand.NewSource(seed)))
		solves, exact = solves+n, exact+e
	}
	t.Logf("%d solves, %d where the unrestricted optimum is a canonical row", solves, exact)
	if exact*10 < solves*9 {
		t.Errorf("only %d of %d unrestricted optima are canonical rows", exact, solves)
	}
}

// TestOrbitContractPaperFixtures: the paper's own demand sets are runs
// of three replicas and one other app.
func TestOrbitContractPaperFixtures(t *testing.T) {
	for _, c := range paperFixtures() {
		for floor := 0; floor <= 2; floor++ {
			for _, spec := range []ObjectiveSpec{ObjTotalGFLOPS, ObjWeightedPriority, ObjMaxMinGFLOPS} {
				label := fmt.Sprintf("%s/%s/floor=%d", c.name, spec.Name(), floor)
				if !checkOrbitContract(t, label, c.m, c.apps, spec, floor) {
					t.Errorf("%s: the unrestricted optimum is not a canonical row", label)
				}
			}
		}
	}
}

// TestCanonicalMatchesPairwiseDefinition holds Canonical and the run
// table to the pairwise definition on every row of random demand sets.
func TestCanonicalMatchesPairwiseDefinition(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		_, apps := orbitDemand(r)
		n := len(apps)
		prevSame, runLeft := make([]int, n), make([]int, n)
		linkRuns(true, apps, prevSame, runLeft)
		for i := range apps {
			prev, left := -1, 0
			for j := range apps {
				if same := sameRun(apps[i], apps[j]); same != Interchangeable(apps[i], apps[j]) {
					t.Fatalf("seed %d: Interchangeable(%+v, %+v) = %v", seed, apps[i], apps[j], !same)
				} else if same && j < i {
					prev = j
				} else if same {
					left++
				}
			}
			if prevSame[i] != prev || runLeft[i] != left {
				t.Fatalf("seed %d: app %d links to %d with %d left, want %d and %d", seed, i, prevSame[i], runLeft[i], prev, left)
			}
		}
		counts := make([]int, n)
		for trial := 0; trial < 200; trial++ {
			for i := range counts {
				counts[i] = r.Intn(3)
			}
			if got, want := Canonical(ObjTotalGFLOPS, apps, counts), naiveCanonical(apps, counts); got != want {
				t.Fatalf("seed %d: Canonical(%v) = %v, pairwise definition says %v", seed, counts, got, want)
			}
			if !Canonical(BoundFree(TotalGFLOPS), apps, counts) {
				t.Fatalf("seed %d: a spec without symmetry has a non-canonical row %v", seed, counts)
			}
		}
	}
}

// TestAsymmetricSpecIsNeverSymmetryBroken: an objective that tells
// identical apps apart has its optimum off the canonical rows — the
// Table I streams under weights {3,1,1,1} and floor 0 get (1,0,0,7) —
// so a spec that does not declare symmetry must be walked whole,
// however its apps look.
func TestAsymmetricSpecIsNeverSymmetryBroken(t *testing.T) {
	m, apps := machine.PaperModel(), paperApps()
	spec := BoundFree(WeightedAppGFLOPS([]float64{3, 1, 1, 1}))
	s, _ := watchedSearch()
	scored := 0
	counts, _, res, err := s.BestPerNodeCountsFloorSpec(leafWatchSpec{spec, func() { scored++ }}, nil, m, apps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 495; scored != want { // C(8+4, 4) rows of at most 8 cores over 4 apps
		t.Errorf("scored %d leaves, want all %d", scored, want)
	}
	allRules, _, _ := naiveOrbitOptima(m, apps, spec.Objective(apps), false, 0)
	all := allRules.grid
	if !intsEqual(counts, all.counts) || diffResults(all.res, res) != "" {
		t.Errorf("optimum %v, the exhaustive enumeration's is %v", counts, all.counts)
	}
	if Canonical(ObjTotalGFLOPS, apps, counts) {
		t.Errorf("optimum %v is a canonical row of the three streams: the fixture no longer shows why the declaration matters", counts)
	}
}

// TestSymmetryBreakingScoresTenTimesFewerLeaves pins the point of the
// exercise on replica-heavy demand sets: the same optimum as the walk
// over every permutation, and at least 10x fewer leaves scored without a
// bound (with one, both stop on the plateau within a few dozen).
func TestSymmetryBreakingScoresTenTimesFewerLeaves(t *testing.T) {
	replicas := func(n int, a App) []App {
		apps := make([]App, n)
		for i := range apps {
			apps[i] = a
			apps[i].Name = fmt.Sprintf("%s%d", a.Name, i)
		}
		return apps
	}
	cases := []fixture{
		{"0.5x5+10/KNLSNC4", machine.KNLSNC4(), append(replicas(5, App{Name: "mem", AI: 0.5}), App{Name: "comp", AI: 10})},
		{"tableIIIx2/SkylakeQuad", machine.SkylakeQuad(), append(tableIIIApps(), tableIIIApps()...)},
	}
	for _, c := range cases {
		solve := func(spec ObjectiveSpec) ([]int, float64, int) {
			s, _ := watchedSearch()
			scored := 0
			counts, total, _, err := s.Solve(leafWatchSpec{spec, func() { scored++ }}, nil, c.m, c.apps)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return counts, total, scored
		}
		counts, total, _ := solve(ObjTotalGFLOPS)
		allCounts, allTotal, _ := solve(asymmetricSpec{ObjTotalGFLOPS})
		if !intsEqual(counts, allCounts) || total != allTotal {
			t.Errorf("%s: optimum %v (%v GFLOPS), over every permutation %v (%v)", c.name, counts, total, allCounts, allTotal)
		}
		_, _, scored := solve(strippedSpec{ObjTotalGFLOPS})
		_, _, allScored := solve(asymmetricSpec{strippedSpec{ObjTotalGFLOPS}})
		if scored*10 > allScored {
			t.Errorf("%s: scored %d leaves, %d over every permutation: less than 10x fewer", c.name, scored, allScored)
		}
		t.Logf("%s: %d leaves scored, %d over every permutation", c.name, scored, allScored)
	}
}
