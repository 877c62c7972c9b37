package roofline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// countingSpec is spec with its objective and bound calls counted.
type countingSpec struct {
	ObjectiveSpec
	objectives, bounds *int
}

func (s countingSpec) Objective(apps []App) Objective {
	obj := s.ObjectiveSpec.Objective(apps)
	return func(r *Result) float64 {
		*s.objectives++
		return obj(r)
	}
}

func (s countingSpec) Bound(m *machine.Machine, apps []App) BoundFunc {
	b := s.ObjectiveSpec.Bound(m, apps)
	if b == nil {
		return nil
	}
	return func(counts []int, pos, rem int) float64 {
		*s.bounds++
		return b(counts, pos, rem)
	}
}

// skylakeDiverseApps is the place_diverse draw cut to one SkylakeQuad
// solve: the first five apps of its generator (AI log-uniform in
// [1/32, 16], same seed), the first of them NUMA-bad on node 0. All five
// run at core peak under the 5 GB/s baseline share, so every leaf that
// fills the node — 3876 of the 15504 — ties the optimum to the ulp, and
// 2883 of them lie on its grid level.
func skylakeDiverseApps() []App {
	fixed := rand.New(rand.NewSource(20200518))
	apps := make([]App, 5)
	for i := range apps {
		apps[i] = App{Name: fmt.Sprintf("svc%d", i), AI: math.Exp(math.Log(1.0/32) + fixed.Float64()*math.Log(16*32))}
	}
	apps[0].Placement, apps[0].HomeNode = NUMABad, 0
	return apps
}

// TestPlateauStopsAtFirstOptimum pins the prune on the place_diverse-like
// plateau: the same answer as the naive enumeration, Stats agreeing with
// what the objective and bound saw, and at most 32 leaves scored. Under
// the exact first-in-order rule the search scored 3891 leaves, because
// the 3876 that fill the node tie only to the ulp and a later one might
// have won by one; on the grid they tie, so once the first of them is
// found every later subtree whose bound lies on its level is cut.
func TestPlateauStopsAtFirstOptimum(t *testing.T) {
	m, apps := machine.SkylakeQuad(), skylakeDiverseApps()
	floor := SolveFloor(m, len(apps))
	wantCounts, wantRes, err := naiveBestPerNodeCountsFloor(m, apps, TotalGFLOPS, floor)
	if err != nil {
		t.Fatal(err)
	}
	objectives, bounds := 0, 0
	s := &Search{Parallelism: 1}
	counts, _, res, err := s.BestPerNodeCountsFloorSpec(countingSpec{ObjTotalGFLOPS, &objectives, &bounds}, nil, m, apps, floor)
	if err != nil {
		t.Fatal(err)
	}
	if !intsEqual(counts, wantCounts) {
		t.Fatalf("counts %v, naive %v", counts, wantCounts)
	}
	if d := diffResults(wantRes, res); d != "" {
		t.Fatalf("result differs from the naive's: %s", d)
	}
	st := s.Stats()
	if want := (SearchStats{Solves: 1, Leaves: uint64(objectives), Bounds: uint64(bounds), Ties: st.Ties}); st != want {
		t.Errorf("Stats() = %+v, the spec saw %+v", st, want)
	}
	if st.Ties == 0 || st.Ties > st.Bounds {
		t.Errorf("Stats() = %+v: the tie arm cut %d subtrees", st, st.Ties)
	}
	if objectives > 32 {
		t.Errorf("%d leaves scored, want at most 32", objectives)
	}
	t.Logf("%d leaves scored, %d bound calls, %d tie cuts", objectives, bounds, st.Ties)
}

// TestSearchStatsAddUp: Stats sums every solve and worker, parallel
// fan-out and warm-start seeds included, and a bound-free solve makes no
// bound calls.
func TestSearchStatsAddUp(t *testing.T) {
	m, apps := machine.SkylakeQuad(), eightAppMix()
	var s Search
	objectives, bounds := 0, 0
	prev, _, _, err := s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, m, apps[:7], 1)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if before.Solves != 1 || before.Leaves == 0 || before.Bounds == 0 {
		t.Fatalf("after one pruned solve Stats() = %+v", before)
	}
	// A spec counting through a closure is not safe for parallel
	// workers; one Search serves both solves below sequentially.
	s.Parallelism = 1
	if _, _, _, err := s.BestPerNodeCountsFloorSpec(countingSpec{ObjTotalGFLOPS, &objectives, &bounds}, prev, m, apps, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.BestPerNodeCountsFloorSpec(countingSpec{BoundFree(TotalGFLOPS), &objectives, &bounds}, nil, machine.PaperModel(), paperApps(), 1); err != nil {
		t.Fatal(err)
	}
	got := s.Stats()
	want := SearchStats{Solves: before.Solves + 2, Leaves: before.Leaves + uint64(objectives), Bounds: before.Bounds + uint64(bounds), Ties: got.Ties}
	if got != want {
		t.Errorf("Stats() = %+v, want %+v", got, want)
	}
	if got.Ties > got.Bounds {
		t.Errorf("Stats() = %+v: more tie cuts than bound calls", got)
	}
	// A bound-free solve cuts nothing; a parallel plateau solve counts
	// every worker's cuts.
	s.Parallelism = 4
	noBound := s.Stats()
	if _, _, _, err := s.BestPerNodeCountsFloorSpec(BoundFree(TotalGFLOPS), nil, machine.PaperModel(), paperApps(), 1); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.Ties != noBound.Ties || got.Bounds != noBound.Bounds {
		t.Errorf("a bound-free solve moved Stats() from %+v to %+v", noBound, got)
	}
	if _, _, _, err := s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, machine.SkylakeQuad(), skylakeDiverseApps(), 1); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.Ties == noBound.Ties {
		t.Errorf("a parallel plateau solve cut no tie: Stats() = %+v", got)
	}
}

// plateauRound is the fuzz limb for the prune where it matters most: a
// plateauDemand draw, whose saturating leaves tie to the ulp so the
// incumbent sits on a plateau. Total-gflops and weighted-priority solves
// are checked against the naive enumeration at floors 0-2. Wired into
// FuzzEvaluatorEquivalence.
func plateauRound(t *testing.T, r *rand.Rand) {
	t.Helper()
	m, apps := plateauDemand(r)
	var s Search
	for floor := 0; floor <= 2; floor++ {
		for _, spec := range []ObjectiveSpec{ObjTotalGFLOPS, ObjWeightedPriority} {
			checkSearchMatchesNaive(t, fmt.Sprintf("plateau %d apps/%s/floor=%d", len(apps), spec.Name(), floor), &s, m, apps, spec, floor)
		}
	}
}

// plateauDemand draws a small machine and a demand set most of whose
// apps are compute-bound on every node even at a single core's
// bandwidth share (AI at least peak / (bandwidth / cores)).
func plateauDemand(r *rand.Rand) (*machine.Machine, []App) {
	nNodes := 1 + r.Intn(3)
	m := &machine.Machine{Name: "plateau-rand"}
	knee := 0.0 // the AI above which one thread computes at peak on every node
	for i := 0; i < nNodes; i++ {
		n := machine.Node{Cores: 4 + r.Intn(5), PeakGFLOPS: 0.25 + 4*r.Float64(), MemBandwidth: 4 + 60*r.Float64()}
		knee = max(knee, n.PeakGFLOPS*float64(n.Cores)/n.MemBandwidth)
		m.Nodes = append(m.Nodes, n)
	}
	nApps := 2 + r.Intn(4)
	apps := make([]App, nApps)
	for i := range apps {
		apps[i] = App{Name: fmt.Sprintf("p%d", i), AI: knee * (1 + 8*r.Float64())}
		if r.Intn(4) == 0 { // a bandwidth-bound one among them
			apps[i].AI = knee * (0.05 + 0.9*r.Float64())
		}
		if r.Intn(4) == 0 {
			apps[i].Placement, apps[i].HomeNode = NUMABad, machine.NodeID(r.Intn(nNodes))
		}
		if r.Intn(3) == 0 {
			apps[i].Weight = float64(1 + r.Intn(3))
		}
	}
	return m, apps
}

// TestPlateauMatchesNaiveRandomized runs plateauRound over seeded draws.
func TestPlateauMatchesNaiveRandomized(t *testing.T) {
	plateauSeeds(t)
}

// TestMarginAdmissibleRandomized runs marginRound over seeded draws.
func TestMarginAdmissibleRandomized(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		marginRound(t, rand.New(rand.NewSource(seed)))
	}
}

func plateauSeeds(t *testing.T) {
	t.Helper()
	for seed := int64(0); seed < 40; seed++ {
		plateauRound(t, rand.New(rand.NewSource(seed)))
	}
}

// marginRound is the fuzz limb for the margin that makes a bound
// admissible on the grid: for a plateauDemand draw — a third of the time
// on identical nodes, another third a randomMachine draw instead — it
// takes random partial assignments and asserts, for total-gflops and
// weighted-priority, that every completion's score lies on a level no
// higher than its bound's plus boundMargin. The plateau is where the
// bound is tight, so float noise alone decides which side of a grid line
// each lands on; on identical nodes a saturating leaf scores the
// compute ceiling, which is itself a grid line, to the ulp. Wired into
// FuzzEvaluatorEquivalence.
func marginRound(t *testing.T, r *rand.Rand) {
	t.Helper()
	m, apps := plateauDemand(r)
	switch r.Intn(3) {
	case 0:
		m = randomMachine(r)
		apps = randomApps(r, m)
		apps = apps[:min(4, len(apps))]
	case 1:
		for i := range m.Nodes {
			m.Nodes[i] = m.Nodes[0]
		}
	}
	g, margin, cores := NewScoreGrid(m), boundMargin(len(apps), m.NumNodes()), minCores(m)
	counts := make([]int, len(apps))
	for _, spec := range []ObjectiveSpec{ObjTotalGFLOPS, ObjWeightedPriority} {
		obj, bound := spec.Objective(apps), spec.Bound(m, apps)
		for trial := 0; trial < 4; trial++ {
			pos, used := r.Intn(len(apps)+1), 0
			for i := 0; i < pos; i++ {
				counts[i] = r.Intn(cores - used + 1)
				used += counts[i]
			}
			rem := r.Intn(cores - used + 1)
			b := bound(counts, pos, rem)
			limit := g.Level(b + margin*math.Abs(b))
			var rec func(i, left int)
			rec = func(i, left int) {
				if i < len(apps) {
					for c := 0; c <= left; c++ {
						counts[i] = c
						rec(i+1, left-c)
					}
					return
				}
				res, err := Evaluate(m, apps, MustPerNodeCounts(m, counts))
				if err != nil {
					t.Fatal(err)
				}
				if s := obj(res); g.Level(s) > limit {
					t.Fatalf("%s: leaf %v scores %v on level %v, its bound at pos %d, rem %d is %v on %v with the margin",
						spec.Name(), counts, s, g.Level(s), pos, rem, b, limit)
				}
			}
			rec(pos, rem)
		}
	}
}
