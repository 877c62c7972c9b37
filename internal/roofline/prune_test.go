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
// fills the node — 3876 of the 15504 — ties the optimum.
func skylakeDiverseApps() []App {
	fixed := rand.New(rand.NewSource(20200518))
	apps := make([]App, 5)
	for i := range apps {
		apps[i] = App{Name: fmt.Sprintf("svc%d", i), AI: math.Exp(math.Log(1.0/32) + fixed.Float64()*math.Log(16*32))}
	}
	apps[0].Placement, apps[0].HomeNode = NUMABad, 0
	return apps
}

// TestLastLevelPruneScoresFewerLeaves pins the range prune of the last
// app's leaves on the place_diverse-like fixture: the same answer as the
// naive enumeration, Stats agreeing with what the objective and bound
// saw, and at least 2x fewer bound calls than the search that bounded
// every leaf it reached on its own made (21699 bounds, 3891 leaves
// scored). No admissible bound can score fewer than the 3876 ties.
func TestLastLevelPruneScoresFewerLeaves(t *testing.T) {
	const perLeafBounds = 21699
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
	if got, want := s.Stats(), (SearchStats{Solves: 1, Leaves: uint64(objectives), Bounds: uint64(bounds)}); got != want {
		t.Errorf("Stats() = %+v, the spec saw %+v", got, want)
	}
	if bounds*2 > perLeafBounds {
		t.Errorf("%d bound calls, %d when every leaf was bounded: less than 2x fewer", bounds, perLeafBounds)
	}
	t.Logf("%d leaves scored, %d bound calls (bounding every leaf: %d)", objectives, bounds, perLeafBounds)
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
	want := SearchStats{Solves: before.Solves + 2, Leaves: before.Leaves + uint64(objectives), Bounds: before.Bounds + uint64(bounds)}
	if got != want {
		t.Errorf("Stats() = %+v, want %+v", got, want)
	}
}

// plateauRound is the fuzz limb for the range prune where it matters
// most: a small machine and a demand set most of whose apps are
// compute-bound on every node even at a single core's bandwidth share
// (AI at least peak / (bandwidth / cores)), so the saturating leaves tie
// to the ulp and the incumbent sits on a plateau. Total-gflops and
// weighted-priority solves are checked against the naive enumeration at
// floors 0-2. Wired into FuzzEvaluatorEquivalence.
func plateauRound(t *testing.T, r *rand.Rand) {
	t.Helper()
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
	var s Search
	for floor := 0; floor <= 2; floor++ {
		for _, spec := range []ObjectiveSpec{ObjTotalGFLOPS, ObjWeightedPriority} {
			checkSearchMatchesNaive(t, fmt.Sprintf("plateau %d apps/%s/floor=%d", nApps, spec.Name(), floor), &s, m, apps, spec, floor)
		}
	}
}

// TestPlateauMatchesNaiveRandomized runs plateauRound over seeded draws.
func TestPlateauMatchesNaiveRandomized(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		plateauRound(t, rand.New(rand.NewSource(seed)))
	}
}
