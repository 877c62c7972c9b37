package roofline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// checkSpecMatches solves (m, apps, floor) through spec and through a
// reference path and demands bit-identical counts and Results (or the
// same error). ref is typically the same spec stripped of its bound
// (for bound-admissibility: pruned and unpruned search must agree).
func checkSpecMatches(t *testing.T, label string, s *Search, spec ObjectiveSpec,
	m *machine.Machine, apps []App, floor int,
	ref func() ([]int, Allocation, *Result, error)) {
	t.Helper()
	gotCounts, _, gotRes, gotErr := s.BestPerNodeCountsFloorSpec(spec, nil, m, apps, floor)
	wantCounts, _, wantRes, wantErr := ref()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error mismatch: spec %v, ref %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !intsEqual(gotCounts, wantCounts) {
		t.Fatalf("%s: counts mismatch: spec %v, ref %v", label, gotCounts, wantCounts)
	}
	if d := diffResults(gotRes, wantRes); d != "" {
		t.Fatalf("%s: result mismatch: %s", label, d)
	}
}

// strippedSpec is spec with its bound removed: the search enumerates
// every candidate unpruned, so it is exact for any objective and serves
// as the admissibility oracle for the spec's bound.
type strippedSpec struct{ ObjectiveSpec }

func (strippedSpec) Bound(*machine.Machine, []App) BoundFunc { return nil }

func TestObjectiveSpecByName(t *testing.T) {
	for _, name := range []string{"", "total-gflops", "weighted-priority", "max-min"} {
		if _, err := ObjectiveSpecByName(name); err != nil {
			t.Fatalf("ObjectiveSpecByName(%q): %v", name, err)
		}
	}
	if spec, _ := ObjectiveSpecByName(""); spec.Name() != "total-gflops" {
		t.Fatalf("empty name resolved to %q, want total-gflops", spec.Name())
	}
	if _, err := ObjectiveSpecByName("bogus"); err == nil {
		t.Fatal("ObjectiveSpecByName(bogus): want error")
	}
}

// TestWeightedBoundAdmissiblePaperFixtures checks the weighted-priority
// bound differentially: the pruned solve must return exactly what the
// unpruned enumeration of the same objective returns. A single
// disagreement would mean the bound cut off an optimum, i.e. it is not
// admissible.
func TestWeightedBoundAdmissiblePaperFixtures(t *testing.T) {
	var s Search
	weightSets := [][]float64{
		{},                 // all unset: weighted must equal plain total
		{4, 1, 1, 1},       // one prioritized app
		{1, 2, 4, 8},       // geometric spread
		{8, 8, 1, 1},       // two classes
		{0.5, 1, 1, 0.125}, // fractional weights
	}
	for wi, weights := range weightSets {
		apps := paperApps()
		for i := range apps {
			if i < len(weights) {
				apps[i].Weight = weights[i]
			}
		}
		for _, floor := range []int{0, 1} {
			label := fmt.Sprintf("weights=%d/floor=%d", wi, floor)
			checkSpecMatches(t, label, &s, ObjWeightedPriority,
				machine.PaperModel(), apps, floor,
				func() ([]int, Allocation, *Result, error) {
					return s.BestPerNodeCountsFloorSpec(strippedSpec{ObjWeightedPriority}, nil,
						machine.PaperModel(), apps, floor)
				})
		}
	}
}

// TestMaxMinSpecMatchesLegacyObjective: the bound-free max-min spec
// must land exactly where the bare MinAppGFLOPS objective does through
// BoundFree.
func TestMaxMinSpecMatchesLegacyObjective(t *testing.T) {
	var s Search
	m := machine.PaperModel()
	apps := paperApps()
	for _, floor := range []int{0, 1} {
		checkSpecMatches(t, fmt.Sprintf("max-min/floor=%d", floor), &s, ObjMaxMinGFLOPS, m, apps, floor,
			func() ([]int, Allocation, *Result, error) {
				return s.BestPerNodeCountsFloorSpec(BoundFree(MinAppGFLOPS), nil, m, apps, floor)
			})
	}
}

// TestWeightedSpecPrefersPrioritizedApp is a semantic smoke test: under
// a strongly skewed weight the optimizer should never hand the
// prioritized app less throughput than the unweighted optimum does.
func TestWeightedSpecPrefersPrioritizedApp(t *testing.T) {
	var s Search
	m := machine.PaperModel()
	base := paperApps()
	_, _, plainRes, err := s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, m, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	weighted := paperApps()
	weighted[0].Weight = 64
	_, _, wRes, err := s.BestPerNodeCountsFloorSpec(ObjWeightedPriority, nil, m, weighted, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wRes.AppGFLOPS[0] < plainRes.AppGFLOPS[0] {
		t.Fatalf("weighted optimum gives app0 %.3f GFLOPS, below unweighted %.3f",
			wRes.AppGFLOPS[0], plainRes.AppGFLOPS[0])
	}
}

// TestWeightedBoundAdmissibleRandomized fuzzes the admissibility check
// over random machines, app mixes, and weights.
func TestWeightedBoundAdmissibleRandomized(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		objectiveRound(t, r)
	}
}

// objectiveRound is one randomized objective-equivalence check, also
// wired into FuzzEvaluatorEquivalence so the checked-in corpus replays
// it: (1) total-GFLOPS vs the naive exhaustive scan, (2)
// weighted-priority pruned vs unpruned, (3) max-min spec vs the bare
// MinAppGFLOPS objective — all bit-identical. Machines stay small so the
// unpruned references stay cheap.
func objectiveRound(t *testing.T, r *rand.Rand) {
	t.Helper()
	nNodes := 2 + r.Intn(2)
	m := &machine.Machine{Name: "obj-rand"}
	for i := 0; i < nNodes; i++ {
		m.Nodes = append(m.Nodes, machine.Node{
			Cores:        2 + r.Intn(4),
			PeakGFLOPS:   1 + 10*r.Float64(),
			MemBandwidth: 4 + 40*r.Float64(),
		})
	}
	nApps := 2 + r.Intn(3)
	apps := make([]App, nApps)
	for i := range apps {
		apps[i] = App{Name: fmt.Sprintf("oapp%d", i), AI: pow2(r.Float64()*8 - 4)}
		if r.Intn(3) > 0 {
			apps[i].Weight = pow2(float64(r.Intn(7) - 3))
		}
	}
	if r.Intn(2) == 0 {
		bad := r.Intn(nApps)
		apps[bad].Placement = NUMABad
		apps[bad].HomeNode = machine.NodeID(r.Intn(nNodes))
	}
	floor := r.Intn(2)
	var s Search
	checkSearchMatchesNaive(t, fmt.Sprintf("rand/total floor=%d", floor), &s, m, apps, ObjTotalGFLOPS, floor)
	checkSpecMatches(t, fmt.Sprintf("rand/weighted floor=%d", floor), &s, ObjWeightedPriority, m, apps, floor,
		func() ([]int, Allocation, *Result, error) {
			return s.BestPerNodeCountsFloorSpec(strippedSpec{ObjWeightedPriority}, nil, m, apps, floor)
		})
	checkSpecMatches(t, fmt.Sprintf("rand/max-min floor=%d", floor), &s, ObjMaxMinGFLOPS, m, apps, floor,
		func() ([]int, Allocation, *Result, error) {
			return s.BestPerNodeCountsFloorSpec(BoundFree(MinAppGFLOPS), nil, m, apps, floor)
		})
}

// TestUnweightedPriorityIsTotal: on demand sets that set no weight the
// weighted-priority spec is the total-GFLOPS spec float for float — the
// same bound at every search node, the same counts, Result and score,
// and the same work counted in Stats.
func TestUnweightedPriorityIsTotal(t *testing.T) {
	var total, weighted Search
	check := func(label string, r *rand.Rand, m *machine.Machine, apps []App) {
		t.Helper()
		tb, wb := ObjTotalGFLOPS.Bound(m, apps), ObjWeightedPriority.Bound(m, apps)
		counts := make([]int, len(apps))
		for k := 0; k < 64; k++ {
			pos, rem := r.Intn(len(apps)), r.Intn(minCores(m)+1)
			for i := range counts[:pos] {
				counts[i] = r.Intn(minCores(m) + 1)
			}
			if a, b := tb(counts, pos, rem), wb(counts, pos, rem); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: bound(%v, %d, %d) = %v total-gflops, %v weighted-priority", label, counts[:pos], pos, rem, a, b)
			}
		}
		floor := r.Intn(2)
		checkSpecMatches(t, label, &weighted, ObjWeightedPriority, m, apps, floor, func() ([]int, Allocation, *Result, error) {
			return total.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, m, apps, floor)
		})
		tc, ts, terr := total.Solve(ObjTotalGFLOPS, nil, m, apps)
		wc, ws, werr := weighted.Solve(ObjWeightedPriority, nil, m, apps)
		if (terr == nil) != (werr == nil) || !intsEqual(tc, wc) || math.Float64bits(ts) != math.Float64bits(ws) {
			t.Fatalf("%s: Solve = %v %v %v total-gflops, %v %v %v weighted-priority", label, tc, ts, terr, wc, ws, werr)
		}
		if a, b := total.Stats(), weighted.Stats(); a != b {
			t.Fatalf("%s: Stats() = %+v total-gflops, %+v weighted-priority", label, a, b)
		}
	}
	r := rand.New(rand.NewSource(1))
	for _, c := range append(paperFixtures(), largeFixtures()[:2]...) {
		check(c.name, r, c.m, c.apps)
	}
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := randomMachine(r)
		check(fmt.Sprintf("seed=%d", seed), r, m, randomApps(r, m))
	}
}
