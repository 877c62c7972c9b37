package roofline

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/machine"
)

// checkWarmMatchesCold solves (m, apps, spec, floor) cold and
// warm-started from prev and demands bit-identical counts and Results
// (or the same error). This is the contract the fleet scorer's memo
// relies on: a warm-started solve is indistinguishable from a cold one.
func checkWarmMatchesCold(t *testing.T, label string, s *Search, m *machine.Machine, apps []App, spec ObjectiveSpec, floor int, prev []int) {
	t.Helper()
	coldCounts, _, coldRes, coldErr := s.BestPerNodeCountsFloorSpec(spec, nil, m, apps, floor)
	warmCounts, _, warmRes, warmErr := s.BestPerNodeCountsFloorSpec(spec, prev, m, apps, floor)
	if (coldErr == nil) != (warmErr == nil) {
		t.Fatalf("%s: error mismatch: cold %v, warm %v", label, coldErr, warmErr)
	}
	if coldErr != nil {
		return
	}
	if !intsEqual(coldCounts, warmCounts) {
		t.Fatalf("%s: counts mismatch: cold %v (score %v), warm %v (score %v)",
			label, coldCounts, coldRes.TotalGFLOPS, warmCounts, warmRes.TotalGFLOPS)
	}
	if d := diffResults(coldRes, warmRes); d != "" {
		t.Fatalf("%s: result mismatch: %s", label, d)
	}
}

// TestWarmStartBitIdenticalPaperFixtures walks every paper fixture
// through the ±1-app warm-start paths: for each demand set, solve it
// cold, then (a) re-solve warm-started from its own optimum, (b) solve
// the set minus each app warm-started from the optimum with that app's
// entry dropped, and (c) solve the set plus a newcomer warm-started
// from the full previous optimum (the one-short hint). All must be
// bit-identical to cold solves.
func TestWarmStartBitIdenticalPaperFixtures(t *testing.T) {
	var s Search
	cases := []struct {
		name string
		m    *machine.Machine
		apps []App
	}{
		{"paper-model", machine.PaperModel(), paperApps()},
		{"paper-model-bad", machine.PaperModelNUMABad(), numaBadApps()},
		{"skylake", machine.SkylakeQuad(), tableIIIApps()},
		{"skylake-bad", machine.SkylakeQuad(), tableIIIBadApps()},
	}
	newcomers := []App{
		{Name: "newcomer-mem", AI: 0.5},
		{Name: "newcomer-comp", AI: 10},
		{Name: "newcomer-bad", AI: 0.25, Placement: NUMABad, HomeNode: 0},
	}
	for _, c := range cases {
		for _, floor := range []int{0, 1} {
			prev, _, _, err := s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, c.m, c.apps, floor)
			if err != nil {
				t.Fatalf("%s/floor=%d: cold solve: %v", c.name, floor, err)
			}
			// (a) identical demand set, full-length hint.
			checkWarmMatchesCold(t, fmt.Sprintf("%s/floor=%d/same", c.name, floor),
				&s, c.m, c.apps, ObjTotalGFLOPS, floor, prev)
			// (b) each app removed, hint with its entry dropped.
			for drop := range c.apps {
				rest := make([]App, 0, len(c.apps)-1)
				hint := make([]int, 0, len(prev)-1)
				for i := range c.apps {
					if i == drop {
						continue
					}
					rest = append(rest, c.apps[i])
					hint = append(hint, prev[i])
				}
				checkWarmMatchesCold(t, fmt.Sprintf("%s/floor=%d/drop=%d", c.name, floor, drop),
					&s, c.m, rest, ObjTotalGFLOPS, floor, hint)
			}
			// (c) a newcomer appended, one-short hint.
			for _, nc := range newcomers {
				with := append(append([]App(nil), c.apps...), nc)
				checkWarmMatchesCold(t, fmt.Sprintf("%s/floor=%d/add=%s", c.name, floor, nc.Name),
					&s, c.m, with, ObjTotalGFLOPS, floor, prev)
			}
		}
	}
}

// TestWarmStartGapAtEveryIndex: a newcomer may land anywhere in the
// search order (the daemons solve in key order, not arrival order), and
// the hint says where with a negative entry. Wherever the gap is the
// result is bit-identical to cold — and the hint is honoured, not
// ignored: the search scores no more leaves than cold plus its seeds,
// on some fixture strictly fewer, and a gap at the end costs exactly
// what the one-short form of the same hint does.
func TestWarmStartGapAtEveryIndex(t *testing.T) {
	newcomers := []App{
		{Name: "newcomer-mem", AI: 0.5},
		{Name: "newcomer-comp", AI: 10},
		{Name: "newcomer-bad", AI: 0.25, Placement: NUMABad, HomeNode: 0},
	}
	pruned := false
	for _, c := range paperFixtures() {
		for _, floor := range []int{0, 1} {
			s, _ := watchedSearch()
			prev, _, _, err := s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, c.m, c.apps, floor)
			if err != nil {
				t.Fatalf("%s/floor=%d: cold solve: %v", c.name, floor, err)
			}
			for _, nc := range newcomers {
				for gap := 0; gap <= len(c.apps); gap++ {
					label := fmt.Sprintf("%s/floor=%d/add=%s/gap=%d", c.name, floor, nc.Name, gap)
					with := slices.Insert(slices.Clone(c.apps), gap, nc)
					hint := slices.Insert(slices.Clone(prev), gap, -1)
					checkWarmMatchesCold(t, label, s, c.m, with, ObjTotalGFLOPS, floor, hint)

					leaves := 0
					watch := leafWatchSpec{ObjTotalGFLOPS, func() { leaves++ }}
					s.BestPerNodeCountsFloorSpec(watch, nil, c.m, with, floor)
					cold := leaves
					leaves = 0
					s.BestPerNodeCountsFloorSpec(watch, hint, c.m, with, floor)
					if leaves > cold+minCores(c.m)+1 {
						t.Errorf("%s: hinted search scored %d leaves, cold %d", label, leaves, cold)
					}
					pruned = pruned || leaves < cold
					if gap == len(c.apps) {
						// The one-short form is the same hint.
						warm := leaves
						leaves = 0
						s.BestPerNodeCountsFloorSpec(watch, prev, c.m, with, floor)
						if leaves != warm {
							t.Errorf("%s: one-short hint scored %d leaves, the explicit gap %d", label, leaves, warm)
						}
					}
				}
			}
		}
	}
	if !pruned {
		t.Error("no gap hint on any fixture saved a single leaf: the gap is being ignored")
	}
}

// TestWarmStartPlateauTieLaterInOrder: on the SkylakeQuad plateau a
// hint that ties the cold answer on the grid but comes later in
// enumeration order raises the strict incumbent to the answer's own
// level. The tie arm must not read it: it would cut every subtree on
// that level, the answer's included.
func TestWarmStartPlateauTieLaterInOrder(t *testing.T) {
	m, apps := machine.SkylakeQuad(), skylakeDiverseApps()
	var s Search
	cold, _, res, err := s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, m, apps, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := NewScoreGrid(m)
	for _, hint := range [][]int{{16, 1, 1, 1, 1}, {1, 1, 16, 1, 1}, {4, 4, 4, 4, 4}} {
		hres, err := Evaluate(m, apps, MustPerNodeCounts(m, hint))
		if err != nil {
			t.Fatal(err)
		}
		if g.Level(hres.TotalGFLOPS) != g.Level(res.TotalGFLOPS) || slices.Compare(hint, cold) <= 0 {
			t.Fatalf("hint %v (%v) is not a tie of the answer %v (%v) later in order", hint, hres.TotalGFLOPS, cold, res.TotalGFLOPS)
		}
		checkWarmMatchesCold(t, fmt.Sprintf("plateau/hint=%v", hint), &s, m, apps, ObjTotalGFLOPS, 1, hint)
		for _, p := range []int{1, 4} {
			par := Search{Parallelism: p}
			checkWarmMatchesCold(t, fmt.Sprintf("plateau/hint=%v/par=%d", hint, p), &par, m, apps, ObjTotalGFLOPS, 1, hint)
		}
	}
}

// TestWarmStartGarbageHints feeds hints that must be ignored — wrong
// lengths, floors violated, over-subscribed budgets, negatives — and
// demands the solve still exactly matches cold.
func TestWarmStartGarbageHints(t *testing.T) {
	var s Search
	m := machine.PaperModel()
	apps := paperApps()
	hints := [][]int{
		{},
		{1},
		{1, 1},
		{1, 1, 1, 1, 1, 1}, // too long
		{0, 0, 0},          // one short but violates floor 1
		{5, 5, 5, 5},       // over-subscribes the 8-core nodes
		{-1, 2, 2, 2},      // negative entry
		{100, 100, 100},    // one short, wildly over budget
		{8, 0, 0, 0},       // floor-0-shaped full hint under floor 1
	}
	for i, hint := range hints {
		checkWarmMatchesCold(t, fmt.Sprintf("garbage-hint-%d", i), &s, m, apps, ObjTotalGFLOPS, 1, hint)
		checkWarmMatchesCold(t, fmt.Sprintf("garbage-hint-%d-floor0", i), &s, m, apps, ObjTotalGFLOPS, 0, hint)
	}
	// Unpruned objective: hints must be inert there too.
	checkWarmMatchesCold(t, "min-app-objective", &s, m, apps, ObjMaxMinGFLOPS, 1, []int{1, 1, 1, 5})
}

// TestWarmStartInfeasible covers the ErrNoAllocation edges with hints
// present: the warm path must report exactly what the cold path does.
func TestWarmStartInfeasible(t *testing.T) {
	var s Search
	m := machine.PaperModel() // 8 cores per node
	apps := paperApps()       // floor 3 needs 12 cores per node
	checkWarmMatchesCold(t, "oversubscribed-floor", &s, m, apps, ObjTotalGFLOPS, 3, []int{2, 2, 2, 2})
	bad := []App{{Name: "neg", AI: -2}}
	checkWarmMatchesCold(t, "invalid-app", &s, m, bad, ObjTotalGFLOPS, 0, []int{1})
}

// TestWarmStartRandomized fuzzes the ±1 warm-start equivalence over
// random machines and app mixes (NUMA-bad included), floors 0-2: solve
// a base set cold, then check the +1 (append) and −1 (drop) neighbour
// solves warm-started from the base optimum against cold solves.
func TestWarmStartRandomized(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		warmStartRound(t, r)
	}
}

// warmStartRound is one randomized warm-start equivalence check, also
// wired into FuzzEvaluatorEquivalence so the checked-in corpus replays
// it. Machines stay small so the cold reference stays cheap.
func warmStartRound(t *testing.T, r *rand.Rand) {
	t.Helper()
	nNodes := 2 + r.Intn(2)
	m := &machine.Machine{Name: "warm-rand"}
	for i := 0; i < nNodes; i++ {
		m.Nodes = append(m.Nodes, machine.Node{
			Cores:        2 + r.Intn(5),
			PeakGFLOPS:   1 + 10*r.Float64(),
			MemBandwidth: 4 + 40*r.Float64(),
		})
	}
	if r.Intn(2) == 0 {
		m.LinkBandwidth = make([][]float64, nNodes)
		for i := range m.LinkBandwidth {
			m.LinkBandwidth[i] = make([]float64, nNodes)
			for j := range m.LinkBandwidth[i] {
				if i != j {
					m.LinkBandwidth[i][j] = 1 + 20*r.Float64()
				}
			}
		}
	}
	nApps := 2 + r.Intn(3)
	apps := make([]App, nApps)
	for i := range apps {
		apps[i] = App{Name: fmt.Sprintf("wapp%d", i), AI: pow2(r.Float64()*8 - 4)}
	}
	if r.Intn(2) == 0 {
		bad := r.Intn(nApps)
		apps[bad].Placement = NUMABad
		apps[bad].HomeNode = machine.NodeID(r.Intn(nNodes))
	}
	floor := r.Intn(3)
	var s Search
	prev, _, _, err := s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, m, apps, floor)
	if err != nil {
		return // infeasible base (floors over-subscribe); nothing to warm-start
	}
	// +1: a newcomer appended, warm-started from the base optimum.
	newcomer := App{Name: "wapp-new", AI: pow2(r.Float64()*8 - 4)}
	if r.Intn(3) == 0 {
		newcomer.Placement = NUMABad
		newcomer.HomeNode = machine.NodeID(r.Intn(nNodes))
	}
	with := append(append([]App(nil), apps...), newcomer)
	checkWarmMatchesCold(t, fmt.Sprintf("rand/+1 floor=%d", floor), &s, m, with, ObjTotalGFLOPS, floor, prev)
	// −1: one app dropped, warm-started from the base optimum minus its
	// entry.
	drop := r.Intn(nApps)
	rest := make([]App, 0, nApps-1)
	hint := make([]int, 0, nApps-1)
	for i := range apps {
		if i == drop {
			continue
		}
		rest = append(rest, apps[i])
		hint = append(hint, prev[i])
	}
	if len(rest) > 0 {
		checkWarmMatchesCold(t, fmt.Sprintf("rand/-1 floor=%d", floor), &s, m, rest, ObjTotalGFLOPS, floor, hint)
	}
}
