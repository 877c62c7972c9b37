package roofline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// servedSpecs are the specs servedRound solves every draw under: the
// three built-in ones and a bound-free wrapper, which claims no
// symmetry either.
var servedSpecs = []ObjectiveSpec{ObjTotalGFLOPS, ObjWeightedPriority, ObjMaxMinGFLOPS, BoundFree(MinAppGFLOPS)}

// servedDraw is one demand set of servedRound: big on even steps and
// small on odd ones, so every table a pooled worker keeps is refitted
// over both a larger and a smaller predecessor. Its nodes come in two
// hardware kinds (shared and singleton classes), and about half its
// apps are NUMA-bad with homes drawn anew each time; some steps have no
// app at all.
func servedDraw(r *rand.Rand, step int) (*machine.Machine, []App) {
	nNodes, nApps := 3+r.Intn(2), 3+r.Intn(3)
	if step%2 == 1 {
		nNodes, nApps = 1+r.Intn(2), r.Intn(3)
	}
	kinds := [2]machine.Node{}
	for i := range kinds {
		kinds[i] = machine.Node{
			Cores:        2 + r.Intn(4),
			PeakGFLOPS:   1 + 10*r.Float64(),
			MemBandwidth: 4 + 40*r.Float64(),
		}
	}
	m := &machine.Machine{Name: "served-rand"}
	for i := 0; i < nNodes; i++ {
		m.Nodes = append(m.Nodes, kinds[r.Intn(2)])
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
	apps := make([]App, nApps)
	for i := range apps {
		apps[i] = App{Name: fmt.Sprintf("sapp%d", i), AI: pow2(r.Float64()*8 - 4)}
		if r.Intn(2) == 0 {
			apps[i].Placement = NUMABad
			apps[i].HomeNode = machine.NodeID(r.Intn(nNodes))
		}
		if r.Intn(2) == 0 {
			apps[i].Weight = pow2(float64(r.Intn(7) - 3))
		}
	}
	return m, apps
}

// servedRound is the fuzz limb for the served solve: one Search reused
// across a sequence of draws whose apps, nodes, node classes and
// NUMA-bad homes grow and shrink, each warm-started from the previous
// draw's counts (ignored unless they are a neighbour's). Under every
// spec, Solve must return the counts and floor a fresh Search's
// BestPerNodeCountsFloorSpec(…, SolveFloor) does, and a score
// bit-identical to spec.Objective(apps) of that call's Result and to a
// fresh Search's Solve. Wired into FuzzEvaluatorEquivalence so the
// checked-in corpus replays it.
func servedRound(t *testing.T, r *rand.Rand) {
	t.Helper()
	var s Search
	prev := make([][]int, len(servedSpecs)) // per spec
	for step := 0; step < 8; step++ {
		m, apps := servedDraw(r, step)
		for si, spec := range servedSpecs {
			label := fmt.Sprintf("step %d (%d apps, %d nodes)/%s", step, len(apps), m.NumNodes(), spec.Name())
			counts, score, floor, err := s.Solve(spec, prev[si], m, apps)
			if err != nil {
				t.Fatalf("%s: Solve: %v", label, err)
			}
			if want := SolveFloor(m, len(apps)); floor != want {
				t.Fatalf("%s: floor %d, SolveFloor %d", label, floor, want)
			}
			wantCounts, _, res, err := new(Search).BestPerNodeCountsFloorSpec(spec, nil, m, apps, floor)
			if err != nil {
				t.Fatalf("%s: BestPerNodeCountsFloorSpec: %v", label, err)
			}
			if !intsEqual(counts, wantCounts) || (counts == nil) != (wantCounts == nil) {
				t.Fatalf("%s: counts %v, BestPerNodeCountsFloorSpec %v", label, counts, wantCounts)
			}
			if want := spec.Objective(apps)(res); math.Float64bits(score) != math.Float64bits(want) {
				t.Fatalf("%s: score %v, the objective of the reference Result %v", label, score, want)
			}
			freshCounts, freshScore, _, err := new(Search).Solve(spec, nil, m, apps)
			if err != nil || !intsEqual(freshCounts, counts) || math.Float64bits(freshScore) != math.Float64bits(score) {
				t.Fatalf("%s: reused Search %v scoring %v, fresh one %v scoring %v (%v)", label, counts, score, freshCounts, freshScore, err)
			}
			prev[si] = counts
		}
	}
}

// TestSolveEmptyDemand pins Solve's contract on an empty demand set,
// which both daemons return before asking today: nil counts, a score
// of 0 under every built-in spec, SolveFloor's floor, and no search and
// no Evaluate — nothing allocated at all.
func TestSolveEmptyDemand(t *testing.T) {
	m := machine.PaperModel()
	for _, spec := range []ObjectiveSpec{ObjTotalGFLOPS, ObjWeightedPriority, ObjMaxMinGFLOPS} {
		var s Search
		counts, score, floor, err := s.Solve(spec, nil, m, nil)
		if counts != nil || score != 0 || floor != SolveFloor(m, 0) || err != nil {
			t.Errorf("%s: Solve(no apps) = %v, %v, %d, %v; want nil, 0, %d, nil", spec.Name(), counts, score, floor, err, SolveFloor(m, 0))
		}
		allocs := testing.AllocsPerRun(10, func() { s.Solve(spec, nil, m, []App{}) })
		if allocs != 0 {
			t.Errorf("%s: Solve(no apps) allocates %.0f objects, want none (no Evaluate)", spec.Name(), allocs)
		}
		if st := s.Stats(); st != (SearchStats{}) {
			t.Errorf("%s: Solve(no apps) searched: %+v", spec.Name(), st)
		}
	}
}

// TestIdleWorkersHoldNoSolveInputs: a worker back in the pool keeps its
// tables' backing arrays and nothing of the solve they were fitted to —
// no machine, no app (names included), no objective or bound — whether
// the solve succeeded, found no allocation or refused its inputs.
func TestIdleWorkersHoldNoSolveInputs(t *testing.T) {
	s := &Search{}
	for i := 0; i < 10; i++ {
		s.Solve(ObjTotalGFLOPS, nil, machine.SkylakeQuad(), eightAppMix())
	}
	s.Solve(ObjWeightedPriority, nil, machine.PaperModelNUMABad(), numaBadApps())
	s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, machine.PaperModel(), paperApps(), 9) // ErrNoAllocation
	s.Solve(ObjTotalGFLOPS, nil, machine.PaperModel(), []App{{Name: "bad", AI: -1}})        // invalid input
	workers := 0
	// More Gets than the pool keeps idle: the surplus are new workers.
	for range 64 {
		w := s.pool.Get()
		if cap(w.ints) == 0 {
			continue // never fitted to a solve
		}
		workers++
		if w.obj != nil || w.bound != nil {
			t.Error("an idle worker still references its last solve")
		}
		if w.md.m != nil {
			t.Error("an idle worker still references a machine")
		}
		for i, a := range w.md.apps[:cap(w.md.apps)] {
			if a != (App{}) {
				t.Errorf("an idle worker's model still holds app %d (%q)", i, a.Name)
			}
		}
		if w.kernel.md != nil && w.kernel.md != &w.md {
			t.Error("an idle worker's kernel references another worker's model")
		}
	}
	if workers == 0 {
		t.Fatal("the Search pooled no worker")
	}
}
