package roofline

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// naiveOptimum is what a naive enumeration keeps under two rules: grid,
// the first leaf on the highest ScoreGrid level — the answer Search must
// return exactly — and exact, the first leaf with the highest float
// score, the rule Search kept before it compared scores on the grid.
type naiveOptimum struct {
	g           ScoreGrid
	grid, exact naiveBest
}

func (o *naiveOptimum) offer(score float64, counts []int, res *Result) {
	o.grid.offer(o.g.Level(score), score, counts, res)
	o.exact.offer(score, score, counts, res)
}

// naiveOptima is an independent, deliberately simple reference for the
// pruned parallel search: plain recursion over per-app counts in the
// same order, every candidate evaluated with the reference model.
func naiveOptima(m *machine.Machine, apps []App, obj Objective, floor int) naiveOptimum {
	if obj == nil {
		obj = TotalGFLOPS
	}
	if floor < 0 {
		floor = 0
	}
	capCores := m.Nodes[0].Cores
	for _, n := range m.Nodes[1:] {
		if n.Cores < capCores {
			capCores = n.Cores
		}
	}
	o := naiveOptimum{g: NewScoreGrid(m)}
	counts := make([]int, len(apps))
	var rec func(pos, remaining int)
	rec = func(pos, remaining int) {
		if pos == len(apps) {
			al, err := PerNodeCounts(m, counts)
			if err != nil {
				return
			}
			res, err := Evaluate(m, apps, al)
			if err != nil {
				return
			}
			o.offer(obj(res), counts, res)
			return
		}
		for c := floor; c <= remaining; c++ {
			counts[pos] = c
			rec(pos+1, remaining-c)
		}
	}
	rec(0, capCores)
	return o
}

// naiveBestPerNodeCountsFloor is naiveOptima's grid optimum: the answer
// the fast search must return exactly.
func naiveBestPerNodeCountsFloor(m *machine.Machine, apps []App, obj Objective, floor int) ([]int, *Result, error) {
	o := naiveOptima(m, apps, obj, floor)
	if o.grid.res == nil {
		return nil, nil, ErrNoAllocation
	}
	return o.grid.counts, o.grid.res, nil
}

// gridAudit counts the naive optima checkGridOptimum has seen and those
// the grid moved off the exact rule's answer.
var gridAudit struct{ answers, changed int }

// checkGridOptimum holds the grid optimum to the exact one: the grid may
// prefer an earlier leaf whose score is below the exact maximum, but by
// less than one quantum, since both lie on the highest level.
func checkGridOptimum(t *testing.T, label string, o naiveOptimum) {
	t.Helper()
	if o.grid.res == nil {
		return
	}
	gridAudit.answers++
	if intsEqual(o.grid.counts, o.exact.counts) {
		return
	}
	gridAudit.changed++
	if gap := o.exact.score - o.grid.score; !(gap < o.g.Q) {
		t.Fatalf("%s: grid answer %v scores %v, %v (%.3g quanta) below the exact answer %v",
			label, o.grid.counts, o.grid.score, gap, gap/o.g.Q, o.exact.counts)
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkSearchMatchesNaive runs both searches and demands identical
// counts and bitwise-identical results (or the same error), and holds
// the naive grid optimum to the exact one.
func checkSearchMatchesNaive(t *testing.T, label string, s *Search, m *machine.Machine, apps []App, spec ObjectiveSpec, floor int) {
	t.Helper()
	want := naiveOptima(m, apps, spec.Objective(apps), floor)
	gotCounts, _, gotRes, gotErr := s.BestPerNodeCountsFloorSpec(spec, nil, m, apps, floor)
	if want.grid.res == nil || gotErr != nil {
		if !errors.Is(gotErr, ErrNoAllocation) || want.grid.res != nil {
			t.Fatalf("%s: error mismatch: naive found %v, search %v", label, want.grid.counts, gotErr)
		}
		return
	}
	if !intsEqual(want.grid.counts, gotCounts) {
		t.Fatalf("%s: counts mismatch: naive %v (score %v), search %v (score %v)",
			label, want.grid.counts, want.grid.res.TotalGFLOPS, gotCounts, gotRes.TotalGFLOPS)
	}
	if d := diffResults(want.grid.res, gotRes); d != "" {
		t.Fatalf("%s: result mismatch: %s", label, d)
	}
	checkGridOptimum(t, label, want)
}

// TestSearchMatchesNaivePaperFixtures pins the pruned search to the
// naive exhaustive scan on every paper fixture at floors 0-2, under
// the pruned specs (total-gflops, weighted-priority with unset weights)
// and unpruned ones (max-min, bare objectives through BoundFree) — and
// the leaf kernel underneath it to the reference model on every leaf
// of those enumerations (floor 0 covers rows with zero threads).
func TestSearchMatchesNaivePaperFixtures(t *testing.T) {
	var s Search
	specs := []ObjectiveSpec{
		ObjTotalGFLOPS,
		ObjWeightedPriority,
		ObjMaxMinGFLOPS,
		BoundFree(WeightedAppGFLOPS([]float64{3, 1, 1, 1})),
	}
	for _, c := range paperFixtures() {
		for _, floor := range []int{0, 1, 2} {
			checkKernelMatchesReference(t, fmt.Sprintf("%s/kernel/floor=%d", c.name, floor), c.m, c.apps, floor)
			for _, spec := range specs {
				checkSearchMatchesNaive(t, fmt.Sprintf("%s/%s/floor=%d", c.name, spec.Name(), floor),
					&s, c.m, c.apps, spec, floor)
			}
		}
	}
}

// TestSearchTableIOptimum re-checks the headline paper number through
// the fast path: under floor 1 on the model machine the optimum is the
// uneven split (1,1,1,5) at 254 GFLOPS.
func TestSearchTableIOptimum(t *testing.T) {
	var s Search
	counts, _, res, err := s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, machine.PaperModel(), paperApps(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !intsEqual(counts, []int{1, 1, 1, 5}) {
		t.Fatalf("optimum counts = %v, want [1 1 1 5]", counts)
	}
	almost(t, "table I optimum", res.TotalGFLOPS, 254, 1e-9)
}

// TestSearchMatchesNaiveRandomized fuzzes the equivalence over random
// machines and app mixes (NUMA-bad included), floors 0-2.
func TestSearchMatchesNaiveRandomized(t *testing.T) {
	randomizedSearchDraws(t, &Search{})
}

// randomizedSearchDraws checks the search against the naive reference
// on 60 seeded draws.
func randomizedSearchDraws(t *testing.T, s *Search) {
	t.Helper()
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := randomMachine(r)
		apps := randomApps(r, m)
		floor := r.Intn(3)
		spec := ObjTotalGFLOPS
		if r.Intn(3) == 2 {
			spec = BoundFree(MinAppGFLOPS)
		}
		checkSearchMatchesNaive(t, fmt.Sprintf("seed=%d", seed), s, m, apps, spec, floor)
	}
}

// TestGridAnswerWithinOneQuantum runs the grid and the exact rule side
// by side — the paper fixtures, TestSearchMatchesNaiveRandomized's
// draws, the plateau seeds and the FuzzEvaluatorEquivalence corpus —
// and logs how many answers the grid changed. checkGridOptimum holds
// every changed answer to less than one quantum below the exact
// maximum; the paper's own optima may not change at all.
func TestGridAnswerWithinOneQuantum(t *testing.T) {
	audit := func(source string, run func()) {
		before := gridAudit
		run()
		t.Logf("%s: the grid changed %d of %d answers", source, gridAudit.changed-before.changed, gridAudit.answers-before.answers)
	}
	var s Search
	audit("paper fixtures", func() {
		for _, c := range paperFixtures() {
			for floor := 0; floor <= 2; floor++ {
				for _, spec := range []ObjectiveSpec{ObjTotalGFLOPS, ObjWeightedPriority, ObjMaxMinGFLOPS} {
					label := fmt.Sprintf("%s/%s/floor=%d", c.name, spec.Name(), floor)
					before := gridAudit.changed
					checkSearchMatchesNaive(t, label, &s, c.m, c.apps, spec, floor)
					checkOrbitContract(t, label, c.m, c.apps, spec, floor)
					// The paper's Tables I-III are the throughput optima at the
					// floor the daemons solve under.
					if spec != ObjMaxMinGFLOPS && floor == SolveFloor(c.m, len(c.apps)) && gridAudit.changed != before {
						t.Errorf("%s: the grid changed a paper optimum", label)
					}
				}
			}
		}
	})
	audit("randomized draws", func() { randomizedSearchDraws(t, &s) })
	audit("plateau seeds", func() { plateauSeeds(t) })
	entries := 0
	audit("fuzz corpus", func() {
		for _, seed := range fuzzCorpus(t) {
			before := gridAudit.changed
			evaluatorEquivalenceRound(t, seed)
			if gridAudit.changed > before {
				entries++
			}
		}
	})
	t.Logf("fuzz corpus: %d entries with a changed answer", entries)
}

// floorSearchRound is the fuzz limb behind the fleet placer's scoring
// path: a small random machine and a demand set with a guaranteed
// NUMA-bad app, solved under a no-starvation floor >= 1 (the
// configuration fleetd scores every placement with) and checked against the naive exhaustive reference. Machines
// stay small (<= 3 nodes, <= 6 cores) so the naive recursion is cheap
// inside the fuzz loop.
func floorSearchRound(t *testing.T, r *rand.Rand) {
	t.Helper()
	nNodes := 2 + r.Intn(2)
	m := &machine.Machine{Name: "floor-rand"}
	for i := 0; i < nNodes; i++ {
		m.Nodes = append(m.Nodes, machine.Node{
			Cores:        2 + r.Intn(5),
			PeakGFLOPS:   1 + 10*r.Float64(),
			MemBandwidth: 4 + 40*r.Float64(),
		})
	}
	if r.Intn(2) == 0 {
		// Remote link limits make the NUMA-bad remote-first service
		// order actually bite.
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
	nApps := 2 + r.Intn(2)
	apps := make([]App, nApps)
	for i := range apps {
		apps[i] = App{Name: fmt.Sprintf("fapp%d", i), AI: pow2(r.Float64()*8 - 4)}
	}
	bad := r.Intn(nApps)
	apps[bad].Placement = NUMABad
	apps[bad].HomeNode = machine.NodeID(r.Intn(nNodes))
	spec := ObjTotalGFLOPS
	if r.Intn(3) == 0 {
		spec = ObjMaxMinGFLOPS
	}
	floor := 1 + r.Intn(2)
	var s Search
	checkSearchMatchesNaive(t, fmt.Sprintf("floor=%d numa-bad=%d", floor, bad), &s, m, apps, spec, floor)
}

// TestSearchParallelDeterministic forces the parallel fan-out path and
// checks it is (a) equal to the naive scan and (b) stable across
// repeated runs and worker counts, on two fixtures: a wide machine
// (C(16,8) = 12870 rows, 8518 of them canonical for the s0/s1 pair:
// over the sequential threshold), and the SkylakeQuad plateau, where
// the tie arm of every worker reads the branch incumbent of the others.
func TestSearchParallelDeterministic(t *testing.T) {
	cases := []struct {
		name string
		m    *machine.Machine
		apps []App
		pars []int
	}{
		{"wide", machine.Uniform("wide", 4, 16, 10, 32, 0), []App{
			{Name: "s0", AI: 0.5}, {Name: "s1", AI: 0.5}, {Name: "s2", AI: 0.25},
			{Name: "c0", AI: 10}, {Name: "c1", AI: 8},
			{Name: "m0", AI: 1}, {Name: "m1", AI: 2},
			{Name: "b0", AI: 0.0625, Placement: NUMABad, HomeNode: 0},
		}, []int{0, 1, 3, 8}},
		{"plateau", machine.SkylakeQuad(), skylakeDiverseApps(), []int{1, 2, 4, 8}},
	}
	for _, c := range cases {
		if got := leafEstimate(ObjTotalGFLOPS, c.apps, minCores(c.m)-len(c.apps)); got <= seqLeafThreshold {
			t.Fatalf("%s: fixture too small to force the parallel path: %d leaves", c.name, got)
		}
		wantCounts, wantRes, err := naiveBestPerNodeCountsFloor(c.m, c.apps, TotalGFLOPS, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range c.pars {
			s := Search{Parallelism: par}
			for run := 0; run < 2; run++ {
				gotCounts, _, gotRes, err := s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, c.m, c.apps, 1)
				if err != nil {
					t.Fatalf("%s par=%d run=%d: %v", c.name, par, run, err)
				}
				if !intsEqual(wantCounts, gotCounts) {
					t.Fatalf("%s par=%d run=%d: counts = %v, want %v", c.name, par, run, gotCounts, wantCounts)
				}
				if d := diffResults(wantRes, gotRes); d != "" {
					t.Fatalf("%s par=%d run=%d: %s", c.name, par, run, d)
				}
			}
		}
	}
}

// TestSearchNoAllocation covers the infeasible edges: floors that
// over-subscribe the smallest node, and invalid app specs.
func TestSearchNoAllocation(t *testing.T) {
	var s Search
	m := machine.PaperModel() // 8 cores per node
	apps := paperApps()       // 4 apps; floor 3 needs 12 cores per node
	if _, _, _, err := s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, m, apps, 3); !errors.Is(err, ErrNoAllocation) {
		t.Errorf("over-subscribing floor: err = %v, want ErrNoAllocation", err)
	}
	bad := []App{{Name: "neg", AI: -2}}
	if _, _, _, err := s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, m, bad, 0); !errors.Is(err, ErrNoAllocation) {
		t.Errorf("invalid app: err = %v, want ErrNoAllocation", err)
	}
}

// --- Satellite (c): hill-climb scan-resume keeps the optima. ---

// oldHillClimb is the pre-optimization hill climber: reference Evaluate
// per probe, and a full restart of the (i, j) sweep after every
// accepted move. Kept here as the behavioural baseline.
func oldHillClimb(m *machine.Machine, apps []App, al Allocation, obj Objective, maxIters int) (Allocation, *Result, float64, error) {
	res, err := Evaluate(m, apps, al)
	if err != nil {
		return Allocation{}, nil, 0, err
	}
	score := obj(res)
	nApps, nNodes := len(apps), m.NumNodes()
	for iter := 0; iter < maxIters; iter++ {
		improved := false
		for i := 0; i < nApps && !improved; i++ {
			for j := 0; j < nNodes && !improved; j++ {
				if al.Threads[i][j] == 0 {
					continue
				}
				for k := 0; k < nNodes && !improved; k++ {
					if k == j || al.NodeThreads(machine.NodeID(k)) >= m.Nodes[k].Cores {
						continue
					}
					al.Threads[i][j]--
					al.Threads[i][k]++
					if r2, err := Evaluate(m, apps, al); err == nil {
						if s2 := obj(r2); s2 > score+1e-9 {
							score, res, improved = s2, r2, true
							continue
						}
					}
					al.Threads[i][j]++
					al.Threads[i][k]--
				}
				for i2 := 0; i2 < nApps && !improved; i2++ {
					if i2 == i || al.Threads[i][j] == 0 {
						continue
					}
					al.Threads[i][j]--
					al.Threads[i2][j]++
					if r2, err := Evaluate(m, apps, al); err == nil {
						if s2 := obj(r2); s2 > score+1e-9 {
							score, res, improved = s2, r2, true
							continue
						}
					}
					al.Threads[i][j]++
					al.Threads[i2][j]--
				}
			}
		}
		if !improved {
			break
		}
	}
	return al.Clone(), res, score, nil
}

// oldOptimize is Optimize over oldHillClimb (same starts, same
// tie-breaking), the baseline the rewritten Optimize must match.
func oldOptimize(m *machine.Machine, apps []App, obj Objective, maxIters int) (Allocation, *Result, error) {
	if obj == nil {
		obj = TotalGFLOPS
	}
	if maxIters <= 0 {
		maxIters = 10000
	}
	starts := candidateStarts(m, apps)
	if len(starts) == 0 {
		return Allocation{}, nil, ErrNoAllocation
	}
	var bestAl Allocation
	var bestRes *Result
	bestScore := -1.0
	for _, s := range starts {
		al, res, score, err := oldHillClimb(m, apps, s, obj, maxIters)
		if err != nil {
			continue
		}
		if score > bestScore {
			bestScore, bestAl, bestRes = score, al, res
		}
	}
	if bestRes == nil {
		return Allocation{}, nil, ErrNoAllocation
	}
	return bestAl, bestRes, nil
}

// TestHillClimbScanResumeKeepsOptima asserts the scan-resume rewrite
// reaches optima at least as good as the restart-from-scratch baseline
// on the paper's fixtures — in particular, identical objective values
// on Tables I-III.
func TestHillClimbScanResumeKeepsOptima(t *testing.T) {
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
	for _, c := range cases {
		_, oldRes, err := oldOptimize(c.m, c.apps, TotalGFLOPS, 0)
		if err != nil {
			t.Fatalf("%s: oldOptimize: %v", c.name, err)
		}
		_, newRes, err := Optimize(c.m, c.apps, TotalGFLOPS, 0)
		if err != nil {
			t.Fatalf("%s: Optimize: %v", c.name, err)
		}
		if newRes.TotalGFLOPS < oldRes.TotalGFLOPS-1e-9 {
			t.Errorf("%s: scan-resume optimum %v worse than baseline %v",
				c.name, newRes.TotalGFLOPS, oldRes.TotalGFLOPS)
		}
		if newRes.TotalGFLOPS > oldRes.TotalGFLOPS+1e-9 {
			// Better is acceptable in principle, but on these fixtures the
			// neighbourhoods agree — flag it so a drift is investigated.
			t.Errorf("%s: scan-resume optimum %v differs from baseline %v",
				c.name, newRes.TotalGFLOPS, oldRes.TotalGFLOPS)
		}
	}
}
