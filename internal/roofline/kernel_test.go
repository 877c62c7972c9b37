package roofline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/machine"
)

// fixture is one of the paper's (machine, demand) operating points.
type fixture struct {
	name string
	m    *machine.Machine
	apps []App
}

func paperFixtures() []fixture {
	return []fixture{
		{"paper-model", machine.PaperModel(), paperApps()},
		{"paper-model-bad", machine.PaperModelNUMABad(), numaBadApps()},
		{"skylake", machine.SkylakeQuad(), tableIIIApps()},
		{"skylake-bad", machine.SkylakeQuad(), tableIIIBadApps()},
	}
}

// checkKernelMatchesReference holds the leaf kernel, fitted directly and
// through EvaluateCounts, to the reference model on every
// leaf of the per-node-counts enumeration at the given floor: per-app
// and machine totals must be == to Evaluate's.
func checkKernelMatchesReference(t *testing.T, label string, m *machine.Machine, apps []App, floor int) {
	t.Helper()
	var k leafKernel
	if err := checkInputs(m, apps); err != nil {
		t.Fatalf("%s: checkInputs: %v", label, err)
	}
	k.fit(m, apps)
	counts := make([]int, len(apps))
	leaves := 0
	var rec func(pos, remaining int)
	rec = func(pos, remaining int) {
		if pos < len(apps) {
			for c := floor; c <= remaining; c++ {
				counts[pos] = c
				rec(pos+1, remaining-c)
			}
			return
		}
		leaves++
		want, err := Evaluate(m, apps, MustPerNodeCounts(m, counts))
		if err != nil {
			t.Fatalf("%s: reference Evaluate(%v): %v", label, counts, err)
		}
		got := k.eval(counts)
		if got.TotalGFLOPS != want.TotalGFLOPS {
			t.Fatalf("%s: counts %v: TotalGFLOPS %v, reference %v", label, counts, got.TotalGFLOPS, want.TotalGFLOPS)
		}
		for i := range want.AppGFLOPS {
			if got.AppGFLOPS[i] != want.AppGFLOPS[i] {
				t.Fatalf("%s: counts %v: AppGFLOPS[%d] %v, reference %v", label, counts, i, got.AppGFLOPS[i], want.AppGFLOPS[i])
			}
		}
		if got.PerApp != nil || got.PerNode != nil {
			t.Fatalf("%s: kernel result carries a grid; the Objective contract says totals only", label)
		}
		rates, total, err := EvaluateCounts(m, apps, counts)
		if err != nil || total != want.TotalGFLOPS || !slices.Equal(rates, want.AppGFLOPS) {
			t.Fatalf("%s: counts %v: EvaluateCounts gives %v (total %v, %v), reference %v (total %v)",
				label, counts, rates, total, err, want.AppGFLOPS, want.TotalGFLOPS)
		}
	}
	rec(0, minCores(m))
	if leaves == 0 && floor*len(apps) <= minCores(m) {
		t.Fatalf("%s: enumerated no leaf", label)
	}
}

// kernelRound is the fuzz limb for what only the leaf kernel does:
// machines whose nodes come in two hardware kinds (so some nodes share
// a class and some do not), several NUMA-bad apps homed on several
// nodes (singleton classes, remote cells), weights, and floor 0 (rows
// with zero threads). Every leaf is held to the reference, and the
// search built on the kernel to the naive exhaustive scan under the
// total, weighted and max-min objectives. Wired into
// FuzzEvaluatorEquivalence so the checked-in corpus replays it.
func kernelRound(t *testing.T, r *rand.Rand) {
	t.Helper()
	kinds := [2]machine.Node{}
	for i := range kinds {
		kinds[i] = machine.Node{
			Cores:        2 + r.Intn(4),
			PeakGFLOPS:   1 + 10*r.Float64(),
			MemBandwidth: 4 + 40*r.Float64(),
		}
	}
	nNodes := 2 + r.Intn(3)
	m := &machine.Machine{Name: "kernel-rand"}
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
	nApps := 2 + r.Intn(3)
	apps := make([]App, nApps)
	for i := range apps {
		apps[i] = App{Name: fmt.Sprintf("kapp%d", i), AI: pow2(r.Float64()*8 - 4)}
		if r.Intn(2) == 0 {
			apps[i].Placement = NUMABad
			apps[i].HomeNode = machine.NodeID(r.Intn(nNodes))
		}
		if r.Intn(2) == 0 {
			apps[i].Weight = pow2(float64(r.Intn(7) - 3))
		}
	}
	floor := r.Intn(2)
	label := fmt.Sprintf("kernel-rand floor=%d", floor)
	checkKernelMatchesReference(t, label, m, apps, floor)
	var s Search
	checkSearchMatchesNaive(t, label+"/total", &s, m, apps, ObjTotalGFLOPS, floor)
	// Unpruned, so a disagreement is the kernel's and not the bound's
	// (objectiveRound holds the weighted bound to the unpruned search).
	checkSearchMatchesNaive(t, label+"/weighted", &s, m, apps, strippedSpec{ObjWeightedPriority}, floor)
	checkSearchMatchesNaive(t, label+"/max-min", &s, m, apps, ObjMaxMinGFLOPS, floor)
}

func TestKernelMatchesReferenceRandomized(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		kernelRound(t, rand.New(rand.NewSource(seed)))
	}
}

// countsRound is the fuzz limb for EvaluateCounts: on servedDraw's
// machines and demand sets (shared and singleton node classes, NUMA-bad
// homes, weights, some with no app at all), count vectors up to the
// smallest node's cores, zero rows included, must score bit-identical
// to Evaluate(PerNodeCounts); a vector of the wrong length, with a
// negative count or over the smallest node, and a non-positive AI, must
// be refused as the reference refuses them.
// Wired into FuzzEvaluatorEquivalence so the checked-in corpus replays
// it.
func countsRound(t *testing.T, r *rand.Rand) {
	t.Helper()
	for step := 0; step < 4; step++ {
		m, apps := servedDraw(r, step)
		least := minCores(m)
		for i := 0; i < 12; i++ {
			counts, left := make([]int, len(apps)), least
			for j := range counts {
				if r.Intn(3) > 0 {
					counts[j] = r.Intn(left + 1)
					left -= counts[j]
				}
			}
			r.Shuffle(len(counts), func(a, b int) { counts[a], counts[b] = counts[b], counts[a] })
			as := apps
			switch i % 6 {
			case 1:
				counts = append(counts, 1)
			case 2:
				if len(counts) > 0 {
					counts[r.Intn(len(counts))] = -1 - r.Intn(2)
				}
			case 3:
				if len(counts) > 0 {
					counts[r.Intn(len(counts))] += left + 1
				}
			case 4:
				if len(apps) > 0 {
					as = slices.Clone(apps)
					as[r.Intn(len(as))].AI = 0
				}
			}
			label := fmt.Sprintf("step %d: %d apps on %d nodes, counts %v", step, len(as), m.NumNodes(), counts)
			var want *Result
			al, err := PerNodeCounts(m, counts)
			if err == nil {
				want, err = Evaluate(m, as, al)
			}
			rates, total, gotErr := EvaluateCounts(m, as, counts)
			if (gotErr == nil) != (err == nil) {
				t.Fatalf("%s: EvaluateCounts error %v, reference %v", label, gotErr, err)
			}
			if err != nil {
				continue
			}
			if len(rates) != len(as) {
				t.Fatalf("%s: %d rates for %d apps", label, len(rates), len(as))
			}
			for j, g := range rates {
				if math.Float64bits(g) != math.Float64bits(want.AppGFLOPS[j]) {
					t.Fatalf("%s: app %d rate %v, reference %v", label, j, g, want.AppGFLOPS[j])
				}
			}
			if math.Float64bits(total) != math.Float64bits(want.TotalGFLOPS) {
				t.Fatalf("%s: total %v, reference %v", label, total, want.TotalGFLOPS)
			}
		}
	}
}

func TestEvaluateCountsMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		countsRound(t, rand.New(rand.NewSource(seed)))
	}
}

// TestEvaluateCountsSharedKernels: EvaluateCounts fits a kernel from one
// list the whole process shares, so a warm call allocates the rates it
// returns and nothing else however many callers there are, concurrent
// callers each score their own inputs (run under -race), and an idle
// kernel holds no machine or apps.
func TestEvaluateCountsSharedKernels(t *testing.T) {
	var wg sync.WaitGroup
	for _, f := range paperFixtures() {
		want := MustEvaluate(f.m, f.apps, MustPerNodeCounts(f.m, []int{1, 1, 1, 2}))
		wg.Add(1)
		go func(f fixture) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rates, total, err := EvaluateCounts(f.m, f.apps, []int{1, 1, 1, 2})
				if err != nil || total != want.TotalGFLOPS || !slices.Equal(rates, want.AppGFLOPS) {
					t.Errorf("%s: concurrent EvaluateCounts gives %v (total %v, %v), reference %v (total %v)",
						f.name, rates, total, err, want.AppGFLOPS, want.TotalGFLOPS)
					return
				}
			}
		}(f)
	}
	wg.Wait()

	m, apps := machine.SkylakeQuad(), eightAppMix()
	counts := []int{1, 1, 1, 5, 5, 2, 2, 1}
	if _, _, err := EvaluateCounts(m, apps, counts); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { EvaluateCounts(m, apps, counts) }); n != 1 {
		t.Errorf("a warm EvaluateCounts allocates %v objects, want 1 (the rates)", n)
	}
	k := kernels.Get()
	defer kernels.Put(k)
	if cap(k.demand) == 0 {
		t.Fatal("EvaluateCounts pooled no kernel")
	}
	if k.m != nil || len(k.apps) != 0 {
		t.Error("an idle kernel still references its last machine or apps")
	}
}

// leafWatchSpec wraps a spec so every leaf the search scores calls
// watch first.
type leafWatchSpec struct {
	ObjectiveSpec
	watch func()
}

func (s leafWatchSpec) Objective(apps []App) Objective {
	obj := s.ObjectiveSpec.Objective(apps)
	return func(r *Result) float64 {
		s.watch()
		return obj(r)
	}
}

// watchedSearch returns a Search and the one pooled worker every solve
// on it from one goroutine will use, so a leafWatchSpec can read the
// counts vector being scored.
func watchedSearch() (*Search, *bnbWorker) {
	s := &Search{}
	w := s.pool.Get()
	s.pool.Put(w)
	return s, w
}

// TestSearchLeavesAreValidAllocations is the licence for scoring leaves
// without Allocation.Validate: every counts vector the search hands the
// kernel — enumerated leaves and warm-start seeds, feasible and garbage
// hints alike — stands for an allocation Validate accepts, with every
// count at or above the floor.
func TestSearchLeavesAreValidAllocations(t *testing.T) {
	hints := func(nApps int) [][]int {
		ones := make([]int, nApps)
		for i := range ones {
			ones[i] = 1
		}
		return [][]int{
			nil,
			ones,                          // full length
			ones[:nApps-1],                // one short: extended over the newcomer
			append([]int{9}, ones[1:]...), // may over-subscribe: must be dropped or shaved
			{-1, 100},                     // garbage
		}
	}
	check := func(label string, m *machine.Machine, apps []App, spec ObjectiveSpec, floor int) {
		s, w := watchedSearch()
		scored := 0
		watch := leafWatchSpec{spec, func() {
			scored++
			if w.kernel.m != m {
				t.Fatalf("%s: the watched worker is not the one solving", label)
			}
			for i, c := range w.counts {
				if c < floor {
					t.Fatalf("%s: scored %v: count %d of app %d under floor %d", label, w.counts, c, i, floor)
				}
			}
			al, err := PerNodeCounts(m, w.counts)
			if err == nil {
				err = al.Validate(m, apps)
			}
			if err != nil {
				t.Fatalf("%s: scored %v, which Validate rejects: %v", label, w.counts, err)
			}
		}}
		for hi, prev := range hints(len(apps)) {
			before := scored
			_, _, _, err := s.BestPerNodeCountsFloorSpec(watch, prev, m, apps, floor)
			if err == nil && scored == before {
				t.Fatalf("%s/hint=%d: solved without scoring a leaf", label, hi)
			}
		}
	}
	for _, c := range paperFixtures() {
		for floor := 0; floor <= 2; floor++ {
			for _, spec := range []ObjectiveSpec{ObjTotalGFLOPS, ObjMaxMinGFLOPS} {
				check(fmt.Sprintf("%s/%s/floor=%d", c.name, spec.Name(), floor), c.m, c.apps, spec, floor)
			}
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := randomMachine(r)
		apps := randomApps(r, m)
		floor := r.Intn(3)
		check(fmt.Sprintf("seed=%d/floor=%d", seed, floor), m, apps, ObjTotalGFLOPS, floor)
	}
}

// TestSearchSteadyStateAllocs pins the allocation diet: on a warm
// Search a Solve under a built-in spec allocates the returned counts
// and nothing else — its bound, weights and objective are fitted into
// the pooled worker — and nothing per leaf, whether it scores a few
// dozen leaves or thousands. A spec that is not built in (the unpruned
// wrapper here) adds what its Objective and Bound allocate: nothing,
// for this one. SolveAbove's below-bar answers, at the root or after a
// search, allocate nothing at all (weights here are at most 3, so 4 ×
// the peak is above any score).
func TestSearchSteadyStateAllocs(t *testing.T) {
	weighted := eightAppMix()
	for i := range weighted {
		weighted[i].Weight = float64(1 + i%3)
	}
	cases := []struct {
		name      string
		m         *machine.Machine
		apps      []App
		spec      ObjectiveSpec
		minLeaves uint64
	}{
		{"table-I", machine.PaperModel(), paperApps(), ObjTotalGFLOPS, 1},
		{"8-apps", machine.SkylakeQuad(), eightAppMix(), ObjTotalGFLOPS, 1},
		{"8-apps weighted", machine.SkylakeQuad(), weighted, ObjWeightedPriority, 1},
		{"8-apps unpruned", machine.SkylakeQuad(), eightAppMix(), strippedSpec{ObjTotalGFLOPS}, 1000},
	}
	for _, c := range cases {
		var s Search
		_, best, err := s.Solve(c.spec, nil, c.m, c.apps) // warms the pooled worker
		if err != nil {
			t.Fatal(err)
		}
		before := s.Stats().Leaves
		allocs := testing.AllocsPerRun(3, func() {
			if _, _, err := s.Solve(c.spec, nil, c.m, c.apps); err != nil {
				t.Fatal(err)
			}
		})
		if perSolve := (s.Stats().Leaves - before) / 4; perSolve < c.minLeaves {
			t.Fatalf("%s: scored %d leaves per solve, fixture too small to show a per-leaf allocation", c.name, perSolve)
		}
		if allocs > 1 {
			t.Errorf("%s: a warm solve allocates %.0f objects, want the returned counts only", c.name, allocs)
		}
		for _, bar := range []float64{4 * c.m.PeakGFLOPS(), math.Nextafter(best, math.Inf(1)) + NewScoreGrid(c.m).Q} {
			allocs := testing.AllocsPerRun(3, func() {
				if _, _, err := s.SolveAbove(c.spec, nil, c.m, c.apps, bar); !errors.Is(err, ErrBelowBar) {
					t.Fatalf("%s: SolveAbove(%v) = %v, want below the bar", c.name, bar, err)
				}
			})
			if allocs > 0 {
				t.Errorf("%s: a below-bar answer at %v allocates %.0f objects, want none", c.name, bar, allocs)
			}
		}
	}
}

// TestSearchRetainedMemory: what a Search keeps between solves is its
// pooled workers' scratch — O(apps × nodes) of the largest solve each
// served — and no reference to any solve's machine, apps or objective
// (TestIdleWorkersHoldNoSolveInputs).
func TestSearchRetainedMemory(t *testing.T) {
	var s Search
	maxCells := 0
	solve := func(m *machine.Machine, apps []App, floor int) {
		maxCells = max(maxCells, len(apps)*m.NumNodes())
		s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, m, apps, floor)
	}
	fixtures := paperFixtures()
	for i := 0; i < 100; i++ {
		switch {
		case i%25 == 0:
			solve(machine.SkylakeQuad(), eightAppMix(), 1)
		case i%2 == 0:
			c := fixtures[i/2%len(fixtures)]
			solve(c.m, c.apps, i%3)
		default:
			r := rand.New(rand.NewSource(int64(i)))
			m := randomMachine(r)
			solve(m, randomApps(r, m), r.Intn(2))
		}
	}
	workers := 0
	for {
		w := s.pool.Get()
		if cap(w.counts) == 0 {
			break // a new worker: the pool is drained
		}
		workers++
		if w.obj != nil || w.bound != nil {
			t.Error("an idle worker still references its last solve")
		}
		k := &w.kernel
		g := &w.builtin.greedy
		bytes := 8*(cap(w.ints)+cap(k.perLink)+cap(k.rate)+cap(k.res.AppGFLOPS)) +
			8*(cap(w.builtin.weights)+cap(g.byDensDesc)+cap(g.dens)+cap(g.capPer)+cap(g.sufDens)+cap(g.sufCapPer)) +
			int(unsafe.Sizeof(localClaim{}))*cap(k.local) +
			int(unsafe.Sizeof(remoteClaim{}))*cap(k.remote)
		if limit := 256*maxCells + 1024; bytes > limit {
			t.Errorf("an idle worker retains %d bytes, want O(apps × nodes) (<= %d for %d cells)", bytes, limit, maxCells)
		}
		model := 8*(cap(k.demand)+cap(k.classRep)) + 4*cap(k.src) +
			24*(cap(k.localApps)+cap(k.homeApps)) + int(unsafe.Sizeof(App{}))*cap(k.apps)
		for _, ids := range k.localApps[:cap(k.localApps)] {
			model += 4 * cap(ids)
		}
		for _, ids := range k.homeApps[:cap(k.homeApps)] {
			model += 4 * cap(ids)
		}
		if limit := 256*maxCells + 1024; model > limit {
			t.Errorf("an idle worker retains a %d-byte model, want O(apps × nodes) (<= %d for %d cells)", model, limit, maxCells)
		}
		if k.res.PerApp != nil || k.res.PerNode != nil {
			t.Error("an idle worker retains a Result grid")
		}
	}
	if workers == 0 {
		t.Fatal("the Search pooled no worker")
	}
}

// TestSearchConcurrentSolves shares one Search between goroutines
// solving different demand sets: workers are handed out and taken back
// concurrently and every answer must equal the one a private Search
// gives. Run under -race.
func TestSearchConcurrentSolves(t *testing.T) {
	var shared Search
	fixtures := paperFixtures()
	want := make([][]int, len(fixtures))
	for i, c := range fixtures {
		var s Search
		want[i], _, _, _ = s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, c.m, c.apps, 1)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				i := (g + n) % len(fixtures)
				got, _, _, err := shared.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, fixtures[i].m, fixtures[i].apps, 1)
				if err != nil || !intsEqual(got, want[i]) {
					t.Errorf("%s: concurrent solve = %v, %v; want %v", fixtures[i].name, got, err, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
