package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/roofline"
)

// near checks a GFLOPS value against a hand-derived paper-model figure.
func near(got, want float64) bool { return math.Abs(got-want) < 0.5 }

func mustRoofline(t *testing.T, s AppSpec) roofline.App {
	t.Helper()
	app, err := s.rooflineApp()
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestScorerSolveTotalPaperModel pins the hand-derived optima on the
// paper's 4-node x 8-core machine (peak 10 GFLOPS/core, 32 GB/s/node):
// a lone memory-bound app saturates node bandwidth at 64 GFLOPS, the
// {mem, comp} pair fills each node to its 80 GFLOPS peak, and each
// additional memory-bound app steals a compute core (Table I's mix of
// three of them lands at 254).
func TestScorerSolveTotalPaperModel(t *testing.T) {
	m := machine.PaperModel()
	sc := NewScorer()
	cases := []struct {
		name string
		mem  int
		comp int
		want float64
	}{
		{"empty", 0, 0, 0},
		{"mem", 1, 0, 64},
		{"4mem", 4, 0, 64},
		{"mem+comp", 1, 1, 320},
		{"2mem+comp", 2, 1, 292},
		{"3mem+comp", 3, 1, 254},
		{"4mem+comp", 4, 1, 216},
	}
	for _, tc := range cases {
		var demand []roofline.App
		for i := 0; i < tc.mem; i++ {
			demand = append(demand, mustRoofline(t, memSpec("mem")))
		}
		for i := 0; i < tc.comp; i++ {
			demand = append(demand, mustRoofline(t, compSpec("comp")))
		}
		got, err := sc.SolveTotal(m, demand)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !near(got, tc.want) {
			t.Errorf("%s: solved %g GFLOPS, want ~%g", tc.name, got, tc.want)
		}
	}
}

// TestScorerMarginal checks the placement score is the aggregate delta:
// a compute-bound app arriving on a machine already running one
// memory-bound app is worth +256 (64 -> 320), while a second
// memory-bound app on the same machine is worth nothing (bandwidth is
// already saturated).
func TestScorerMarginal(t *testing.T) {
	m := machine.PaperModel()
	sc := NewScorer()
	base := []roofline.App{mustRoofline(t, memSpec("mem"))}

	marginal, after, err := sc.Marginal(m, base, mustRoofline(t, compSpec("comp")))
	if err != nil {
		t.Fatal(err)
	}
	if !near(marginal, 256) || !near(after, 320) {
		t.Errorf("comp onto {mem}: marginal %g after %g, want ~256 / ~320", marginal, after)
	}

	marginal, after, err = sc.Marginal(m, base, mustRoofline(t, memSpec("mem-2")))
	if err != nil {
		t.Fatal(err)
	}
	if !near(marginal, 0) || !near(after, 64) {
		t.Errorf("mem onto {mem}: marginal %g after %g, want ~0 / ~64", marginal, after)
	}
}

// naiveSolveTotal replicates the fleet solve semantics straight against
// the roofline search, bypassing the Scorer's memo — the reference the
// equivalence-class dedup is checked against.
func naiveSolveTotal(t *testing.T, m *machine.Machine, demand []roofline.App) float64 {
	t.Helper()
	if len(demand) == 0 {
		return 0
	}
	var s roofline.Search
	_, _, res, err := s.BestPerNodeCountsFloorSpec(roofline.ObjTotalGFLOPS, nil, m, demand, 1)
	if err == roofline.ErrNoAllocation {
		_, _, res, err = s.BestPerNodeCountsFloorSpec(roofline.ObjTotalGFLOPS, nil, m, demand, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.TotalGFLOPS
}

// TestDecideMatchesNaivePerMachineScoring checks the equivalence-class
// memoized decide against an unmemoized per-candidate scoring loop: the
// chosen member, score, and after must be bitwise what a cold
// per-machine marginal scan produces. Members deliberately mix repeated
// and unique (topology, demand) classes plus a numa-bad host, and the
// same members are decided twice so the second pass runs entirely from
// the fleet-wide memo.
func TestDecideMatchesNaivePerMachineScoring(t *testing.T) {
	members := []Member{
		{ID: "a", Topology: machine.PaperModel(), Apps: []PlacedApp{
			{ID: "a-1", AppSpec: AppSpec{Name: "mem", AI: 0.5}}}},
		{ID: "b", Topology: machine.PaperModel(), Apps: []PlacedApp{ // same class as a
			{ID: "b-1", AppSpec: AppSpec{Name: "mem", AI: 0.5}}}},
		{ID: "c", Topology: machine.PaperModel(), Apps: []PlacedApp{ // heavier class
			{ID: "c-1", AppSpec: AppSpec{Name: "mem", AI: 0.5}}, {ID: "c-2", AppSpec: AppSpec{Name: "comp", AI: 10}}}},
		{ID: "d", Topology: machine.SkylakeQuad(), Apps: []PlacedApp{ // different topo, same demand as a
			{ID: "d-1", AppSpec: AppSpec{Name: "mem", AI: 0.5}}}},
		{ID: "e", Topology: machine.PaperModel(), Apps: []PlacedApp{ // numa-bad host
			{ID: "e-1", AppSpec: AppSpec{Name: "bad", AI: 0.5, Placement: "numa-bad", HomeNode: 1}}}},
	}
	decideMatchesNaive(t, members, []AppSpec{
		{Name: "incoming", AI: 2},
		{Name: "incoming-mem", AI: 1.0 / 32},
		{Name: "incoming-bad", AI: 0.25, Placement: "numa-bad", HomeNode: 0},
	}, false, nil)
}

// TestDecideMatchesNaiveSpreadScoring is the domain-spread variant: one
// class spans three domains that host different numbers of each
// incoming app's cooperating group, so score ties are settled by the
// domain tie-break, and decide — which scores each class once whatever
// its domains — must still match the per-machine scan bit for bit.
func TestDecideMatchesNaiveSpreadScoring(t *testing.T) {
	decideMatchesNaive(t, spreadMembers(), spreadSpecs, true, nil)
}

// spreadMembers is TestDecideMatchesNaiveSpreadScoring's fleet: one
// class over three domains hosting different numbers of each incoming
// app's cooperating group, a heavier class, another topology, a
// numa-bad host and a member that is its own domain.
func spreadMembers() []Member {
	mem := func(id, name string) []PlacedApp { return []PlacedApp{{ID: id, AppSpec: AppSpec{Name: name, AI: 0.5}}} }
	return []Member{
		{ID: "a1", Domain: "r1", Topology: machine.PaperModel(), Apps: mem("a1-1", "web-1")},
		{ID: "a2", Domain: "r1", Topology: machine.PaperModel(), Apps: mem("a2-1", "web-2")},
		{ID: "a3", Domain: "r2", Topology: machine.PaperModel(), Apps: mem("a3-1", "db-1")},
		{ID: "a4", Domain: "r2", Topology: machine.PaperModel(), Apps: mem("a4-1", "db-2")},
		{ID: "a5", Domain: "r3", Topology: machine.PaperModel(), Apps: mem("a5-1", "web-3")},
		{ID: "a6", Domain: "r3", Topology: machine.PaperModel(), Apps: mem("a6-1", "db-3")},
		{ID: "c", Domain: "r2", Topology: machine.PaperModel(), Apps: []PlacedApp{ // heavier class
			{ID: "c-1", AppSpec: AppSpec{Name: "web-4", AI: 0.5}}, {ID: "c-2", AppSpec: AppSpec{Name: "comp", AI: 10}}}},
		{ID: "d", Domain: "r1", Topology: machine.SkylakeQuad(), Apps: mem("d-1", "db-4")},
		{ID: "e", Domain: "r3", Topology: machine.PaperModel(), Apps: []PlacedApp{ // numa-bad host
			{ID: "e-1", AppSpec: AppSpec{Name: "web-bad", AI: 0.5, Placement: "numa-bad", HomeNode: 1}}, {ID: "e-2", AppSpec: AppSpec{Name: "comp", AI: 10}}}},
		{ID: "f", Topology: machine.PaperModel(), Apps: mem("f-1", "web-5")}, // its own domain
	}
}

var spreadSpecs = []AppSpec{
	{Name: "web-9", AI: 2},
	{Name: "db-9", AI: 2},
	{Name: "etl-1", AI: 1.0 / 32},
	{Name: "web-10", AI: 0.5},
	{Name: "db-bad", AI: 0.25, Placement: "numa-bad", HomeNode: 0},
}

// TestDecideMatchesNaiveKeepFilterScoring pins the scope of the domain
// counts: a session.pick keep filter hands decide the filtered pool, and
// the counts run over that pool, not the whole fleet. Without a2, r1
// hosts one web app, not two, so web-9 ties a1 with a3 and goes to a1
// (the first in ID order); counted over the whole fleet it would go to a3.
func TestDecideMatchesNaiveKeepFilterScoring(t *testing.T) {
	decideMatchesNaive(t, spreadMembers(), spreadSpecs, true, func(id string) bool { return id != "a2" })
}

// decideMatchesNaive decides each spec against the members with and
// without a warm memo and holds the result to an unmemoized scan over the
// members applying the selection rule directly: the best score; within
// scoreTieEps, under spread the domain hosting fewer of the app's
// cooperating group (counted over every member decide is handed), then
// fewer apps; then the first in ID order. With keep non-nil the decision
// runs through a session's pick over the members keep admits, and the
// scan sees only those.
func decideMatchesNaive(t *testing.T, members []Member, specs []AppSpec, spread bool, keep func(id string) bool) {
	t.Helper()
	scan := members
	if keep != nil {
		scan = slices.DeleteFunc(slices.Clone(members), func(m Member) bool { return !keep(m.ID) })
	}
	domainOf := func(m *Member) string {
		if m.Domain == "" {
			return m.ID
		}
		return m.Domain
	}
	for _, spec := range specs {
		app := mustRoofline(t, spec)
		domCount := map[string]int{}
		for i := range scan {
			for _, a := range scan[i].Apps {
				if groupOf(a.Name) == groupOf(spec.Name) {
					domCount[domainOf(&scan[i])]++
				}
			}
		}
		var pool []*Member
		for i := range scan {
			if !spec.numaBad() || scan[i].NUMABadApps() == 0 {
				pool = append(pool, &scan[i])
			}
		}
		if len(pool) == 0 {
			for i := range scan {
				pool = append(pool, &scan[i])
			}
		}
		var want *Member
		var wantScore, wantAfter float64
		for _, m := range pool {
			if spec.numaBad() && (spec.HomeNode < 0 || spec.HomeNode >= m.Topology.NumNodes()) {
				continue
			}
			var demand []roofline.App
			for _, a := range m.Apps {
				demand = append(demand, mustRoofline(t, a.EffectiveSpec()))
			}
			before := naiveSolveTotal(t, m.Topology, demand)
			after := naiveSolveTotal(t, m.Topology, append(demand, app))
			score := after - before
			switch {
			case want == nil, score > wantScore+scoreTieEps:
			case score <= wantScore-scoreTieEps:
				continue
			case spread && domCount[domainOf(m)] != domCount[domainOf(want)]:
				if domCount[domainOf(m)] > domCount[domainOf(want)] {
					continue
				}
			case len(m.Apps) >= len(want.Apps):
				continue
			}
			want, wantScore, wantAfter = m, score, after
		}
		if want == nil {
			t.Fatalf("%s: naive scan found no candidate", spec.Name)
		}

		sc := NewScorer()
		sc.DomainSpread = spread
		for pass := 0; pass < 2; pass++ { // pass 1 runs fully memoized
			var d *Decision
			var err error
			if keep == nil {
				d, _, err = sc.decide(spec, new(candidateSet).reset(members, true, spread))
			} else {
				s := openSession(sc, memInventory(members), spread)
				d, _, err = s.pick(spec, func(c *candidate) bool { return keep(c.id) })
				s.close()
			}
			if err != nil {
				t.Fatalf("%s pass %d: %v", spec.Name, pass, err)
			}
			if d.Member != want.ID || d.Score != wantScore || d.After != wantAfter {
				t.Errorf("%s pass %d: decide chose %s (score %v after %v), naive chose %s (score %v after %v)",
					spec.Name, pass, d.Member, d.Score, d.After, want.ID, wantScore, wantAfter)
			}
		}
	}
}

// TestScorerClassDedup pins the memo behaviour decide relies on: a
// fleet of interchangeable machines costs one solve pair on the first
// decision (every further candidate hits the per-decision class map),
// and a repeat decision against the unchanged fleet is solve-free —
// pure LRU hits, two of them. Spreading the machines over four failure
// domains changes neither: the class is (topology, demand), not the
// domain, so the repeat still costs two hits, not one pair per domain.
func TestScorerClassDedup(t *testing.T) {
	for _, spread := range []bool{false, true} {
		members := make([]Member, 16)
		for i := range members {
			id := string(rune('a' + i))
			members[i] = Member{ID: "m-" + id, Domain: fmt.Sprintf("rack-%d", i%4), Topology: machine.PaperModel(),
				Apps: []PlacedApp{{ID: id + "-1", AppSpec: AppSpec{Name: "mem", AI: 0.5}}}}
		}
		sc := NewScorer()
		sc.DomainSpread = spread
		spec := AppSpec{Name: "incoming", AI: 2}
		if _, _, err := sc.decide(spec, new(candidateSet).reset(members, true, spread)); err != nil {
			t.Fatal(err)
		}
		hits, misses := sc.CacheStats()
		if misses != 2 { // one before-solve, one after-solve for the single class
			t.Errorf("spread=%v: first decision: %d memo misses, want 2 (hits %d)", spread, misses, hits)
		}
		if _, _, err := sc.decide(spec, new(candidateSet).reset(members, true, spread)); err != nil {
			t.Fatal(err)
		}
		hits2, misses2 := sc.CacheStats()
		if misses2 != misses {
			t.Errorf("spread=%v: repeat decision re-solved: misses %d -> %d", spread, misses, misses2)
		}
		if hits2 != hits+2 {
			t.Errorf("spread=%v: repeat decision: hits %d -> %d, want +2", spread, hits, hits2)
		}
	}
}

// leafCountingSpec is the total-GFLOPS objective that counts the leaves
// a search scores under it.
type leafCountingSpec struct {
	roofline.ObjectiveSpec
	leaves *atomic.Int64
}

func (s leafCountingSpec) Objective(apps []roofline.App) roofline.Objective {
	obj := s.ObjectiveSpec.Objective(apps)
	return func(r *roofline.Result) float64 {
		s.leaves.Add(1)
		return obj(r)
	}
}

// everyRowSpec withdraws a spec's symmetry declaration: the search
// walks every row, interchangeable apps or not.
type everyRowSpec struct{ roofline.ObjectiveSpec }

func (everyRowSpec) Symmetric() bool { return false }

// unboundedSpec withdraws a spec's bound: the search scores every row
// it walks.
type unboundedSpec struct{ roofline.ObjectiveSpec }

func (unboundedSpec) Bound(*machine.Machine, []roofline.App) roofline.BoundFunc { return nil }

// permutations calls visit with every ordering of 0..n-1 (Heap's
// algorithm); the slice is reused between calls.
func permutations(n int, visit func([]int)) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			visit(p)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				p[i], p[k-1] = p[k-1], p[i]
			} else {
				p[0], p[k-1] = p[k-1], p[0]
			}
		}
	}
	rec(n)
}

// TestScorerIsOrderFree: within a demand set nothing the Scorer computes
// depends on the order or the names the apps arrive with. Every
// permutation and renaming of a seeded mix, solved on a Scorer of its
// own, gives the same total to the bit, the same key digest and the
// same per-slot counts, from the same number of scored leaves. And a
// marginal's with-app search scores the same number of leaves whether
// the solve of the machine without the app was run for it or found in
// the memo under another arrival order — the warm-start hint describes
// slots, not the filler's rows. A third of the seeds draw replicas (the
// first app again, the newcomer too): the search walks one row per
// orbit of them, fewer leaves than the walk over every row, and the
// smaller tree is as order-free as the whole one.
func TestScorerIsOrderFree(t *testing.T) {
	for _, m := range []*machine.Machine{machine.PaperModel(), machine.SkylakeQuad(), machine.KNLSNC4()} {
		for seed := int64(0); seed < 6; seed++ {
			r := rand.New(rand.NewSource(seed))
			n := 2 + r.Intn(3)
			specs := randomSpecs(r, m, n, seed%3 == 2)
			newSpec := randomSpecs(r, m, 1, false)[0]
			replicas := seed%3 == 1
			if replicas {
				for i := 1; i < n; i += 2 {
					specs[i] = specs[0]
				}
				newSpec = specs[0]
			}
			newcomer := mustRoofline(t, newSpec)
			label := fmt.Sprintf("%s/seed=%d/n=%d", m.Name, seed, n)
			demand := make([]roofline.App, n)
			for i, s := range specs {
				demand[i] = mustRoofline(t, s)
			}

			var leaves atomic.Int64
			counting := func() *Scorer {
				sc := NewScorer()
				sc.Objective = leafCountingSpec{roofline.ObjTotalGFLOPS, &leaves}
				return sc
			}
			// The reference: the set as generated, its without-app solve run
			// for the marginal itself.
			ref := counting()
			var s scoreScratch
			want, err := ref.solveDemand(m, demand, nil, nil, &s)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			wantCold := leaves.Swap(0)
			if replicas {
				// Without a bound, so that the plateau's tie cuts do not hide
				// the difference.
				walk := func(spec roofline.ObjectiveSpec) int64 {
					sc := NewScorer()
					sc.Objective = spec
					if _, err := sc.solveDemand(m, demand, nil, nil, &s); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					return leaves.Swap(0)
				}
				unbounded := unboundedSpec{leafCountingSpec{roofline.ObjTotalGFLOPS, &leaves}}
				if orbits, all := walk(unbounded), walk(everyRowSpec{unbounded}); orbits >= all {
					t.Errorf("%s: scored %d leaves, %d walking every row: the replicas' orbits are not merged", label, orbits, all)
				}
			}
			_, wantWith, err := ref.marginal(m, demand, nil, newcomer, &s)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			wantLeaves := leaves.Load()

			permuted := make([]roofline.App, n)
			permutations(n, func(p []int) {
				for i, j := range p {
					permuted[i] = demand[j]
					permuted[i].Name = fmt.Sprintf("renamed-%d", i)
				}
				sc := counting()
				leaves.Store(0)
				got, err := sc.solveDemand(m, permuted, nil, nil, &s)
				if err != nil {
					t.Fatalf("%s: order %v: %v", label, p, err)
				}
				if got := leaves.Load(); got != wantCold {
					t.Errorf("%s: order %v scored %d leaves, generated order %d", label, p, got, wantCold)
				}
				if got.total != want.total || !reflect.DeepEqual(got.solved, want.solved) {
					t.Errorf("%s: order %v solved total %v %+v, generated order %v %+v",
						label, p, got.total, got.solved, want.total, want.solved)
				}
				// The memo now holds the without-app solve as this order filled
				// it; the marginal of the generated order hits it.
				leaves.Store(0)
				_, gotWith, err := sc.marginal(m, demand, nil, newcomer, &s)
				if err != nil {
					t.Fatalf("%s: order %v: %v", label, p, err)
				}
				if hits, misses := sc.CacheStats(); hits != 1 || misses != 2 {
					t.Fatalf("%s: order %v: %d hits, %d misses, want the permuted set hit and the with-app set solved", label, p, hits, misses)
				}
				if gotWith.total != wantWith.total || !reflect.DeepEqual(gotWith.solved, wantWith.solved) {
					t.Errorf("%s: with-app solve after order %v: %v %+v, want %v %+v",
						label, p, gotWith.total, gotWith.solved, wantWith.total, wantWith.solved)
				}
				if got := leaves.Load(); got != wantLeaves {
					t.Errorf("%s: with-app search scored %d leaves after a hit filled in order %v, %d after its own solve",
						label, got, p, wantLeaves)
				}
			})
		}
	}
}
