package ctrlplane

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/roofline"
	"repro/internal/solvecache"
)

// referenceServed is the cache value as the reference model gives it:
// al with the caps applied, evaluated by roofline.Evaluate.
func referenceServed(m *machine.Machine, apps []AppState, order []int, rapps []roofline.App, al roofline.Allocation) (*cachedSolution, error) {
	for slot, idx := range order {
		trimToCap(al.Threads[slot], apps[idx].Spec.MaxThreads)
	}
	res, err := roofline.Evaluate(m, rapps, al)
	if err != nil {
		return nil, err
	}
	return &cachedSolution{counts: al.Threads, gflops: res.AppGFLOPS, total: res.TotalGFLOPS}, nil
}

// referenceAdopt is adoptSlots' verdict with every evaluation, the even
// split's included, run by the reference model.
func referenceAdopt(m *machine.Machine, apps []AppState, order []int, counts []int) (*cachedSolution, bool) {
	if len(counts) != len(order) {
		return nil, false
	}
	least, uniform := uniformCores(m)
	floor, sum := roofline.SolveFloor(m, len(order)), 0
	for _, c := range counts {
		if c < floor || c > least-sum {
			return nil, false
		}
		sum += c
	}
	rapps := slotApps(apps, order)
	if !roofline.Canonical(roofline.ObjTotalGFLOPS, rapps, counts) {
		return nil, false
	}
	cs, err := referenceServed(m, apps, order, rapps, roofline.MustPerNodeCounts(m, counts))
	if err != nil {
		return nil, false
	}
	even := 0.0
	if split, err := roofline.Even(m, len(order)); err == nil {
		even = roofline.MustEvaluate(m, rapps, split).TotalGFLOPS
	}
	g := roofline.NewScoreGrid(m)
	return cs, !uniform || g.Level(cs.total) >= g.Level(even)
}

// sameServed reports how got differs from want, bit for bit ("" when
// it does not).
func sameServed(got, want *cachedSolution) string {
	if !reflect.DeepEqual(got.counts, want.counts) {
		return fmt.Sprintf("counts %v, reference %v", got.counts, want.counts)
	}
	if len(got.gflops) != len(want.gflops) {
		return fmt.Sprintf("%d rates, reference %d", len(got.gflops), len(want.gflops))
	}
	for i := range want.gflops {
		if math.Float64bits(got.gflops[i]) != math.Float64bits(want.gflops[i]) {
			return fmt.Sprintf("slot %d rate %v, reference %v", i, got.gflops[i], want.gflops[i])
		}
	}
	if math.Float64bits(got.total) != math.Float64bits(want.total) {
		return fmt.Sprintf("total %v, reference %v", got.total, want.total)
	}
	return ""
}

// servedDraw is one demand set of TestServedMatchesReference on m: up to
// seven apps, so some draws have more apps than m's smallest node has
// cores (floor 0, zero counts), about a third NUMA-bad, about a third
// with a thread cap, some of which trim the served rows, and some with
// a fitted model replacing the declared AI.
func servedDraw(r *rand.Rand, m *machine.Machine) []AppState {
	ais := []float64{1.0 / 32, 0.5, 1, 2, 10}
	apps := make([]AppState, 1+r.Intn(7))
	for i := range apps {
		a := &apps[i]
		a.ID = fmt.Sprintf("app%d", i)
		a.Spec = AppSpec{Name: fmt.Sprintf("kind%d", r.Intn(3)), AI: ais[r.Intn(len(ais))]}
		if r.Intn(3) == 0 {
			a.Spec.Placement = roofline.NUMABad
			a.Spec.HomeNode = machine.NodeID(r.Intn(m.NumNodes()))
		}
		if r.Intn(3) == 0 {
			a.Spec.MaxThreads = 1 + r.Intn(m.TotalCores())
		}
		if r.Intn(6) == 0 {
			a.Fitted = &FittedModel{AI: ais[r.Intn(len(ais))]}
		}
	}
	return apps
}

// TestServedMatchesReference holds the served path to the reference
// model with exact ==: the cache value solveSlots builds under both
// policies (counts, per-slot rates, total), and adoptSlots' value and
// verdict for the search's own optimum and for random offers. Its
// fixtures are the paper's mixes and seeded draws on uniform machines
// and on one whose nodes have unequal cores (where fair-share and a
// trimming cap leave the leaf kernel's uniform rows).
func TestServedMatchesReference(t *testing.T) {
	uneven := &machine.Machine{Name: "uneven", Nodes: []machine.Node{
		{Cores: 4, PeakGFLOPS: 10, MemBandwidth: 32},
		{Cores: 6, PeakGFLOPS: 10, MemBandwidth: 32},
		{Cores: 4, PeakGFLOPS: 8, MemBandwidth: 24},
	}}
	tiny := machine.Uniform("tiny", 2, 3, 10, 16, 8)
	iii := []AppState{
		{ID: "mem1", Spec: AppSpec{Name: "mem1", AI: 1.0 / 32}},
		{ID: "mem2", Spec: AppSpec{Name: "mem2", AI: 1.0 / 32}},
		{ID: "mem3", Spec: AppSpec{Name: "mem3", AI: 1.0 / 32}},
		{ID: "comp", Spec: AppSpec{Name: "comp", AI: 1}},
	}
	iiiBad := append([]AppState(nil), iii...)
	iiiBad[3] = AppState{ID: "bad", Spec: AppSpec{Name: "bad", AI: 1.0 / 16, Placement: roofline.NUMABad, HomeNode: 0}}
	type fixture struct {
		m    *machine.Machine
		apps []AppState
	}
	fixtures := []fixture{
		{machine.PaperModel(), tableIMix()},
		{machine.SkylakeQuad(), iii},
		{machine.SkylakeQuad(), iiiBad},
		{machine.SkylakeQuad(), eightAppStates()},
	}
	r := rand.New(rand.NewSource(1))
	for _, m := range []*machine.Machine{machine.PaperModel(), machine.PaperModelNUMABad(), machine.KNLSNC4(), uneven, tiny} {
		for i := 0; i < 12; i++ {
			fixtures = append(fixtures, fixture{m, servedDraw(r, m)})
		}
	}
	seen := map[string]int{}
	for fi, f := range fixtures {
		for _, policy := range []string{PolicyRoofline, PolicyFairShare} {
			label := fmt.Sprintf("fixture %d (%s, %d apps, %s)", fi, f.m.Name, len(f.apps), policy)
			s, err := NewSolver(policy)
			if err != nil {
				t.Fatal(err)
			}
			_, order := s.demandKey(&solvecache.Key{}, f.m, f.apps)
			rapps := slotApps(f.apps, order)
			got, err := s.solveSlots(f.m, f.apps, order)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var al roofline.Allocation
			var counts []int
			if policy == PolicyFairShare {
				al = roofline.FairShareFirst(f.m, len(rapps))
			} else {
				if counts, _, err = new(roofline.Search).Solve(roofline.ObjTotalGFLOPS, nil, f.m, rapps); err != nil {
					t.Fatal(err)
				}
				al = roofline.MustPerNodeCounts(f.m, counts)
			}
			untrimmed := al.Clone()
			want, err := referenceServed(f.m, f.apps, order, rapps, al)
			if err != nil {
				t.Fatal(err)
			}
			if d := sameServed(got, want); d != "" {
				t.Fatalf("%s: solved %s", label, d)
			}
			least, uniform := uniformCores(f.m)
			seen[policy]++
			if !reflect.DeepEqual(want.counts, untrimmed.Threads) {
				seen["a cap trims a row"]++
			}
			if !uniform {
				seen[policy+" on unequal nodes"]++
			}
			if policy == PolicyFairShare {
				continue
			}
			if slices.Contains(counts, 0) {
				seen["zero counts solved"]++
			}
			// The search's optimum, the even split, then random offers:
			// zero counts, rows under the floor or over the node,
			// non-canonical rows.
			offers := [][]int{counts}
			if least%len(counts) == 0 {
				split := make([]int, len(counts))
				for slot := range split {
					split[slot] = least / len(counts)
				}
				offers = append(offers, split)
			}
			for i := 0; i < 24; i++ {
				offer := make([]int, len(counts))
				for slot := range offer {
					offer[slot] = r.Intn(least/len(counts) + 2)
				}
				offers = append(offers, offer)
			}
			for _, offer := range offers {
				got, gotErr := adoptSlots(f.m, f.apps, order, offer)
				want, ok := referenceAdopt(f.m, f.apps, order, offer)
				if (gotErr == nil) != ok {
					t.Fatalf("%s: offer %v: adopt error %v, reference adopts %v", label, offer, gotErr, ok)
				}
				if !ok {
					seen["offer refused"]++
					continue
				}
				seen["offer adopted"]++
				if slices.Contains(offer, 0) {
					seen["zero counts adopted"]++
				}
				if d := sameServed(got, want); d != "" {
					t.Fatalf("%s: offer %v: adopted %s", label, offer, d)
				}
			}
		}
	}
	for _, c := range []string{PolicyRoofline, PolicyFairShare, "a cap trims a row", PolicyRoofline + " on unequal nodes",
		PolicyFairShare + " on unequal nodes", "zero counts solved", "offer refused", "offer adopted", "zero counts adopted"} {
		if seen[c] == 0 {
			t.Errorf("no fixture covers %q (cases seen: %v)", c, seen)
		}
	}
}
