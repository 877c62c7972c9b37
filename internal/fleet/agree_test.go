package fleet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/machine"
	"repro/internal/roofline"
	"repro/internal/solvecache"
)

// TestScorerAndSolverAgree is the property the single solve path
// exists for: for the same (machine, demand multiset) fleetd's Scorer
// and coopd's Solver report the same optimum and file it under the same
// content-addressed key, and permuting or renaming the apps is a cache
// hit on both. Demand sets are seeded random mixes — NUMA-bad apps,
// mixed priorities, all uncapped (the fleet scores the uncapped
// optimum) — and on PaperModel grow past FloorCapacity so the floor-1 →
// floor-0 fallback fires on both sides.
func TestScorerAndSolverAgree(t *testing.T) {
	cases := []struct {
		m       *machine.Machine
		maxApps int
	}{
		{machine.PaperModel(), FloorCapacity(machine.PaperModel()) + 2},
		{machine.SkylakeQuad(), 5},
		{machine.KNLSNC4(), 5},
	}
	for _, c := range cases {
		for seed := int64(0); seed < 10; seed++ {
			r := rand.New(rand.NewSource(seed))
			n := 1 + r.Intn(c.maxApps)
			if seed == 0 {
				n = c.maxApps
			}
			prioritized := seed%2 == 1
			specs := randomSpecs(r, c.m, n, prioritized)
			label := fmt.Sprintf("%s/seed=%d/n=%d", c.m.Name, seed, n)

			sc := NewScorer()
			sv, err := ctrlplane.NewSolver(ctrlplane.PolicyRoofline)
			if err != nil {
				t.Fatal(err)
			}
			demand, states := bothSides(t, specs, "")
			total, err := sc.SolveTotal(c.m, demand)
			if err != nil {
				t.Fatalf("%s: SolveTotal: %v", label, err)
			}
			sol, err := sv.Solve(c.m, states)
			if err != nil {
				t.Fatalf("%s: Solve: %v", label, err)
			}
			if d := math.Abs(total - sol.TotalGFLOPS); d > 1e-9*math.Abs(total) {
				t.Errorf("%s: Scorer total %v, Solver total %v", label, total, sol.TotalGFLOPS)
			}
			// coopd's registry carries no priority, so the two keys can only
			// coincide where the fleet's weights are unset too.
			if !prioritized {
				var k solvecache.Key
				fk, _ := sc.demandKey(&k, c.m, demand)
				if ck := sv.Key(c.m, states); !bytes.Equal(fk, ck) {
					t.Errorf("%s: keys differ:\n fleet %x\n coopd %x", label, fk, ck)
				}
				// Same key, same slot order, same search: the same bits.
				if total != sol.TotalGFLOPS {
					t.Errorf("%s: Scorer total %v and Solver total %v differ in bits under one key", label, total, sol.TotalGFLOPS)
				}
			}

			r.Shuffle(n, func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
			demand, states = bothSides(t, specs, "renamed-")
			hits, misses := sc.CacheStats()
			if again, err := sc.SolveTotal(c.m, demand); err != nil || again != total {
				t.Errorf("%s: permuted SolveTotal = %v, %v; want %v", label, again, err, total)
			}
			if h, m := sc.CacheStats(); h != hits+1 || m != misses {
				t.Errorf("%s: permuted+renamed set missed the Scorer cache (hits %d->%d, misses %d->%d)", label, hits, h, misses, m)
			}
			if again, err := sv.Solve(c.m, states); err != nil || !again.FromCache || again.TotalGFLOPS != sol.TotalGFLOPS {
				t.Errorf("%s: permuted+renamed set missed the Solver cache (%+v, %v)", label, again, err)
			}
		}
	}
}

// randomSpecs is a seeded demand mix for m: AI log-uniform in [1/32,
// 16], a quarter NUMA-bad on a random home node, and — when asked —
// random priority classes.
func randomSpecs(r *rand.Rand, m *machine.Machine, n int, prioritized bool) []AppSpec {
	priorities := []string{"", PriorityBatch, PriorityLatency, PrioritySystem}
	specs := make([]AppSpec, n)
	for i := range specs {
		specs[i] = AppSpec{Name: fmt.Sprintf("app-%d", i), AI: math.Exp2(r.Float64()*9 - 5)}
		if r.Intn(4) == 0 {
			specs[i].Placement = ctrlplane.PlacementBad
			specs[i].HomeNode = r.Intn(m.NumNodes())
		}
		if prioritized {
			specs[i].Priority = priorities[r.Intn(len(priorities))]
		}
	}
	return specs
}

// bothSides renders specs as the Scorer's demand set and as the
// registry states a coopd would hold after registering the same apps.
func bothSides(t *testing.T, specs []AppSpec, rename string) ([]roofline.App, []ctrlplane.AppState) {
	t.Helper()
	demand := make([]roofline.App, len(specs))
	states := make([]ctrlplane.AppState, len(specs))
	for i, s := range specs {
		s.Name = rename + s.Name
		app, err := s.rooflineApp()
		if err != nil {
			t.Fatal(err)
		}
		demand[i] = app
		states[i] = ctrlplane.AppState{
			ID: fmt.Sprintf("%sid-%d", rename, i),
			Spec: ctrlplane.AppSpec{
				Name: s.Name, AI: app.AI, Placement: app.Placement, HomeNode: app.HomeNode,
			},
		}
	}
	return demand, states
}
