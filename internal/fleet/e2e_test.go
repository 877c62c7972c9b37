package fleet

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/ctrlplane/client"
	"repro/internal/roofline"
)

// TestFleetEndToEnd is the PR's acceptance scenario: a fleetd over
// three paper-model coopd machines places the fleet-sized Table I mix
// (6 memory-bound + 2 compute-bound apps) plus two NUMA-bad apps,
// beats the best single-machine packing, honors anti-affinity, and —
// after one machine is killed — re-places its apps within a bounded
// number of rebalance rounds while each survivor still reproduces the
// paper's Table I ranking (optimal ~254 > even ~140 > node-per-app
// ~128).
func TestFleetEndToEnd(t *testing.T) {
	ctx := context.Background()
	machines := map[string]*httptest.Server{
		"a": newCoopd(t), "b": newCoopd(t), "c": newCoopd(t),
	}
	inv := NewInventory(InventoryConfig{
		NewClient: fastClients(nil),
		FailAfter: 2,
		Logf:      t.Logf,
	})
	for _, id := range []string{"a", "b", "c"} {
		if err := inv.Add(id, machines[id].URL); err != nil {
			t.Fatal(err)
		}
	}
	inv.Poll(ctx)
	srv, err := NewServer(ServerConfig{
		Inventory:        inv,
		MaxMovesPerRound: 2,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	fc := NewClient(hs.URL, nil)

	// Phase 1: place the 8-app mix through the fleet API. Greedy
	// marginal scoring spreads it {mem, comp} / {mem, comp} / {4 mem}.
	placedOn := map[string]string{} // app name -> machine
	for _, spec := range tableIMixSpecs() {
		resp, err := fc.Place(ctx, spec)
		if err != nil {
			t.Fatalf("placing %s: %v", spec.Name, err)
		}
		placedOn[spec.Name] = resp.Machine
		t.Logf("placed %s on %s (score %+.1f)", spec.Name, resp.Machine, resp.Score)
	}
	wantOn := map[string]string{
		"mem-1": "a", "mem-2": "b", "mem-3": "c",
		"comp-1": "a", "comp-2": "b",
		"mem-4": "c", "mem-5": "c", "mem-6": "c",
	}
	for name, want := range wantOn {
		if placedOn[name] != want {
			t.Errorf("%s placed on %s, want %s", name, placedOn[name], want)
		}
	}

	// The fleet aggregate must beat the best single-machine packing of
	// the same demand (computed from the model, not hard-coded: one
	// machine must give every app a thread on every node, so the mix
	// solves to ~140 GFLOPS against the fleet's ~704).
	inv.Poll(ctx)
	fleetTotal := 0.0
	var allApps []roofline.App
	for _, m := range inv.Snapshot() {
		fleetTotal += m.TotalGFLOPS
		for _, a := range m.Apps {
			allApps = append(allApps, mustRoofline(t, a.AppSpec))
		}
	}
	single, err := NewScorer().SolveTotal(inv.Snapshot()[0].Topology, allApps)
	if err != nil {
		t.Fatal(err)
	}
	if fleetTotal < single {
		t.Fatalf("fleet aggregate %g GFLOPS below single-machine packing %g", fleetTotal, single)
	}
	if !near(fleetTotal, 704) || !near(single, 140) {
		t.Errorf("aggregate %g / single-machine %g, want ~704 / ~140", fleetTotal, single)
	}

	// Phase 2: anti-affinity. Two NUMA-bad apps must land on different
	// machines — two all-data-on-node-0 demand sets on one machine fight
	// over home-node bandwidth.
	bad1, err := fc.Place(ctx, badSpec("bad-1"))
	if err != nil {
		t.Fatal(err)
	}
	bad2, err := fc.Place(ctx, badSpec("bad-2"))
	if err != nil {
		t.Fatal(err)
	}
	if bad1.Machine == bad2.Machine {
		t.Fatalf("both numa-bad apps on %s; anti-affinity violated", bad1.Machine)
	}
	// Clear them out again so the kill phase's Table I accounting stays
	// exact (clients deregister directly with their machine's coopd).
	for _, b := range []*PlaceResponse{bad1, bad2} {
		cli, err := inv.Client(b.Machine)
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Deregister(ctx, b.ID); err != nil {
			t.Fatal(err)
		}
	}
	inv.Poll(ctx)

	// Phase 3: kill machine c (it hosts 4 memory-bound apps) and let
	// the rebalancer run. Bounded recovery: FailAfter=2 polls to declare
	// death, then 4 machine-lost moves at 2 per round — everything
	// re-homed within 5 rounds.
	machines["c"].Close()
	reb := srv.Rebalancer()
	rounds, lostMoves := 0, 0
	for i := 0; i < 5; i++ {
		plan, err := reb.Round(ctx)
		if err != nil {
			t.Fatalf("round %d: %v", i+1, err)
		}
		rounds++
		for _, mv := range plan.Moves {
			if mv.Reason != ReasonMachineLost {
				t.Fatalf("round %d: unexpected %s move %+v", i+1, mv.Reason, mv)
			}
			if mv.From != "c" {
				t.Fatalf("round %d: move from %s, want only from the lost machine", i+1, mv.From)
			}
			lostMoves++
		}
		t.Logf("round %d: %d moves, %d deferred", i+1, len(plan.Moves), plan.Deferred)
		if c, _ := inv.Member("c"); c.Dead && len(c.Apps) == 0 && len(plan.Moves) == 0 {
			break
		}
	}
	if lostMoves != 4 {
		t.Fatalf("%d machine-lost moves, want the dead machine's 4 apps", lostMoves)
	}
	if rounds > 5 {
		t.Fatalf("recovery took %d rounds, want bounded", rounds)
	}

	// The fleet view reports the loss.
	ms, err := fc.Machines(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, mv := range ms.Machines {
		if mv.ID == "c" && mv.Status != StatusDead {
			t.Fatalf("machine c status %s, want dead", mv.Status)
		}
	}
	if !near(ms.FleetGFLOPS, 508) {
		t.Errorf("post-loss fleet aggregate %g, want ~508 (two Table I machines)", ms.FleetGFLOPS)
	}

	// Phase 4: each survivor now runs exactly the Table I mix (3 mem +
	// 1 comp) and must reproduce the paper's ranking.
	for _, id := range []string{"a", "b"} {
		if n := appsOn(t, inv, id); n != 4 {
			t.Fatalf("survivor %s hosts %d apps, want 4", id, n)
		}
		cli := client.New(machines[id].URL, client.Config{})
		assertTableIRanking(t, "survivor "+id, cli)
	}
}
