package fleet

import (
	"context"
	"math"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/faultinject"
	"repro/internal/machine"
)

// twoMachineFleet starts two coopd machines, registers the Table I mix
// (3 mem + 1 comp) entirely on machine a — the worst case a naive
// client fleet produces — and returns a polled inventory plus a
// rebalancer over it.
func twoMachineFleet(t *testing.T, maxMoves int) (*Inventory, *Rebalancer) {
	t.Helper()
	ctx := context.Background()
	a, b := newCoopd(t), newCoopd(t)
	inv := NewInventory(InventoryConfig{NewClient: fastClients(nil), FailAfter: 2})
	if err := inv.Add("a", a.URL); err != nil {
		t.Fatal(err)
	}
	if err := inv.Add("b", b.URL); err != nil {
		t.Fatal(err)
	}
	inv.Poll(ctx)
	cli, err := inv.Client("a")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []AppSpec{memSpec("mem-a"), memSpec("mem-b"), memSpec("mem-c"), compSpec("comp")} {
		if _, err := cli.Register(ctx, spec.RegisterRequest()); err != nil {
			t.Fatal(err)
		}
	}
	inv.Poll(ctx)
	_, reb := planners(t, inv, ServerConfig{MaxMovesPerRound: maxMoves, Logf: t.Logf})
	return inv, reb
}

// TestRebalanceClosesImbalanceGap: all four Table I apps piled on one
// machine solve to 254 GFLOPS while the greedy re-pack of the same apps
// over both machines reaches 384 ({comp, mem} at 320 + {mem, mem} at
// 64); the gap exceeds the 0.9 threshold, so the rebalancer moves two
// memory apps over — and the following round finds the fleet inside the
// threshold and leaves it alone (no churn at the fixed point).
func TestRebalanceClosesImbalanceGap(t *testing.T) {
	ctx := context.Background()
	inv, reb := twoMachineFleet(t, 4)

	plan, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !near(plan.CurrentGFLOPS, 254) || !near(plan.RepackGFLOPS, 384) {
		t.Fatalf("current %g / repack %g GFLOPS, want ~254 / ~384",
			plan.CurrentGFLOPS, plan.RepackGFLOPS)
	}
	if len(plan.Moves) != 2 || plan.Deferred != 0 {
		t.Fatalf("planned %d moves (%d deferred), want exactly 2", len(plan.Moves), plan.Deferred)
	}
	for _, mv := range plan.Moves {
		if mv.Reason != ReasonRebalance || mv.From != "a" || mv.To != "b" {
			t.Fatalf("move %+v, want rebalance a -> b", mv)
		}
	}

	inv.Poll(ctx)
	ma, _ := inv.Member("a")
	mb, _ := inv.Member("b")
	if len(ma.Apps) != 2 || len(mb.Apps) != 2 {
		t.Fatalf("apps after rebalance: a=%d b=%d, want 2/2", len(ma.Apps), len(mb.Apps))
	}
	if !near(ma.TotalGFLOPS+mb.TotalGFLOPS, 384) {
		t.Fatalf("aggregate %g after rebalance, want ~384", ma.TotalGFLOPS+mb.TotalGFLOPS)
	}

	again, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Moves) != 0 {
		t.Fatalf("steady state still churns: %+v", again.Moves)
	}
}

// TestRebalanceBoundsMovesPerRound: with the per-round cap at 1, the
// same imbalance is closed one move at a time, reporting the deferred
// remainder.
func TestRebalanceBoundsMovesPerRound(t *testing.T) {
	ctx := context.Background()
	_, reb := twoMachineFleet(t, 1)
	plan, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 1 || plan.Deferred != 1 {
		t.Fatalf("moves %d / deferred %d, want 1 / 1", len(plan.Moves), plan.Deferred)
	}
}

// TestRebalanceDrainsMarkedMember: draining is urgent — every app on
// the draining member moves off (threshold ignored), targets exclude
// the member, and the moves carry the drain reason.
func TestRebalanceDrainsMarkedMember(t *testing.T) {
	ctx := context.Background()
	inv, reb := twoMachineFleet(t, 4)
	if err := inv.SetDraining("a", true); err != nil {
		t.Fatalf("SetDraining failed: %v", err)
	}
	plan, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 4 {
		t.Fatalf("planned %d moves, want all 4 apps off the draining member", len(plan.Moves))
	}
	for _, mv := range plan.Moves {
		if mv.Reason != ReasonDrain || mv.From != "a" || mv.To != "b" {
			t.Fatalf("move %+v, want drain a -> b", mv)
		}
	}
	inv.Poll(ctx)
	if n := appsOn(t, inv, "a"); n != 0 {
		t.Fatalf("draining member still hosts %d apps", n)
	}
	if n := appsOn(t, inv, "b"); n != 4 {
		t.Fatalf("survivor hosts %d apps, want 4", n)
	}
	// The drained member receives no new placements while draining.
	pl, _ := planners(t, inv, ServerConfig{})
	if d, err := pl.Decide(memSpec("fresh")); err != nil {
		t.Fatal(err)
	} else if d.Member != "b" {
		t.Fatalf("fresh app decided onto draining member %s", d.Member)
	}
}

// TestRebalanceCooldownBlocksRepeatMoves: an app whose record says the
// preempt/drift/imbalance passes moved it in round k is excluded from
// those passes for rounds k+1..k+CooldownRounds, then becomes movable
// again; an app with no move round never is. The snapshot's records
// carry the round, and only executed rounds advance the clock.
func TestRebalanceCooldownBlocksRepeatMoves(t *testing.T) {
	ctx := context.Background()
	inv := memInventory([]Member{{ID: "a", Topology: machine.PaperModel(), Apps: []PlacedApp{
		{ID: "a-1", AppSpec: memSpec("app"), MovedRound: 1}, {ID: "a-2", AppSpec: memSpec("fresh")},
	}}})
	cooldowns := func(reb *Rebalancer) map[string]int {
		t.Helper()
		plan, err := reb.Plan(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Cooldowns
	}
	_, reb := planners(t, inv, ServerConfig{CooldownRounds: 2})
	inv.endRound() // the move's round completes
	for i := 1; i <= 2; i++ {
		if cds, want := cooldowns(reb), map[string]int{"app": 2 - i + 1}; !reflect.DeepEqual(cds, want) {
			t.Fatalf("round +%d: cooldowns %v, want %v", i, cds, want)
		}
		inv.endRound()
	}
	if cds := cooldowns(reb); len(cds) != 0 {
		t.Fatalf("app still on cooldown after CooldownRounds elapsed: %v", cds)
	}

	// Disabled guard: nothing is ever on cooldown, not even an app moved
	// in the planned round itself, as a gang's victim is between rounds.
	edit(inv.members["a"]).apps[0].MovedRound = inv.clock()
	_, off := planners(t, inv, ServerConfig{CooldownRounds: -1})
	if cds := cooldowns(off); len(cds) != 0 {
		t.Fatalf("disabled cooldown still blocks moves: %v", cds)
	}
}

// TestRebalanceCooldownDampsImmediateBounce: after the imbalance round
// moves two mem apps a -> b, deregistering one app on b re-opens a gap
// whose greedy re-pack would bounce a just-moved app straight back. The
// cooldown excludes it, so the next round plans no moves for it; once
// the cooldown expires the pass may move it again.
func TestRebalanceCooldownDampsImmediateBounce(t *testing.T) {
	ctx := context.Background()
	inv, reb := twoMachineFleet(t, 4) // the default cooldown: 2 rounds

	plan, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 2 {
		t.Fatalf("setup round planned %d moves, want 2", len(plan.Moves))
	}
	moved := map[string]bool{}
	for _, mv := range plan.Moves {
		moved[mv.App.Name] = true
	}

	// Perturb: drop the comp app from a so the balance point shifts and
	// a fresh re-pack wants the mem apps consolidated differently.
	ma, _ := inv.Member("a")
	cli, err := inv.Client("a")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range ma.Apps {
		if app.Name == "comp" {
			if err := cli.Deregister(ctx, app.ID); err != nil {
				t.Fatal(err)
			}
		}
	}

	for round := 0; round < 2; round++ {
		p, err := reb.Round(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, mv := range p.Moves {
			if moved[mv.App.Name] {
				t.Fatalf("round +%d re-moved %s while on cooldown: %+v", round+1, mv.App.Name, mv)
			}
		}
		for name := range moved {
			if _, ok := p.Cooldowns[name]; !ok {
				t.Fatalf("round +%d plan does not report %s cooling down: %v", round+1, name, p.Cooldowns)
			}
		}
	}
}

// behindFleet registers (spec set) or deregisters (spec nil, every app
// named name) on a member's coopd directly, as a client of that machine
// would: the fleet learns of it at its next poll.
func behindFleet(t *testing.T, inv *Inventory, member, name string, spec *AppSpec) {
	t.Helper()
	ctx := context.Background()
	cli, err := inv.Client(member)
	if err != nil {
		t.Fatal(err)
	}
	if spec != nil {
		if _, err := cli.Register(ctx, spec.RegisterRequest()); err != nil {
			t.Fatal(err)
		}
		return
	}
	m, _ := inv.Member(member)
	for _, a := range m.Apps {
		if a.Name == name {
			if err := cli.Deregister(ctx, a.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// movedNames lists a plan's moves as "name from->to".
func movedNames(p *Plan) []string {
	var out []string
	for _, mv := range p.Moves {
		out = append(out, mv.App.Name+" "+mv.From+"->"+mv.To)
	}
	return out
}

// TestCooldownBelongsToItsRegistration: a cooldown is the moved
// registration's, not its name's. The first round moves mem-a and mem-c
// from the Table I pile on a to b. Both then leave, and fresh apps of
// the same names register on a: the fleet is back at 254 GFLOPS against
// a 384 re-pack, nothing is cooling down, and the next plan moves the
// two again. And while the moved mem-a cools down on b, a second live
// mem-a, registered on a with mem-d, moves to b with mem-d. A register
// sent straight to a member with the largest round a uint64 holds
// saturates the clock: it neither wraps nor panics, and the app stays
// frozen.
func TestCooldownBelongsToItsRegistration(t *testing.T) {
	ctx := context.Background()
	t.Run("name reused", func(t *testing.T) {
		inv, reb := twoMachineFleet(t, 4)
		if _, err := reb.Round(ctx); err != nil {
			t.Fatal(err)
		}
		inv.Poll(ctx)
		for _, name := range []string{"mem-a", "mem-c"} {
			behindFleet(t, inv, "b", name, nil)
			spec := memSpec(name)
			behindFleet(t, inv, "a", name, &spec)
		}
		inv.Poll(ctx)
		plan, err := reb.Plan(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !near(plan.CurrentGFLOPS, 254) || len(plan.Cooldowns) != 0 || len(plan.Moves) != 2 {
			t.Fatalf("current %g GFLOPS, cooldowns %v, moves %v: want 254, none cooling and two moves",
				plan.CurrentGFLOPS, plan.Cooldowns, movedNames(plan))
		}
	})
	t.Run("two live apps of one name", func(t *testing.T) {
		inv, reb := twoMachineFleet(t, 4)
		if _, err := reb.Round(ctx); err != nil {
			t.Fatal(err)
		}
		inv.Poll(ctx)
		for _, name := range []string{"mem-a", "mem-d"} {
			spec := memSpec(name)
			behindFleet(t, inv, "a", name, &spec)
		}
		inv.Poll(ctx)
		plan, err := reb.Plan(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"mem-a a->b", "mem-d a->b"}; !reflect.DeepEqual(movedNames(plan), want) || plan.Cooldowns["mem-a"] != DefaultCooldownRounds {
			t.Fatalf("moves %v, cooldowns %v: want %v, the moved mem-a on b cooling down", movedNames(plan), plan.Cooldowns, want)
		}
	})
	t.Run("the last round from outside", func(t *testing.T) {
		inv, reb := twoMachineFleet(t, 4)
		cli, err := inv.Client("a")
		if err != nil {
			t.Fatal(err)
		}
		req := memSpec("late").RegisterRequest()
		req.MovedRound = math.MaxUint64
		if _, err := cli.Register(ctx, req); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			plan, err := reb.Round(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got := inv.clock(); got != math.MaxUint64 || plan.Cooldowns["late"] != DefaultCooldownRounds+1 || slices.Contains(movedNames(plan), "late a->b") {
				t.Fatalf("round %d: clock %d, cooldowns %v, moves %v: want the clock saturated and late frozen",
					i+1, got, plan.Cooldowns, movedNames(plan))
			}
		}
	})
}

// TestRestartedFleetdKeepsCooldowns: a fleetd started over the same
// members after a round plans exactly what the running one plans, with
// the same cooldowns. The first round moves mem-a and mem-c to b; then
// comp2 registers on a. Both fleetds move comp2 to b, and neither
// moves mem-c back to a the round after moving it there.
func TestRestartedFleetdKeepsCooldowns(t *testing.T) {
	ctx := context.Background()
	inv, reb := twoMachineFleet(t, 4)
	if _, err := reb.Round(ctx); err != nil {
		t.Fatal(err)
	}
	spec := compSpec("comp2")
	behindFleet(t, inv, "a", "comp2", &spec)
	inv.Poll(ctx)
	running, err := reb.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}

	fresh := NewInventory(InventoryConfig{NewClient: fastClients(nil), FailAfter: 2})
	for _, id := range []string{"a", "b"} {
		if err := fresh.Add(id, inv.endpoints(id)...); err != nil {
			t.Fatal(err)
		}
	}
	fresh.Poll(ctx)
	_, freshReb := planners(t, fresh, ServerConfig{MaxMovesPerRound: 4, Logf: t.Logf})
	restarted, err := freshReb.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"comp2 a->b"}; !reflect.DeepEqual(movedNames(running), want) {
		t.Fatalf("the running fleetd moves %v, want %v", movedNames(running), want)
	}
	if !reflect.DeepEqual(restarted, running) {
		t.Fatalf("a restarted fleetd plans\n  %v, cooldowns %v\nthe running one\n  %v, cooldowns %v",
			movedNames(restarted), restarted.Cooldowns, movedNames(running), running.Cooldowns)
	}
}

// TestRebalanceBudgetSharedAcrossPasses: every pass plans through the
// one ledger. Each case hands one pass more work than the round's
// budget; the plan carries exactly Budget moves of that pass's reason,
// reports the remainder as deferred, and accounts for what it spent.
func TestRebalanceBudgetSharedAcrossPasses(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		pass     string
		reason   string
		budget   int
		deferred int
		fleet    func(t *testing.T) *Rebalancer
	}{
		{"urgent", ReasonDrain, 3, 1, func(t *testing.T) *Rebalancer {
			inv, reb := twoMachineFleet(t, 3) // four apps on a
			if err := inv.SetDraining("a", true); err != nil {
				t.Fatal(err)
			}
			return reb
		}},
		{"storm", ReasonMachineLost, 2, 1, func(t *testing.T) *Rebalancer {
			inv, part, hosts, reb := stormFleet(t, ServerConfig{}) // three apps on a
			part.Isolate(hosts[0])
			inv.Poll(ctx)
			return reb
		}},
		{"preempt", ReasonPreempt, 2, 1, func(t *testing.T) *Rebalancer {
			// a, b and c each starve a latency app one slot over their
			// floor; d and e have room for the victims.
			inv, _, _ := tinyFleet(t, "a", "b", "c", "d", "e")
			for _, id := range []string{"a", "b", "c"} {
				lat := memSpec("lat-" + id)
				lat.Priority = PriorityLatency
				registerWithPriority(t, inv, id, lat)
				registerWithPriority(t, inv, id, memSpec("batch-"+id+"-1"))
				registerWithPriority(t, inv, id, memSpec("batch-"+id+"-2"))
			}
			_, reb := planners(t, inv, ServerConfig{MaxMovesPerRound: 2, Logf: t.Logf})
			return reb
		}},
		{"drift", ReasonDrift, 1, 1, func(t *testing.T) *Rebalancer {
			// Two wolves on a declare memory-bound and measure
			// compute-bound; b and c are empty.
			inv := NewInventory(InventoryConfig{NewClient: fastClients(nil), FailAfter: 2})
			for id, hs := range map[string]*httptest.Server{"a": newRecalCoopd(t), "b": newCoopd(t), "c": newCoopd(t)} {
				if err := inv.Add(id, hs.URL); err != nil {
					t.Fatal(err)
				}
			}
			cli, err := inv.Client("a")
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range []AppSpec{memSpec("mem-a"), memSpec("mem-b"), memSpec("wolf-1"), memSpec("wolf-2")} {
				resp, err := cli.Register(ctx, spec.RegisterRequest())
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 10 && spec.Name[0] == 'w'; i++ {
					if _, err := cli.Report(ctx, ctrlplane.ReportRequest{
						ID:      resp.ID,
						Samples: []ctrlplane.ReportSample{{GFLOPS: 290, GBps: 29, Threads: 29}},
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			_, reb := planners(t, inv, ServerConfig{MaxMovesPerRound: 1, Logf: t.Logf})
			return reb
		}},
		{"imbalance", ReasonRebalance, 1, 1, func(t *testing.T) *Rebalancer {
			_, reb := twoMachineFleet(t, 1) // the re-pack wants two moves
			return reb
		}},
	} {
		t.Run(tc.pass, func(t *testing.T) {
			reb := tc.fleet(t)
			reb.Inv.Poll(ctx)
			plan, err := reb.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Budget != tc.budget || len(plan.Moves) != tc.budget || plan.BudgetSpent != len(plan.Moves) {
				t.Fatalf("budget %d, %d moves, spent %d; want all three = %d",
					plan.Budget, len(plan.Moves), plan.BudgetSpent, tc.budget)
			}
			if plan.Deferred != tc.deferred {
				t.Fatalf("deferred %d, want the remainder %d", plan.Deferred, tc.deferred)
			}
			for _, mv := range plan.Moves {
				if mv.Reason != tc.reason {
					t.Fatalf("move %+v, want only %s moves", mv, tc.reason)
				}
			}
		})
	}
}

// stormFleet starts three coopd machines behind a partition fabric:
// a carries three memory-bound apps, b four, c none. Killing a strands
// a third of the fleet's members with un-evacuated apps — exactly one
// over the default 0.25 storm fraction — so the rebalancer's degraded
// mode engages with a small, fully predictable triage. The rebalancer
// gets cfg's knobs, a budget of 2 and an admission cap of 1.
func stormFleet(t *testing.T, cfg ServerConfig) (*Inventory, *faultinject.Partition, []string, *Rebalancer) {
	t.Helper()
	ctx := context.Background()
	part := faultinject.NewPartition()
	inv := NewInventory(InventoryConfig{
		NewClient: fastClients(part.Transport(nil)),
		FailAfter: 1,
		Logf:      t.Logf,
	})
	hosts := make([]string, 3)
	for i, id := range []string{"a", "b", "c"} {
		hs := newCoopd(t)
		hosts[i] = hostOf(t, hs.URL)
		if err := inv.Add(id, hs.URL); err != nil {
			t.Fatal(err)
		}
	}
	inv.Poll(ctx)
	register := func(member string, specs ...AppSpec) {
		cli, err := inv.Client(member)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			if _, err := cli.Register(ctx, spec.RegisterRequest()); err != nil {
				t.Fatal(err)
			}
		}
	}
	register("a", memSpec("s-1"), memSpec("s-2"), memSpec("s-3"))
	register("b", memSpec("t-1"), memSpec("t-2"), memSpec("t-3"), memSpec("t-4"))
	inv.Poll(ctx)
	cfg.MaxMovesPerRound, cfg.AdmissionCap, cfg.Logf = 2, 1, t.Logf
	_, reb := planners(t, inv, cfg)
	return inv, part, hosts, reb
}

// TestRebalanceStormBrakeTriage: when a dies with three apps, degraded
// mode triages the evacuation under the shared round budget and the
// per-survivor admission cap. The highest marginal recovery (the empty
// machine c, +64 GFLOPS) is admitted first; once c hits the cap the
// next evacuation settles for b (marginal 0 on a bandwidth-bound
// machine) instead of piling on; the third is deferred on budget.
// Degraded mode persists until a's backlog drains, then disengages with
// an empty steady-state plan — and the imbalance pass never fires while
// the storm is active.
func TestRebalanceStormBrakeTriage(t *testing.T) {
	ctx := context.Background()
	inv, part, hosts, reb := stormFleet(t, ServerConfig{})
	part.Isolate(hosts[0])
	inv.Poll(ctx)
	if m, _ := inv.Member("a"); !m.Dead {
		t.Fatal("a not dead after the partition")
	}

	plan, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.StormActive {
		t.Fatal("storm brake not engaged with 1/3 members down and apps pending")
	}
	if plan.Budget != 2 || plan.BudgetSpent != 2 || len(plan.Moves) != 2 || plan.Deferred != 1 {
		t.Fatalf("budget %d spent %d, %d moves %d deferred; want 2/2, 2 moves 1 deferred",
			plan.Budget, plan.BudgetSpent, len(plan.Moves), plan.Deferred)
	}
	inbound := map[string]int{}
	for _, mv := range plan.Moves {
		if mv.Reason != ReasonMachineLost || mv.From != "a" {
			t.Fatalf("move %+v, want machine-lost from a", mv)
		}
		inbound[mv.To]++
	}
	if inbound["b"] != 1 || inbound["c"] != 1 {
		t.Fatalf("storm admissions %v, want exactly one per survivor (cap 1)", inbound)
	}
	if mv := plan.Moves[0]; mv.To != "c" || !near(mv.Score, 64) {
		t.Fatalf("first triaged move %+v, want the +64 recovery on empty c", mv)
	}
	if mv := plan.Moves[1]; mv.To != "b" || !near(mv.Score, 0) {
		t.Fatalf("second triaged move %+v, want the marginal-0 fallback on b", mv)
	}

	// Round 2: one app still stranded on a keeps the storm engaged; it
	// lands on c (fewer apps wins the marginal-0 tie).
	plan, err = reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.StormActive || len(plan.Moves) != 1 || plan.Deferred != 0 {
		t.Fatalf("round 2: storm %v, %d moves %d deferred; want active, 1 move",
			plan.StormActive, len(plan.Moves), plan.Deferred)
	}
	if mv := plan.Moves[0]; mv.To != "c" || mv.Reason != ReasonMachineLost {
		t.Fatalf("round 2 move %+v, want machine-lost onto c", mv)
	}

	// Round 3: backlog drained, storm disengages, and the fleet is at
	// the bandwidth-bound optimum — no tail churn.
	plan, err = reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.StormActive {
		t.Fatal("storm still active after the backlog drained")
	}
	if len(plan.Moves) != 0 {
		t.Fatalf("steady state still churns: %+v", plan.Moves)
	}
	if n := appsOn(t, inv, "b"); n != 5 {
		t.Fatalf("b hosts %d apps, want 5", n)
	}
	if n := appsOn(t, inv, "c"); n != 2 {
		t.Fatalf("c hosts %d apps, want 2", n)
	}
}

// TestRebalanceStormBrakeDisabled: the same failure with the brake off
// shows what the triage prevents — the naive urgent pass tie-breaks
// every evacuation onto the emptiest survivor, so c absorbs the whole
// admitted wave while b takes nothing, and only the global budget
// (not admission control) limits the round.
func TestRebalanceStormBrakeDisabled(t *testing.T) {
	ctx := context.Background()
	inv, part, hosts, reb := stormFleet(t, ServerConfig{DisableStormBrake: true})
	part.Isolate(hosts[0])
	inv.Poll(ctx)

	plan, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.StormActive {
		t.Fatal("storm reported active with the brake disabled")
	}
	if len(plan.Moves) != 2 || plan.Deferred != 1 {
		t.Fatalf("%d moves %d deferred, want the global budget to trim 3 to 2",
			len(plan.Moves), plan.Deferred)
	}
	for _, mv := range plan.Moves {
		if mv.To != "c" {
			t.Fatalf("unbraked move %+v, want the herd piled onto c", mv)
		}
	}
	if n := appsOn(t, inv, "c"); n != 2 {
		t.Fatalf("c absorbed %d apps, want 2 (admission cap would have allowed 1)", n)
	}
}
