package fleet

import (
	"context"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/faultinject"
	"repro/internal/machine"
)

// newCoopdOn starts a coopd over an arbitrary machine model — the
// preemption tests use tiny 2-node x 2-core machines so a demand set
// overruns the floor capacity with a handful of apps.
func newCoopdOn(t *testing.T, m *machine.Machine) *httptest.Server {
	t.Helper()
	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{
		Machine:    m,
		DefaultTTL: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs
}

// registerWithPriority registers the spec, class included, on the
// member through the executor, the way Placer.Place and
// Rebalancer.Execute do.
func registerWithPriority(t *testing.T, inv *Inventory, member string, spec AppSpec) {
	t.Helper()
	if _, err := inv.register(context.Background(), member, spec, 0, nil); err != nil {
		t.Fatal(err)
	}
}

// preemptFleet builds the canonical inversion: two 2x2-core machines,
// machine a hosting one latency app plus two batch apps — three apps
// against a floor capacity of two, so someone on a is starved of a
// guaranteed core while b sits empty. Threshold is floored so the
// imbalance pass stays quiet and the preemption pass is isolated; cfg
// carries the rest of the rebalancer's knobs.
func preemptFleet(t *testing.T, cfg ServerConfig) (*Inventory, *Rebalancer) {
	t.Helper()
	ctx := context.Background()
	tiny := func(name string) *machine.Machine { return machine.Uniform(name, 2, 2, 10, 32, 0) }
	a, b := newCoopdOn(t, tiny("tiny-a")), newCoopdOn(t, tiny("tiny-b"))
	inv := NewInventory(InventoryConfig{NewClient: fastClients(nil), FailAfter: 2})
	if err := inv.Add("a", a.URL); err != nil {
		t.Fatal(err)
	}
	if err := inv.Add("b", b.URL); err != nil {
		t.Fatal(err)
	}
	inv.Poll(ctx)
	lat := memSpec("lat")
	lat.Priority = PriorityLatency
	registerWithPriority(t, inv, "a", lat)
	registerWithPriority(t, inv, "a", memSpec("batch-1"))
	registerWithPriority(t, inv, "a", memSpec("batch-2"))
	inv.Poll(ctx)
	cfg.Threshold, cfg.Logf = 0.01, t.Logf
	_, reb := planners(t, inv, cfg)
	return inv, reb
}

// TestRestartedFleetdKeepsClasses: a fleetd started over members that
// an earlier fleetd filled — a fresh Inventory and Server, nothing
// carried over — reads each app's class from the members. Machine a
// holds api (latency) beside a batch app, b two latency apps, both at
// their floor capacity of 2: a latency gang member must preempt, and
// the only app it may evict is the batch one, never api.
func TestRestartedFleetdKeepsClasses(t *testing.T) {
	ctx := context.Background()
	tiny := func(name string) *machine.Machine { return machine.Uniform(name, 2, 2, 10, 32, 0) }
	urls := map[string]string{"a": newCoopdOn(t, tiny("tiny-a")).URL, "b": newCoopdOn(t, tiny("tiny-b")).URL}
	fleetd := func() *Inventory {
		inv := NewInventory(InventoryConfig{NewClient: fastClients(nil), FailAfter: 2})
		for _, id := range []string{"a", "b"} {
			if err := inv.Add(id, urls[id]); err != nil {
				t.Fatal(err)
			}
		}
		inv.Poll(ctx)
		return inv
	}
	latency := func(name string) AppSpec {
		spec := memSpec(name)
		spec.Priority = PriorityLatency
		return spec
	}
	first := fleetd()
	registerWithPriority(t, first, "a", latency("api"))
	registerWithPriority(t, first, "a", memSpec("batch-1"))
	registerWithPriority(t, first, "b", latency("lat-1"))
	registerWithPriority(t, first, "b", latency("lat-2"))

	inv := fleetd()
	_, fc := newFleetServer(t, inv)
	ms, err := fc.Machines(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms.Machines {
		for _, app := range m.Apps {
			want := PriorityLatency
			if app.Name == "batch-1" {
				want = ""
			}
			if app.Priority != want {
				t.Fatalf("the new fleetd reads %s on %s as %q, want %q", app.Name, m.ID, app.Priority, want)
			}
		}
	}

	res, err := fc.PlaceGang(ctx, GangSpec{Name: "web", Replicas: 1, App: latency("")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Preempted) != 1 || res.Preempted[0].App.Name != "batch-1" {
		t.Fatalf("preempted %+v, want exactly batch-1", res.Preempted)
	}
	inv.Poll(ctx)
	if m, _ := inv.Member("a"); !slices.ContainsFunc(m.Apps, func(a PlacedApp) bool { return a.Name == "api" && a.Priority == PriorityLatency }) {
		t.Fatalf("a holds %+v, want api still there in its class", m.Apps)
	}
}

// TestPreemptRepairsPriorityInversion: the quiet-round repair pass
// evicts exactly one batch app (the overrun) off the starved latency
// machine onto the empty one, marks it with the preempt reason, starts
// its cooldown, and reaches a steady state with no further churn.
func TestPreemptRepairsPriorityInversion(t *testing.T) {
	ctx := context.Background()
	inv, reb := preemptFleet(t, ServerConfig{})

	plan, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 1 {
		t.Fatalf("planned %d moves, want exactly the floor overrun (1): %+v", len(plan.Moves), plan.Moves)
	}
	mv := plan.Moves[0]
	if mv.Reason != ReasonPreempt || mv.From != "a" || mv.To != "b" {
		t.Fatalf("move %+v, want preempt a -> b", mv)
	}
	if mv.App.Priority != "" && mv.App.Priority != PriorityBatch {
		t.Fatalf("preempted the %s-class app %s, want a batch victim", mv.App.Priority, mv.App.Name)
	}

	inv.Poll(ctx)
	if m, _ := inv.Member("b"); len(m.Apps) != 1 || m.Apps[0].MovedRound != 1 {
		t.Fatalf("b's registry holds %+v, want the victim with its move's round 1", m.Apps)
	}
	if p, err := reb.Plan(ctx); err != nil || p.Cooldowns[mv.App.Name] != DefaultCooldownRounds {
		t.Fatalf("plan %+v, %v: victim %s not cooling down after its preemption", p, err, mv.App.Name)
	}
	if n := appsOn(t, inv, "a"); n != 2 {
		t.Fatalf("a hosts %d apps after repair, want floor capacity 2", n)
	}
	if n := appsOn(t, inv, "b"); n != 1 {
		t.Fatalf("b hosts %d apps after repair, want the re-homed victim", n)
	}
	ma, _ := inv.Member("a")
	found := false
	for _, app := range ma.Apps {
		if app.Name == "lat" {
			if app.Priority != PriorityLatency {
				t.Fatalf("latency app lost its class across the poll: %+v", app)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("latency app preempted off its own machine")
	}

	again, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Moves) != 0 {
		t.Fatalf("steady state still churns: %+v", again.Moves)
	}
}

// TestPreemptDisabledLeavesInversion: the A/B knob — with the pass off,
// the same inversion persists round after round (the regression the
// fleetsim hardening-off scenario demonstrates at scale).
func TestPreemptDisabledLeavesInversion(t *testing.T) {
	ctx := context.Background()
	inv, reb := preemptFleet(t, ServerConfig{DisablePreemption: true})

	for round := 0; round < 2; round++ {
		plan, err := reb.Round(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Moves) != 0 {
			t.Fatalf("round %d planned %+v with preemption disabled, want none", round, plan.Moves)
		}
	}
	if n := appsOn(t, inv, "a"); n != 3 {
		t.Fatalf("a hosts %d apps, want the inversion left in place (3)", n)
	}
}

// TestPreemptRespectsBudgetAndCooldown: with a one-move budget and a
// two-slot overrun, the repair evicts one victim per round; the
// just-moved victim's cooldown does not block the *other* victim next
// round, so the inversion drains incrementally under the churn bound.
func TestPreemptRespectsBudgetAndCooldown(t *testing.T) {
	ctx := context.Background()
	inv, reb := preemptFleet(t, ServerConfig{MaxMovesPerRound: 1})
	// A third batch app makes the overrun 2 against budget 1.
	registerWithPriority(t, inv, "a", memSpec("batch-3"))
	inv.Poll(ctx)

	seen := map[string]bool{}
	for round := 0; round < 2; round++ {
		plan, err := reb.Round(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Moves) != 1 || plan.Moves[0].Reason != ReasonPreempt {
			t.Fatalf("round %d: moves %+v, want one preempt move", round, plan.Moves)
		}
		name := plan.Moves[0].App.Name
		if seen[name] {
			t.Fatalf("round %d re-preempted %s inside its cooldown", round, name)
		}
		seen[name] = true
		inv.Poll(ctx)
	}
	if n := appsOn(t, inv, "a"); n != 2 {
		t.Fatalf("a hosts %d apps after two repair rounds, want 2", n)
	}
}

// TestEvacTriagePrefersHigherClasses: when a member dies carrying a
// latency app registered after a pile of batch apps, both the plain
// urgent pass and the storm triage re-home the latency app first — the
// class outranks registration order and marginal-GFLOPS score alike.
func TestEvacTriagePrefersHigherClasses(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		storm bool
	}{{"storm", true}, {"plain", false}} {
		t.Run(tc.name, func(t *testing.T) {
			part := faultinject.NewPartition()
			inv := NewInventory(InventoryConfig{
				NewClient: fastClients(part.Transport(nil)),
				FailAfter: 1,
				Logf:      t.Logf,
			})
			hosts := make(map[string]string)
			for _, id := range []string{"a", "b"} {
				hs := newCoopd(t)
				hosts[id] = hostOf(t, hs.URL)
				if err := inv.Add(id, hs.URL); err != nil {
					t.Fatal(err)
				}
			}
			inv.Poll(ctx)
			registerWithPriority(t, inv, "a", memSpec("batch-1"))
			registerWithPriority(t, inv, "a", memSpec("batch-2"))
			lat := memSpec("lat")
			lat.Priority = PriorityLatency
			registerWithPriority(t, inv, "a", lat)
			inv.Poll(ctx)

			_, reb := planners(t, inv, ServerConfig{MaxMovesPerRound: 1, DisableStormBrake: !tc.storm, Logf: t.Logf})
			part.Isolate(hosts["a"])
			inv.Poll(ctx)
			if m, _ := inv.Member("a"); !m.Dead {
				t.Fatal("a not dead after the partition")
			}
			plan, err := reb.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if plan.StormActive != tc.storm {
				t.Fatalf("StormActive = %v, want %v", plan.StormActive, tc.storm)
			}
			if len(plan.Moves) != 1 {
				t.Fatalf("planned %d moves under budget 1, want 1", len(plan.Moves))
			}
			if mv := plan.Moves[0]; mv.App.Name != "lat" {
				t.Fatalf("first evacuation is %s, want the latency app ahead of the batch backlog", mv.App.Name)
			}
		})
	}
}
