package fleet

import (
	"context"
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/faultinject"
)

// TestChaosFleetMachineKillAndRevival is the fleet chaos drill behind
// `make fleet-chaos`: a member machine is cut off the network (its
// coopd keeps running — the fleet just cannot reach it), the rebalancer
// re-homes its apps, and then the partition heals. The revived member
// still carries its old registrations, so the fleet must deregister the
// duplicates and re-spread load until the aggregate is back inside the
// imbalance threshold — with every app running exactly once.
func TestChaosFleetMachineKillAndRevival(t *testing.T) {
	ctx := context.Background()
	part := faultinject.NewPartition()
	inv := NewInventory(InventoryConfig{
		NewClient: fastClients(part.Transport(nil)),
		FailAfter: 2,
		Logf:      t.Logf,
	})
	coopds := map[string]string{}
	for _, id := range []string{"a", "b", "c"} {
		hs := newCoopd(t)
		coopds[id] = hs.URL
		if err := inv.Add(id, hs.URL); err != nil {
			t.Fatal(err)
		}
	}
	inv.Poll(ctx)
	pl, reb := planners(t, inv, ServerConfig{MaxMovesPerRound: 4, Logf: t.Logf})

	for _, spec := range tableIMixSpecs() {
		if _, _, err := pl.Place(ctx, spec); err != nil {
			t.Fatalf("placing %s: %v", spec.Name, err)
		}
	}

	// Kill: cut c off. Two failed polls declare it dead; one round then
	// re-homes all four of its apps (cap 4).
	cHost := hostOf(t, coopds["c"])
	part.Isolate(cHost)
	for i := 0; i < 4; i++ {
		if _, err := reb.Round(ctx); err != nil {
			t.Fatalf("kill round %d: %v", i+1, err)
		}
		if c, _ := inv.Member("c"); c.Dead && len(c.Apps) == 0 {
			break
		}
	}
	if part.Drops(cHost) == 0 {
		t.Fatal("partition dropped nothing — the machine was never actually cut off")
	}
	c, _ := inv.Member("c")
	if !c.Dead || len(c.Apps) != 0 || len(c.Stale) != 4 {
		t.Fatalf("after kill rounds: dead=%v apps=%d stale=%d, want evacuated with 4 stale IDs",
			c.Dead, len(c.Apps), len(c.Stale))
	}

	// Heal: c comes back still holding its four old registrations. The
	// next rounds must clean the duplicates and then re-spread until the
	// aggregate is inside the threshold of the re-pack.
	part.Heal(cHost)
	var last *Plan
	cleaned := 0
	for i := 0; i < 10; i++ {
		plan, err := reb.Round(ctx)
		if err != nil {
			t.Fatalf("heal round %d: %v", i+1, err)
		}
		cleaned += len(plan.StaleDeregs)
		last = plan
		t.Logf("heal round %d: %d stale cleaned, %d moves, %d deferred",
			i+1, len(plan.StaleDeregs), len(plan.Moves), plan.Deferred)
		if len(plan.StaleDeregs) == 0 && len(plan.Moves) == 0 && plan.Deferred == 0 {
			break
		}
	}
	if cleaned != 4 {
		t.Fatalf("cleaned %d stale duplicates on the revived member, want 4", cleaned)
	}
	if len(last.Moves) != 0 || last.Deferred != 0 {
		t.Fatalf("fleet did not converge within 10 rounds: %+v", last)
	}

	// Converged state: every app exactly once across the fleet, the
	// revived member back in service, and the aggregate inside the
	// threshold of the optimal three-machine re-pack (~704 GFLOPS).
	inv.Poll(ctx)
	names := map[string]int{}
	apps := 0
	aggregate := 0.0
	for _, m := range inv.Snapshot() {
		if !m.Healthy() {
			t.Fatalf("member %s not healthy after heal: %+v", m.ID, m)
		}
		aggregate += m.TotalGFLOPS
		for _, a := range m.Apps {
			names[a.Name]++
			apps++
		}
	}
	if apps != 8 {
		t.Fatalf("%d apps across the fleet, want exactly 8", apps)
	}
	for name, n := range names {
		if n != 1 {
			t.Fatalf("app %s registered %d times — duplicate survived the cleanup", name, n)
		}
	}
	if aggregate < 0.9*704 {
		t.Fatalf("converged aggregate %g GFLOPS, want within the threshold of the ~704 re-pack", aggregate)
	}

	// Cross-check against each coopd's own registry (the inventory could
	// in principle be lying to us).
	for id, url := range coopds {
		cli := client.New(url, client.Config{})
		resp, err := cli.State(ctx, ctrlplane.StateQuery{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		m, _ := inv.Member(id)
		if len(resp.Apps) != len(m.Apps) {
			t.Fatalf("%s: coopd has %d apps but inventory says %d", id, len(resp.Apps), len(m.Apps))
		}
	}
}
