package fleet

import (
	"context"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/machine"
)

// gangFleet starts n paper-model machines a, b, c, ... behind a
// partition fabric, assigning domains round-robin over domainCount
// labels (0 = every machine its own domain).
func gangFleet(t *testing.T, n, domainCount int) (*Inventory, *Placer, *faultinject.Partition, []string) {
	t.Helper()
	ctx := context.Background()
	part := faultinject.NewPartition()
	inv := NewInventory(InventoryConfig{
		NewClient: fastClients(part.Transport(nil)),
		FailAfter: 1,
		Logf:      t.Logf,
	})
	hosts := make([]string, n)
	for i := 0; i < n; i++ {
		hs := newCoopd(t)
		hosts[i] = hostOf(t, hs.URL)
		id := string(rune('a' + i))
		domain := ""
		if domainCount > 0 {
			domain = "dom-" + string(rune('0'+i%domainCount))
		}
		if err := inv.AddDomain(id, domain, hs.URL); err != nil {
			t.Fatal(err)
		}
	}
	inv.Poll(ctx)
	pl, _ := planners(t, inv, ServerConfig{Logf: t.Logf})
	return inv, pl, part, hosts
}

// TestGangPackCoLocates: a packed gang lands all replicas on one
// machine — the first member's best bin becomes the gang's home.
func TestGangPackCoLocates(t *testing.T) {
	ctx := context.Background()
	inv, pl, _, _ := gangFleet(t, 3, 0)
	res, err := pl.PlaceGang(ctx, GangSpec{
		Name: "coop", Replicas: 3, Policy: GangPack,
		App: AppSpec{AI: 0.5, TTLMillis: testTTL},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placements) != 3 {
		t.Fatalf("placed %d members, want 3", len(res.Placements))
	}
	home := res.Placements[0].Member
	for _, gp := range res.Placements {
		if gp.Member != home {
			t.Fatalf("pack split the gang across %s and %s", home, gp.Member)
		}
		if !strings.HasPrefix(gp.App.Name, "coop-") {
			t.Fatalf("member named %s, want coop-<i>", gp.App.Name)
		}
	}
	inv.Poll(ctx)
	if n := appsOn(t, inv, home); n != 3 {
		t.Fatalf("home machine hosts %d apps, want the whole gang", n)
	}
}

// TestGangSpreadUsesDistinctDomains: four machines in two domains; a
// two-replica spread gang occupies both domains, and a four-replica one
// wraps around to two members per domain (least-loaded fallback).
func TestGangSpreadUsesDistinctDomains(t *testing.T) {
	ctx := context.Background()
	inv, pl, _, _ := gangFleet(t, 4, 2)
	domainOf := func(member string) string {
		m, ok := inv.Member(member)
		if !ok {
			t.Fatalf("unknown member %s", member)
		}
		return m.Domain
	}
	res, err := pl.PlaceGang(ctx, GangSpec{
		Name: "web", Replicas: 2, Policy: GangSpread,
		App: AppSpec{AI: 0.5, TTLMillis: testTTL},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d0, d1 := domainOf(res.Placements[0].Member), domainOf(res.Placements[1].Member); d0 == d1 {
		t.Fatalf("both replicas in domain %s with a second domain free", d0)
	}

	res, err = pl.PlaceGang(ctx, GangSpec{
		Name: "big", Replicas: 4, Policy: GangSpread,
		App: AppSpec{AI: 0.5, TTLMillis: testTTL},
	})
	if err != nil {
		t.Fatal(err)
	}
	perDomain := map[string]int{}
	for _, gp := range res.Placements {
		perDomain[domainOf(gp.Member)]++
	}
	if perDomain["dom-0"] != 2 || perDomain["dom-1"] != 2 {
		t.Fatalf("four replicas spread as %v, want 2 per domain", perDomain)
	}
}

// TestGangStrictSpreadRejectsWhole: three replicas cannot get three
// distinct domains out of two — the gang is rejected and nothing at all
// is registered (atomicity of the reject path).
func TestGangStrictSpreadRejectsWhole(t *testing.T) {
	ctx := context.Background()
	inv, pl, _, _ := gangFleet(t, 4, 2)
	_, err := pl.PlaceGang(ctx, GangSpec{
		Name: "svc", Replicas: 3, Policy: GangStrictSpread,
		App: AppSpec{AI: 0.5, TTLMillis: testTTL},
	})
	if err == nil || !strings.Contains(err.Error(), "no unused failure domain") {
		t.Fatalf("err = %v, want a strict-spread domain exhaustion error", err)
	}
	inv.Poll(ctx)
	for _, id := range []string{"a", "b", "c", "d"} {
		if n := appsOn(t, inv, id); n != 0 {
			t.Fatalf("rejected gang leaked %d registrations onto %s", n, id)
		}
	}
}

// TestGangRollsBackOnMemberDeath is the atomicity differential test:
// machine b is partitioned away after the snapshot poll, so the gang's
// second member dies mid-admission after the first already registered.
// The whole gang must fail and the first member's registration must be
// rolled back — no partial placement survives anywhere in the fleet.
func TestGangRollsBackOnMemberDeath(t *testing.T) {
	ctx := context.Background()
	inv, pl, part, hosts := gangFleet(t, 2, 0)

	// The inventory still believes b is healthy; registration will fail.
	part.Isolate(hosts[1])
	_, err := pl.PlaceGang(ctx, GangSpec{
		Name: "pair", Replicas: 2, Policy: GangSpread,
		App: AppSpec{AI: 0.5, TTLMillis: testTTL},
	})
	if err == nil {
		t.Fatal("gang admitted with a member machine unreachable")
	}
	if !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("err = %v, want a rollback report", err)
	}

	// Heal and verify from the machines themselves: neither coopd holds
	// any gang registration.
	part.Heal(hosts[1])
	inv.Poll(ctx)
	for _, id := range []string{"a", "b"} {
		if n := appsOn(t, inv, id); n != 0 {
			t.Fatalf("partial gang survived: %s hosts %d apps", id, n)
		}
	}
}

// TestGangPreemptsForHigherClass: machines a and b are full of batch
// work at their floor capacity, c is empty. A two-replica latency gang
// spreads: the first member takes c, the second preempts the cheapest
// batch app off a full machine instead of starving there.
func TestGangPreemptsForHigherClass(t *testing.T) {
	ctx := context.Background()
	tiny := func(name string) *machine.Machine { return machine.Uniform(name, 2, 2, 10, 32, 0) }
	inv := NewInventory(InventoryConfig{NewClient: fastClients(nil), FailAfter: 2})
	for _, id := range []string{"a", "b", "c"} {
		if err := inv.Add(id, newCoopdOn(t, tiny("tiny-"+id)).URL); err != nil {
			t.Fatal(err)
		}
	}
	inv.Poll(ctx)
	registerWithPriority(t, inv, "a", memSpec("batch-1"))
	registerWithPriority(t, inv, "a", memSpec("batch-2"))
	registerWithPriority(t, inv, "b", memSpec("batch-3"))
	registerWithPriority(t, inv, "b", memSpec("batch-4"))
	inv.Poll(ctx)
	pl, _ := planners(t, inv, ServerConfig{Logf: t.Logf})

	res, err := pl.PlaceGang(ctx, GangSpec{
		Name: "lat", Replicas: 2, Policy: GangSpread,
		App: AppSpec{AI: 0.5, TTLMillis: testTTL, Priority: PriorityLatency},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placements) != 2 {
		t.Fatalf("placed %d members, want 2", len(res.Placements))
	}
	if res.Placements[0].Member == res.Placements[1].Member {
		t.Fatalf("spread gang co-located on %s", res.Placements[0].Member)
	}
	if len(res.Preempted) == 0 {
		t.Fatal("no preemption with every non-empty machine at floor capacity")
	}
	for _, mv := range res.Preempted {
		if mv.Reason != ReasonPreempt || mv.App.Priority == PriorityLatency {
			t.Fatalf("victim move %+v, want a batch preempt", mv)
		}
	}

	// Post-state: no machine over its floor capacity of 2, and the gang
	// members kept their class.
	inv.Poll(ctx)
	total := 0
	for _, id := range []string{"a", "b", "c"} {
		m, _ := inv.Member(id)
		if len(m.Apps) > 2 {
			t.Fatalf("%s hosts %d apps, above its floor capacity 2", id, len(m.Apps))
		}
		for _, app := range m.Apps {
			total++
			if strings.HasPrefix(app.Name, "lat-") && app.Priority != PriorityLatency {
				t.Fatalf("gang member %s lost its class: %+v", app.Name, app)
			}
		}
	}
	if total != 6 {
		t.Fatalf("fleet hosts %d apps, want all 6 (4 batch + 2 gang)", total)
	}

	// With preemption disabled the same gang still admits, but starves
	// instead of evicting: no victims move.
	pl2, _ := planners(t, inv, ServerConfig{DisablePreemption: true, Logf: t.Logf})
	res2, err := pl2.PlaceGang(ctx, GangSpec{
		Name: "lat2", Replicas: 2, Policy: GangSpread,
		App: AppSpec{AI: 0.5, TTLMillis: testTTL, Priority: PriorityLatency},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Preempted) != 0 {
		t.Fatalf("preempted %+v with preemption disabled", res2.Preempted)
	}
}
