package fleet

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/machine"
)

// tinyFleet starts 2-node x 2-core machines (floor capacity 2) named
// ids behind a partition fabric and returns their hosts in ids order.
func tinyFleet(t *testing.T, ids ...string) (*Inventory, *faultinject.Partition, map[string]string) {
	t.Helper()
	part := faultinject.NewPartition()
	inv := NewInventory(InventoryConfig{NewClient: fastClients(part.Transport(nil)), FailAfter: 2, Logf: t.Logf})
	hosts := map[string]string{}
	for _, id := range ids {
		hs := newCoopdOn(t, machine.Uniform("tiny-"+id, 2, 2, 10, 32, 0))
		hosts[id] = hostOf(t, hs.URL)
		if err := inv.Add(id, hs.URL); err != nil {
			t.Fatal(err)
		}
	}
	inv.Poll(context.Background())
	return inv, part, hosts
}

// homesOf polls the fleet and returns, per app name, the members whose
// coopd registry holds it.
func homesOf(t *testing.T, inv *Inventory) map[string][]string {
	t.Helper()
	inv.Poll(context.Background())
	homes := map[string][]string{}
	for _, m := range inv.Snapshot() {
		for _, a := range m.Apps {
			homes[a.Name] = append(homes[a.Name], m.ID)
		}
	}
	return homes
}

// TestFailedRehomeRestoresSource: a move drains its source before it
// registers on the target, so a target that dies between Plan and
// Execute used to leave the app registered nowhere — the next poll
// forgot it. The executor now puts it back on the source; whichever
// planner produced the move, the app ends up live on exactly one
// member.
func TestFailedRehomeRestoresSource(t *testing.T) {
	ctx := context.Background()

	t.Run("rebalance", func(t *testing.T) {
		inv, part, hosts := tinyFleet(t, "a", "b")
		registerWithPriority(t, inv, "a", memSpec("app"))
		if err := inv.SetDraining("a", true); err != nil {
			t.Fatal(err)
		}
		_, reb := planners(t, inv, ServerConfig{Logf: t.Logf})
		plan, err := reb.Plan(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Moves) != 1 || plan.Moves[0].To != "b" {
			t.Fatalf("planned %+v, want the one drain a -> b", plan.Moves)
		}
		part.Isolate(hosts["b"])
		if err := reb.Execute(ctx, plan); err == nil {
			t.Fatal("Execute reported no error with the target unreachable")
		}
		if n := appsOn(t, inv, "a"); n != 1 {
			t.Fatalf("inventory shows %d apps on a after the failed move, want the restored one", n)
		}
		part.Heal(hosts["b"])
		if got := homesOf(t, inv)["app"]; !reflect.DeepEqual(got, []string{"a"}) {
			t.Fatalf("app is registered on %v after the failed move, want exactly [a]", got)
		}
	})

	t.Run("gang victim", func(t *testing.T) {
		// a and b are full of batch work, c is empty: a two-replica
		// latency gang takes c and evicts a batch app towards c.
		inv, part, hosts := tinyFleet(t, "a", "b", "c")
		for i, member := range []string{"a", "a", "b", "b"} {
			registerWithPriority(t, inv, member, memSpec("batch-"+string(rune('1'+i))))
		}
		pl, _ := planners(t, inv, ServerConfig{Logf: t.Logf})
		g := GangSpec{
			Name: "lat", Replicas: 2, Policy: GangSpread,
			App: AppSpec{AI: 0.5, TTLMillis: testTTL, Priority: PriorityLatency},
		}
		plan, err := pl.planGang(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.victims) == 0 {
			t.Fatal("gang planned no eviction with every loaded machine at floor capacity")
		}
		for _, mv := range plan.victims {
			part.Isolate(hosts[mv.To])
		}
		if _, err := pl.executeGang(ctx, g, plan); err == nil {
			t.Fatal("gang admitted with its first member's machine unreachable")
		}
		part.HealAll()
		homes := homesOf(t, inv)
		for _, name := range []string{"batch-1", "batch-2", "batch-3", "batch-4"} {
			if len(homes[name]) != 1 {
				t.Fatalf("%s is registered on %v after the failed eviction, want exactly one member", name, homes[name])
			}
		}
		if len(homes) != 4 {
			t.Fatalf("fleet hosts %v, want the four batch apps and no gang remnant", homes)
		}
	})
}

// TestPlanDoesNoIO: planning reads one inventory snapshot and nothing
// else. With every member unreachable after the poll, Plan still
// answers, answers the same twice, sends no request, and leaves the
// inventory — members, stale lists, move rounds, the clock — as it
// found it.
func TestPlanDoesNoIO(t *testing.T) {
	ctx := context.Background()
	inv, part, hosts, reb := stormFleet(t, ServerConfig{})
	part.Isolate(hosts[0])
	inv.Poll(ctx) // a is dead: the plan below is a storm triage
	inv.noteStale("b", "ghost")
	b := edit(inv.members["b"])
	b.apps[slices.IndexFunc(b.apps, func(a PlacedApp) bool { return a.Name == "t-1" })].MovedRound = inv.clock()
	inv.endRound()
	for _, h := range hosts {
		part.Isolate(h)
	}
	drops := func() (n uint64) {
		for _, h := range hosts {
			n += part.Drops(h)
		}
		return n
	}

	membersBefore, roundBefore, dropsBefore := inv.Snapshot(), inv.clock(), drops()
	first, err := reb.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := reb.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Moves) == 0 || !first.StormActive {
		t.Fatalf("plan %+v, want a storm triage with moves", first)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two plans over one snapshot differ:\n  %+v\n  %+v", first, second)
	}
	if got := drops(); got != dropsBefore {
		t.Fatalf("planning sent %d requests to the members", got-dropsBefore)
	}
	if got := inv.Snapshot(); !reflect.DeepEqual(got, membersBefore) {
		t.Fatalf("planning changed the inventory:\n  before %+v\n  after  %+v", membersBefore, got)
	}
	if got := inv.clock(); got != roundBefore || first.Cooldowns["t-1"] != DefaultCooldownRounds {
		t.Fatalf("round %d -> %d, cooldowns %v: want the clock kept and t-1 cooling down", roundBefore, got, first.Cooldowns)
	}
}

// TestSessionOutputsDoNotAliasSnapshot: a pooled session keeps its
// snapshot buffer and the next session overwrites it in place
// (Inventory.snapshotInto), so nothing a session hands out may point
// into it. A storm plan with moves and stale-duplicate cleanups, and a
// placement decision, must read the same after the inventory was
// rewritten and later sessions reused the memory.
func TestSessionOutputsDoNotAliasSnapshot(t *testing.T) {
	ctx := context.Background()
	inv, part, hosts, reb := stormFleet(t, ServerConfig{})
	part.Isolate(hosts[0])
	inv.Poll(ctx) // a is dead: its three apps are evacuated under the storm brake
	inv.mu.Lock()
	edit(inv.members["b"]).stale = []string{inv.members["b"].apps[0].ID}
	inv.mu.Unlock()

	s := openSession(reb.Scorer, inv)
	buf := &s.members[0]
	s.close()

	plan, err := reb.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) == 0 || len(plan.StaleDeregs) != 1 {
		t.Fatalf("plan %+v, want evacuation moves and one stale cleanup", plan)
	}
	dec, err := (&Placer{Inv: inv, Scorer: reb.Scorer, cfg: reb.cfg}).Decide(memSpec("newcomer"))
	if err != nil {
		t.Fatal(err)
	}
	wantPlan, wantDec := fmt.Sprintf("%+v", plan), fmt.Sprintf("%+v", dec)

	// Rewrite every string and count the snapshot copies, then plan again
	// over the same buffers.
	inv.mu.Lock()
	for id, m := range inv.members {
		edit(m)
		for i := range m.apps {
			m.apps[i].ID, m.apps[i].Name, m.apps[i].AI = "zz-"+id, "zz-"+id, 7
		}
		m.apps = append(m.apps, PlacedApp{ID: "extra", AppSpec: AppSpec{Name: "extra", AI: 1}})
		m.stale = []string{"zz-" + id}
	}
	inv.mu.Unlock()
	for i := 0; i < 2; i++ {
		if _, err := reb.Plan(ctx); err != nil {
			t.Fatal(err)
		}
	}
	s = openSession(reb.Scorer, inv)
	if &s.members[0] != buf {
		t.Error("the pooled session did not keep its snapshot buffer")
	}
	if s.members[1].Apps[0].Name != "zz-b" {
		t.Errorf("snapshot shows %+v on b, want the rewritten apps", s.members[1].Apps[0])
	}
	s.close()

	if got := fmt.Sprintf("%+v", plan); got != wantPlan {
		t.Errorf("plan changed after its session's memory was reused:\n  was %s\n  now %s", wantPlan, got)
	}
	if got := fmt.Sprintf("%+v", dec); got != wantDec {
		t.Errorf("decision changed after its session's memory was reused:\n  was %s\n  now %s", wantDec, got)
	}
}

// TestPlanConcurrentWithRound: the HTTP dry run and the background
// round loop plan at the same time, each in its own pooled session.
// Run under -race.
func TestPlanConcurrentWithRound(t *testing.T) {
	ctx := context.Background()
	_, reb := twoMachineFleet(t, 1)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := reb.Plan(ctx); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for j := 0; j < 3; j++ {
		if _, err := reb.Round(ctx); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
}
