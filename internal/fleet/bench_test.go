package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/machine"
)

// benchMembers builds an n-machine fleet snapshot, every machine the
// paper model with a small resident mix, so each placement decision
// scores the incoming app against n non-trivial demand sets.
func benchMembers(n int) []Member {
	members := make([]Member, n)
	for i := range members {
		id := fmt.Sprintf("m%04d", i)
		members[i] = Member{
			ID:       id,
			Topology: machine.PaperModel(),
			Apps: []PlacedApp{
				{ID: id + "-mem", AppSpec: AppSpec{Name: "mem", AI: 0.5}},
				{ID: id + "-comp", AppSpec: AppSpec{Name: "comp", AI: 10}},
			},
		}
	}
	return members
}

// benchPlacement measures placement throughput the way fleetd places
// on a busy fleet: one op edits one member's demand set — a register or
// a deregister, alternately, recorded in the inventory the way the
// executor records them — then decides an app in a pooled planning
// session over the inventory (Placer.Decide: openSession, pick). That
// is the place_uniform shape: every decision finds the one member the
// previous placement changed. Throughput is the reported placements/s
// metric. With domains > 0 the members are spread over that many
// failure domains and domain-spread is on.
func benchPlacement(b *testing.B, nMachines, domains int) {
	members := benchMembers(nMachines)
	for i := range members {
		if domains > 0 {
			members[i].Domain = fmt.Sprintf("rack%d", i%domains)
		}
	}
	inv := memInventory(members)
	for _, m := range inv.members {
		m.apps = slices.Grow(m.apps, 1) // the edits below never reallocate
	}
	pl, _ := planners(b, inv, ServerConfig{DomainSpread: domains > 0})
	spec := AppSpec{Name: "incoming", AI: 2}
	extra := PlacedApp{ID: "zz-extra", AppSpec: spec}
	ack := &ctrlplane.RegisterResponse{ID: extra.ID} // no total: the copy re-reads
	if _, err := pl.Decide(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := inv.recs[i/2%nMachines].id
		if i%2 == 0 {
			inv.noteRegistered(id, extra, ack)
		} else {
			inv.mu.Lock()
			inv.members[id].dropApp(extra.ID)
			inv.mu.Unlock()
		}
		if _, err := pl.Decide(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "placements/s")
}

func BenchmarkPlacement100Machines(b *testing.B) { benchPlacement(b, 100, 0) }

func BenchmarkPlacement1kMachines(b *testing.B) { benchPlacement(b, 1000, 0) }

// BenchmarkPlacementSpread1kMachines is the 1k-machine decision with
// domain-spread on over 4 domains: the members still form one class,
// scored once per decision, and the domain only breaks the ties.
func BenchmarkPlacementSpread1kMachines(b *testing.B) { benchPlacement(b, 1000, 4) }

// BenchmarkPlacement10kMachines is the fleet-scale case the
// equivalence-class memo unlocks: 10k machines collapse into a handful
// of (topology, demand) classes, so a decision is ~10k key builds plus
// one or two solves at most.
func BenchmarkPlacement10kMachines(b *testing.B) { benchPlacement(b, 10000, 0) }

// BenchmarkPlacementGang measures atomic gang planning: one op decides
// a 4-replica spread gang against a 100-machine fleet snapshot —
// candidate construction, four sequential scoring decisions each seeing
// the earlier members' committed demand, and the domain bookkeeping.
// This is the plan phase of PlaceGang (`coopctl fleet place -gang`);
// execution is HTTP registration and is not a scoring cost.
func BenchmarkPlacementGang(b *testing.B) {
	p, _ := planners(b, memInventory(benchMembers(100)), ServerConfig{})
	g := GangSpec{
		Name:     "gang",
		Replicas: 4,
		Policy:   GangSpread,
		App:      AppSpec{Name: "gang", AI: 2, Priority: PriorityLatency},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.planGang(g); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "gangs/s")
}

// BenchmarkPlacementWarm scores against candidates whose baseline
// solves are already cached (the rebalancer's repeated-decision path,
// where one candidate set serves a whole planning round).
func BenchmarkPlacementWarm100Machines(b *testing.B) {
	members := benchMembers(100)
	sc := NewScorer()
	spec := AppSpec{Name: "incoming", AI: 2}
	cands := new(candidateSet).reset(members, true)
	if _, _, err := sc.decide(spec, cands); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sc.decide(spec, cands); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "placements/s")
}

// diverseFleet is coopbench place_diverse's fleet without its coopds:
// ten empty members, two of each of five topologies, in five failure
// domains.
func diverseFleet() []Member {
	topos := []func() *machine.Machine{
		machine.PaperModel, machine.SkylakeQuad, machine.KNLSNC4, machine.PaperModelNUMABad,
		func() *machine.Machine { return machine.Uniform("uniform-2x16", 2, 16, 5, 80, 20) },
	}
	members := make([]Member, 10)
	for i := range members {
		members[i] = Member{ID: fmt.Sprintf("m%02d", i), Domain: fmt.Sprintf("z%d", i/2), Topology: topos[i%len(topos)]()}
	}
	return members
}

// diverseSpecs is a place_diverse-like arrival sequence: n apps sharing
// next to nothing — AI log-uniform in [1/32, 16] from a fixed seed, 15 %
// NUMA-bad, 15 % latency and 5 % system priority.
func diverseSpecs(n int) []AppSpec {
	r := rand.New(rand.NewSource(20200518))
	specs := make([]AppSpec, n)
	for i := range specs {
		specs[i] = AppSpec{Name: fmt.Sprintf("svc%d-%03d", i%6, i), AI: math.Exp(math.Log(1.0/32) + r.Float64()*math.Log(16*32))}
	}
	for i := 0; i < n*15/100; i++ {
		specs[i].Placement, specs[i].HomeNode = ctrlplane.PlacementBad, i%2
		specs[n-1-i].Priority = PriorityLatency
	}
	for i := 0; i < n*5/100; i++ {
		specs[n/2+i].Priority = PrioritySystem
	}
	return specs
}

// BenchmarkPlacementDiverse is the decision side of coopbench
// place_diverse: one op places 33 diverse apps, one after another, onto
// diverseFleet with a cold Scorer, each decision committed to the
// candidate it chose. Nearly every class misses the memo, so the op is
// the with-app searches and what the decisions' bar saves of them: the
// ceiling prunes and the solves that stop below the bar.
func BenchmarkPlacementDiverse(b *testing.B) {
	members, specs := diverseFleet(), diverseSpecs(33)
	var cs candidateSet
	place := func() {
		sc, cands := NewScorer(), cs.reset(members, true)
		for _, spec := range specs {
			_, c, err := sc.decide(spec, cands)
			if err != nil {
				b.Fatal(err)
			}
			c.commit(spec, "")
		}
	}
	place()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		place()
	}
}

// BenchmarkRebalanceQuietRound plans a quiet round over 40 KNLSNC4
// members holding the Table I mix each (the coopbench rack_loss fleet at
// rest): one op is a Plan after the first, so the imbalance pass finds
// its re-pack memoized and solves nothing.
func BenchmarkRebalanceQuietRound(b *testing.B) {
	members := make([]Member, 40)
	for i := range members {
		id := fmt.Sprintf("m%02d", i)
		members[i] = Member{ID: id, Domain: fmt.Sprintf("rack%d", i%4), Topology: machine.KNLSNC4()}
		for j, ai := range []float64{0.5, 0.5, 0.5, 10} {
			members[i].Apps = append(members[i].Apps, PlacedApp{ID: fmt.Sprintf("%s-%d", id, j), AppSpec: AppSpec{Name: fmt.Sprintf("app-%d", j), AI: ai}})
		}
	}
	_, reb := planners(b, memInventory(members), ServerConfig{DomainSpread: true})
	ctx := context.Background()
	if plan, err := reb.Plan(ctx); err != nil || len(plan.Moves) != 0 || plan.RepackGFLOPS == 0 {
		b.Fatalf("first plan %+v, %v: want a quiet round that re-packed", plan, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reb.Plan(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if m := reb.Repacks(); m != (RepackMetrics{Reused: uint64(b.N), Computed: 1}) {
		b.Fatalf("re-packs %+v, want every timed plan to reuse the first", m)
	}
}

// BenchmarkRebalanceRepack times the cold first quiet round of a
// recovery in the coopbench rack_loss shape: the 30 KNLSNC4 survivors
// over 3 failure domains, holding the 160 Table I apps of the 40-member
// fleet (each its own mix plus the lost rack's 40, spread round-robin),
// domain spread on. One op plans with a fresh Rebalancer over a warm
// Scorer, so the re-pack memo misses and the imbalance pass decides all
// 160 apps again, while the solves hit the Scorer's memo: what is timed
// is the decisions' own work.
func BenchmarkRebalanceRepack(b *testing.B) {
	const survivors, domains, apps = 30, 3, 160
	mix := []AppSpec{{Name: "mem-a", AI: 0.5}, {Name: "mem-b", AI: 0.5}, {Name: "mem-c", AI: 0.5}, {Name: "comp", AI: 10}}
	members := make([]Member, survivors)
	for i := range members {
		id := fmt.Sprintf("m%02d", i)
		members[i] = Member{ID: id, Domain: fmt.Sprintf("rack%d", i%domains), Topology: machine.KNLSNC4()}
	}
	for j := 0; j < apps; j++ {
		m := &members[j%survivors]
		spec := mix[j%len(mix)]
		spec.Name = fmt.Sprintf("%s-%03d", spec.Name, j)
		m.Apps = append(m.Apps, PlacedApp{ID: fmt.Sprintf("%s-%d", m.ID, len(m.Apps)), AppSpec: spec})
	}
	_, reb := planners(b, memInventory(members), ServerConfig{DomainSpread: true})
	ctx := context.Background()
	plan := func() {
		fresh := &Rebalancer{Inv: reb.Inv, Scorer: reb.Scorer, cfg: reb.cfg}
		if plan, err := fresh.Plan(ctx); err != nil || len(plan.Moves) != 0 || plan.RepackGFLOPS == 0 {
			b.Fatalf("plan %+v, %v: want a quiet round that re-packed", plan, err)
		}
		if m := fresh.Repacks(); m != (RepackMetrics{Computed: 1}) {
			b.Fatalf("re-packs %+v, want one computed", m)
		}
	}
	plan()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan()
	}
}

// benchPollFleet is n in-process members behind memberNet, each holding
// the paper's Table I mix, polled once: what Inventory.Poll faces every
// PollInterval in a fleet at rest.
func benchPollFleet(tb testing.TB, n int) *pollWorld {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%02d", i)
	}
	w := newPollWorld(tb, ids...)
	for _, id := range ids {
		for i, ai := range []float64{0.5, 0.5, 0.5, 10} {
			w.direct(id, ctrlplane.AppSpec{Name: fmt.Sprintf("app-%d", i), AI: ai}, 0)
		}
	}
	w.inv.Poll(context.Background())
	return w
}

// TestPollUnchangedAllocs holds one warm 304 member poll, both ends of
// it, under a ceiling: the group re-uses the query it built for the
// member last time, and the exchange goes straight to the transport.
func TestPollUnchangedAllocs(t *testing.T) {
	const ceiling = 29
	w := benchPollFleet(t, 1)
	ctx := context.Background()
	n := testing.AllocsPerRun(100, func() { w.inv.Poll(ctx) })
	t.Logf("a warm 304 member poll allocates %.1f objects", n)
	if p := w.inv.Polls(); p.Unchanged != 101 {
		t.Fatalf("polls %+v, want every timed poll unchanged", p)
	}
	if n > ceiling {
		t.Errorf("a warm 304 member poll allocates %.1f objects, ceiling %d", n, ceiling)
	}
}

// BenchmarkInventoryPollUnchanged is the hit path: one op polls 40
// members none of which changed, one conditional GET /v1/state each.
func BenchmarkInventoryPollUnchanged(b *testing.B) {
	w := benchPollFleet(b, 40)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.inv.Poll(ctx)
	}
	b.StopTimer()
	if p := w.inv.Polls(); p.Unchanged != uint64(40*b.N) {
		b.Fatalf("polls %+v, want every timed poll unchanged", p)
	}
}

// BenchmarkInventoryPollDead is the round a rack_loss recovery polls
// through: one op polls 40 members of which one rack of 10 refuses every
// connection and is already dead, so 30 polls are 304s and 10 fail.
func BenchmarkInventoryPollDead(b *testing.B) {
	w := benchPollFleet(b, 40)
	for i := 30; i < 40; i++ {
		w.net.down[fmt.Sprintf("m%02d", i)] = true
	}
	ctx := context.Background()
	w.inv.Poll(ctx)
	w.inv.Poll(ctx) // FailAfter 2: the rack is dead
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.inv.Poll(ctx)
	}
	b.StopTimer()
	if p := w.inv.Polls(); p.Failed != uint64(10*(b.N+2)) || p.Unchanged != uint64(30*(b.N+2)) {
		b.Fatalf("polls %+v, want 30 unchanged and 10 failed per poll", p)
	}
	if m := w.member("m39"); !m.Dead {
		b.Fatalf("member m39 %+v, want dead", m)
	}
}

// BenchmarkInventoryPollChanged is the miss path: every member's
// generation moves between polls (a promote record: no app changes, so
// the member's solver answers from its cache), and one op re-reads all
// 40 in full.
func BenchmarkInventoryPollChanged(b *testing.B) {
	w := benchPollFleet(b, 40)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, srv := range w.net.members {
			srv.Registry().Promote(uint64(i + 1))
		}
		b.StartTimer()
		w.inv.Poll(ctx)
	}
	b.StopTimer()
	if p := w.inv.Polls(); p.Full != uint64(40*(b.N+1)) {
		b.Fatalf("polls %+v, want every timed poll a full read", p)
	}
}
