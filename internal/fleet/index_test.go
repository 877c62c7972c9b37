package fleet

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/machine"
	"repro/internal/roofline"
)

// indexWorld is FuzzCandidateIndex's fleet: small in-process members
// (floor capacity 2 on the "tiny" ones, so three apps starve a machine
// and a higher class preempts) behind one inventory, and a Placer and
// Rebalancer per configuration: the default objective, the
// weighted-priority objective (whose class keys carry another tag), and
// the default objective with domain spread.
type indexWorld struct {
	*pollWorld
	ids  []string
	pls  []*Placer
	rebs []*Rebalancer
	apps int // names handed out so far
}

var (
	indexTopos   = []*machine.Machine{machine.Uniform("tiny", 2, 2, 10, 32, 0), machine.Uniform("duo", 2, 4, 10, 48, 0)}
	indexClasses = []string{"", PriorityLatency, PrioritySystem, ""}
	indexAIs     = []float64{0.5, 2, 10, 0.5}
)

// newIndexWorld starts members a and b (tiny) and c (duo), registers
// resident apps behind the fleet's back and polls once. The resident
// AIs tell worlds with the same member IDs apart.
func newIndexWorld(t *testing.T, resident float64) *indexWorld {
	t.Helper()
	w := &indexWorld{pollWorld: newPollWorld(t), ids: []string{"a", "b", "c"}}
	for i, id := range w.ids {
		w.start(id, indexTopos[i/2])
		w.direct(id, ctrlplane.AppSpec{Name: "resident-" + id, AI: resident}, 0)
	}
	for _, cfg := range []ServerConfig{{}, {Objective: "weighted-priority"}, {DomainSpread: true}} {
		pl, reb := planners(t, w.inv, cfg)
		w.pls, w.rebs = append(w.pls, pl), append(w.rebs, reb)
	}
	w.inv.Poll(context.Background())
	return w
}

// An edit is two bytes. The first names the edit in its low nibble and
// the configuration in its high one. The second is the argument: bits
// 1-3 pick the member, bits 4-5 the class (3: batch and numa-bad), bits
// 6-7 the AI or, for an edit of a cached app, which one.

func (w *indexWorld) who(arg byte) string { return w.ids[int(arg>>1&7)%len(w.ids)] }

func (w *indexWorld) spec(arg byte) AppSpec {
	w.apps++
	s := AppSpec{
		Name:     fmt.Sprintf("%s-%d", []string{"web", "db"}[w.apps%2], w.apps),
		AI:       indexAIs[arg>>6],
		Priority: indexClasses[arg>>4&3],
	}
	if arg>>4&3 == 3 {
		s.Placement, s.HomeNode = ctrlplane.PlacementBad, int(arg>>6)%2
	}
	return s
}

// cached picks an app out of the inventory's view of the argument's
// member.
func (w *indexWorld) cached(arg byte) (string, PlacedApp, bool) {
	id := w.who(arg)
	m, _ := w.inv.Member(id)
	if len(m.Apps) == 0 {
		return "", PlacedApp{}, false
	}
	return id, m.Apps[int(arg>>6)%len(m.Apps)], true
}

// indexEdits is the number of edits apply knows.
const indexEdits = 15

// config is the Placer (and Rebalancer) index an edit's first byte
// names.
func config(op byte) int { return int(op>>4) % 3 }

// apply runs one edit. Errors are part of the walk (a down member
// refuses a register, nothing can host a gang) and leave the fleet as
// the executor leaves it. twin is another inventory with the same member
// IDs, which the last edit plans in.
func (w *indexWorld) apply(t *testing.T, twin *indexWorld, op, arg byte) {
	ctx := context.Background()
	k := config(op)
	switch op & 15 % indexEdits {
	case 0: // the fleet registers an app
		w.inv.register(ctx, w.who(arg), w.spec(arg), 0, nil)
	case 1: // the fleet deregisters one
		if id, a, ok := w.cached(arg); ok {
			w.inv.deregister(ctx, id, a.ID)
		}
	case 2: // the fleet re-homes one it could not deregister: stale
		if id, a, ok := w.cached(arg); ok {
			w.inv.noteStale(id, a.ID)
		}
	case 3: // a register behind the fleet's back: a full poll
		w.apps++
		w.direct(w.who(arg), ctrlplane.AppSpec{Name: fmt.Sprintf("direct-%d", w.apps), AI: indexAIs[arg>>6]}, 0)
		w.inv.Poll(ctx)
	case 4: // nothing changed: an unchanged poll, or a full one after a local edit
		w.inv.Poll(ctx)
	case 5: // a register in a class behind the fleet's back, then a poll
		w.apps++
		w.direct(w.who(arg), ctrlplane.AppSpec{Name: fmt.Sprintf("direct-%d", w.apps), AI: indexAIs[arg>>6], Priority: indexClasses[arg>>4&3]}, 0)
		w.inv.Poll(ctx)
	case 6: // a member joins
		if len(w.ids) < 6 {
			id := fmt.Sprintf("m%d", len(w.ids))
			w.start(id, indexTopos[arg>>6%2])
			w.ids = append(w.ids, id)
			w.inv.Poll(ctx)
		}
	case 7: // a drain starts or ends
		m, _ := w.inv.Member(w.who(arg))
		w.inv.SetDraining(m.ID, !m.Draining)
	case 8: // a partition starts (two failed polls: the member is dead) or heals
		id := w.who(arg)
		w.net.down[id] = !w.net.down[id]
		w.inv.Poll(ctx)
		w.inv.Poll(ctx)
	case 9: // a gang is planned, committing into its session, and never executed
		w.pls[k].planGang(GangSpec{
			Name: "gang", Replicas: 1 + int(arg>>1&7)%3,
			Policy: []string{GangPack, GangSpread, GangStrictSpread, GangPack}[arg>>4&3],
			App:    AppSpec{AI: 0.5, Priority: indexClasses[arg>>6]},
		})
	case 10: // a round is planned, its passes committing and evicting, and never executed
		w.rebs[k].Plan(ctx)
	case 11: // a placement, decided and registered
		w.pls[k].Place(ctx, w.spec(arg))
	case 12: // the pooled session plans over the twin in between
		w.check(t, "twin", twin, op)
	case 13: // a flap: four partition edges, the fourth transition quarantines the member
		id := w.who(arg)
		for i := 0; i < 4; i++ {
			w.net.down[id] = !w.net.down[id]
			w.inv.Poll(ctx)
			w.inv.Poll(ctx)
		}
	case 14: // time passes, then a poll: a quarantine ends, or a flap window forgives
		w.now = w.now.Add(time.Duration(1+arg>>6) * 40 * time.Second)
		w.inv.Poll(ctx)
	}
}

// check opens a pooled session over world (w or its twin), under the
// configuration of w the edit names, and holds its snapshot rows and
// candidates, class and domain ids included, against a cold
// candidateSet built from Snapshot(). It then decides an app in the
// session, so its candidates carry class keys and ids on to the next
// one.
func (w *indexWorld) check(t *testing.T, label string, world *indexWorld, op byte) {
	t.Helper()
	sc, inv := w.pls[config(op)].Scorer, world.inv
	want := inv.Snapshot()
	cold := new(candidateSet).reset(want, true)
	s := openSession(sc, inv)
	defer s.close()
	if len(s.members) != len(want) {
		t.Fatalf("%s: pooled snapshot has %d rows, want %d", label, len(s.members), len(want))
	}
	for i := range want {
		if !sameMember(s.members[i], want[i]) {
			t.Fatalf("%s: pooled snapshot row\n  %+v\na fresh snapshot\n  %+v", label, s.members[i], want[i])
		}
	}
	if len(s.cands) != len(cold) {
		t.Fatalf("%s: %d pooled candidates, %d cold", label, len(s.cands), len(cold))
	}
	var scratch scoreScratch
	tab := sc.table()
	for i, c := range s.cands {
		d := cold[i]
		if c.id != d.id || c.member != d.member || c.topo != d.topo || c.snap != d.snap || c.apps != d.apps ||
			c.bad != d.bad || c.domain != d.domain || !slices.Equal(c.demand, d.demand) || !slices.Equal(c.ids, d.ids) ||
			!maps.Equal(c.groups, d.groups) {
			t.Fatalf("%s: pooled candidate\n  %+v\na cold one\n  %+v", label, *c, *d)
		}
		// The ids the pooled candidate carries into a decision of sc,
		// against the ones sc's table gives the cold candidate's key.
		if !bytes.Equal(c.classKey(sc, &scratch, tab), d.classKey(sc, &scratch, tab)) || c.class != d.class || c.dom != d.dom {
			t.Fatalf("%s: pooled candidate %s has class %d, domain %d and key %x; a cold one class %d, domain %d and key %x",
				label, c.id, c.class, c.dom, c.keyBuf, d.class, d.dom, d.keyBuf)
		}
	}
	s.pick(AppSpec{Name: "probe", AI: 2}, nil) // no candidate at all is fine too
}

// sameMember compares snapshot rows, an empty slice equal to a nil one.
func sameMember(a, b Member) bool {
	if !slices.Equal(a.Apps, b.Apps) || !slices.Equal(a.Endpoints, b.Endpoints) || !slices.Equal(a.Stale, b.Stale) {
		return false
	}
	a.Apps, a.Endpoints, a.Stale = nil, nil, nil
	b.Apps, b.Endpoints, b.Stale = nil, nil, nil
	return reflect.DeepEqual(a, b)
}

// FuzzCandidateIndex is the candidate-index differential. A pooled
// session keeps a snapshot row's apps and takes a candidate as an
// earlier session left it while the member's demand version is the one
// they were loaded from (member.snapshotInto, candidateSet.reset), so a
// missed version bump, a version two inventories both hand out, or a
// candidate a session committed onto and passed on would plan against a
// demand set the member no longer has. Each input byte pair is one edit
// of an in-process fleet: registers, deregisters, stale re-homes, full
// and unchanged polls, classed registers behind the fleet's back, a
// member joining, drains and undrains, partitions and deaths, flaps into
// quarantine and the time that ends it, committing gang and rebalance
// sessions, and placements. After every edit a pooled session
// over the fleet, and one over a twin fleet with the same member IDs
// and other apps, must hold exactly what a cold candidateSet builds
// from Snapshot(): snapshot rows, and per candidate demand, IDs, snap,
// app and numa-bad counts, domain, groups, class key, and the class and
// domain ids the deciding Scorer's class table gives them. A snapshot row
// is compared field for field, record and demand versions included: a
// pooled row is left alone while its member's record version is the one
// it was copied at, so a missed bump on any write — a poll outcome, a
// drain or undrain, a quarantine entered or left — shows as a row that
// differs from the cold one.
func FuzzCandidateIndex(f *testing.F) {
	for _, ops := range [][]byte{
		{0, 0x00, 4, 0x00, 1, 0x00, 0, 0x02, 2, 0x02, 4, 0x00},               // register, poll, deregister, stale
		{4, 0x00, 3, 0x02, 4, 0x00, 3, 0x44, 4, 0x01},                        // full polls after registers behind the back
		{0, 0x10, 4, 0x00, 5, 0x30, 4, 0x00, 5, 0x20, 5, 0x31},               // classed apps arrive behind the back, each then polled
		{9, 0x00, 9, 0x13, 11, 0x00, 9, 0x21, 11, 0x01, 9, 0x04},             // gangs commit, placements register
		{0, 0x00, 0, 0x00, 0, 0x10, 10, 0x00, 10, 0x00, 4, 0x00},             // a latency app starved: preemption evicts
		{6, 0x00, 4, 0x00, 7, 0x02, 11, 0x00, 7, 0x02, 8, 0x04},              // a member joins, a drain comes and goes
		{8, 0x04, 11, 0x00, 8, 0x04, 10, 0x00, 0x1a, 0x00, 0x2b, 0x02},       // death, evacuation plans, revival
		{4, 0x00, 0x14, 0x00, 0x24, 0x00, 0x2b, 0x00, 4, 0x00, 0x1c, 0x00},   // one fleet, three configurations, the twin
		{7, 0x00, 13, 0x00, 11, 0x00, 10, 0x00, 14, 0x00, 7, 0x00, 11, 0x00}, // drained, quarantined, re-admitted, undrained
		{13, 0x02, 0x1a, 0x00, 14, 0xc0, 13, 0x02, 14, 0x00, 14, 0xc0},       // quarantined, re-admitted, quarantined again
	} {
		f.Add(ops)
	}
	for seed := int64(0); seed < 8; seed++ {
		ops := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		w, twin := newIndexWorld(t, 0.5), newIndexWorld(t, 10)
		// Both fleets start from the same edits: only versions no other
		// inventory hands out tell their members apart.
		w.check(t, "start", w, 0)
		w.check(t, "start twin", twin, 0)
		for i := 0; i+1 < min(len(ops), 128); i += 2 {
			op, arg := ops[i], ops[i+1]
			w.apply(t, twin, op, arg)
			w.check(t, fmt.Sprintf("step %d (edit %#x, arg %#x)", i/2, op, arg), w, op)
		}
	})
}

// TestAlternatingScorersDecideAlike: pooled sessions, and the candidates
// in them, serve Scorers of different objectives, each numbering classes
// and domains in a class table of its own. Two Placers, one on the
// default objective and one on the weighted-priority one, decide in turn
// over one inventory; each placement is recorded, so the next session
// rebuilds the member it changed and takes the others as the other
// Scorer's decision left them. Every decision must equal the same
// Scorer's decision over a cold candidateSet.
func TestAlternatingScorersDecideAlike(t *testing.T) {
	members := make([]Member, 8)
	for i := range members {
		members[i] = Member{ID: fmt.Sprintf("m%d", i), Domain: fmt.Sprintf("r%d", i%3), Topology: indexTopos[1]}
	}
	inv := memInventory(members)
	var pls []*Placer
	for _, cfg := range []ServerConfig{{DomainSpread: true}, {DomainSpread: true, Objective: "weighted-priority"}} {
		pl, _ := planners(t, inv, cfg)
		pls = append(pls, pl)
	}
	for i := 0; i < 40; i++ {
		pl := pls[i%2]
		spec := AppSpec{Name: fmt.Sprintf("%s-%d", []string{"web", "db"}[i/2%2], i), AI: indexAIs[i%3], Priority: indexClasses[i%3]}
		d, err := pl.Decide(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := pl.Scorer.decide(spec, new(candidateSet).reset(inv.Snapshot(), true))
		if err != nil {
			t.Fatal(err)
		}
		if d.Member != want.Member || d.Score != want.Score || d.After != want.After {
			t.Fatalf("decision %d (placer %d): the pooled session chose %s (score %v, after %v), a cold candidate set %s (%v, %v)",
				i, i%2, d.Member, d.Score, d.After, want.Member, want.Score, want.After)
		}
		placed := PlacedApp{ID: fmt.Sprintf("app-%d", i), AppSpec: spec}
		inv.noteRegistered(d.Member, placed, &ctrlplane.RegisterResponse{ID: placed.ID})
	}
}

// churnClasses numbers n distinct one-app classes in the Scorer's class
// tables, each through the table a decision would take at that moment.
func churnClasses(sc *Scorer, n int) {
	var s scoreScratch
	c := &candidate{topo: indexTopos[0]}
	for i := 0; i < n; i++ {
		c.demand = append(c.demand[:0], roofline.App{AI: float64(i + 1)})
		c.tab = nil
		c.classKey(sc, &s, sc.table())
	}
}

// TestClassTableStaysBounded churns more distinct classes through one
// Scorer than its class table holds, three times over. A table never
// holds more than maxClassIDs ids plus what one numbering adds, the
// decision that finds it full starts a new one, and decisions over
// candidates numbered in the replaced table match a fresh Scorer's.
func TestClassTableStaysBounded(t *testing.T) {
	members := spreadMembers()
	sc, ref := NewScorer(), NewScorer()
	sc.DomainSpread, ref.DomainSpread = true, true
	cands := new(candidateSet).reset(members, true)
	for round := 0; round < 3; round++ {
		full := sc.table()
		churnClasses(sc, maxClassIDs-full.size())
		if n := full.size(); n < maxClassIDs || n > maxClassIDs+2 {
			t.Fatalf("round %d: the churned table holds %d ids, want %d (+2 at most)", round, n, maxClassIDs)
		}
		for _, spec := range spreadSpecs {
			d, _, err := sc.decide(spec, cands)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := ref.decide(spec, new(candidateSet).reset(members, true))
			if err != nil {
				t.Fatal(err)
			}
			if d.Member != want.Member || d.Score != want.Score || d.After != want.After {
				t.Fatalf("round %d, %s: chose %s (score %v, after %v), a fresh Scorer %s (%v, %v)",
					round, spec.Name, d.Member, d.Score, d.After, want.Member, want.Score, want.After)
			}
		}
		if next := sc.table(); next == full || next.size() > 2*len(cands) {
			t.Fatalf("round %d: after the full table the decisions numbered in one holding %d ids (replaced: %v)", round, next.size(), next != full)
		}
	}
}

// TestConcurrentDecisionsShareOneScorer: decisions of one Scorer run
// concurrently, each over candidates of its own, while classes churn
// through the Scorer's table and replace it under them. Every decision
// matches a Scorer deciding alone.
func TestConcurrentDecisionsShareOneScorer(t *testing.T) {
	members := spreadMembers()
	want := make([]string, len(spreadSpecs))
	ref := NewScorer()
	ref.DomainSpread = true
	for i, spec := range spreadSpecs {
		d, _, err := ref.decide(spec, new(candidateSet).reset(members, true))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d.Member
	}
	sc := NewScorer()
	sc.DomainSpread = true
	first := sc.table()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cands := new(candidateSet).reset(members, true)
			for i := 0; i < 40; i++ {
				k := (g + i) % len(spreadSpecs)
				if d, _, err := sc.decide(spreadSpecs[k], cands); err != nil || d.Member != want[k] {
					t.Errorf("decision %d of goroutine %d: %+v, %v; want %s", i, g, d, err, want[k])
					return
				}
			}
		}()
	}
	churnClasses(sc, maxClassIDs+maxClassIDs/4)
	wg.Wait()
	if sc.table() == first {
		t.Fatal("the churn never replaced the table")
	}
}
