package fleet

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/machine"
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
const indexEdits = 13

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
	}
}

// check opens a pooled session over world (w or its twin), under the
// configuration of w the edit names, and holds its snapshot rows and
// candidates against a cold candidateSet built from Snapshot(). It then
// decides an app in the session, so its candidates carry class keys on
// to the next one.
func (w *indexWorld) check(t *testing.T, label string, world *indexWorld, op byte) {
	t.Helper()
	sc, inv := w.pls[config(op)].Scorer, world.inv
	spread := sc.DomainSpread
	want := inv.Snapshot()
	cold := new(candidateSet).reset(want, true, spread)
	s := openSession(sc, inv, spread)
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
	for i, c := range s.cands {
		d := cold[i]
		if c.id != d.id || c.member != d.member || c.topo != d.topo || c.snap != d.snap || c.apps != d.apps ||
			c.bad != d.bad || c.domain != d.domain || !slices.Equal(c.demand, d.demand) || !slices.Equal(c.ids, d.ids) ||
			(c.groups == nil) != (d.groups == nil) || !maps.Equal(c.groups, d.groups) ||
			!bytes.Equal(c.classKey(sc, &scratch), d.classKey(sc, &scratch)) {
			t.Fatalf("%s: pooled candidate\n  %+v\na cold one\n  %+v", label, *c, *d)
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
// member joining, drains, partitions and deaths, committing gang and
// rebalance sessions, and placements. After every edit a pooled session
// over the fleet, and one over a twin fleet with the same member IDs
// and other apps, must hold exactly what a cold candidateSet builds
// from Snapshot(): snapshot rows, and per candidate demand, IDs, snap,
// app and numa-bad counts, domain, groups and class key.
func FuzzCandidateIndex(f *testing.F) {
	for _, ops := range [][]byte{
		{0, 0x00, 4, 0x00, 1, 0x00, 0, 0x02, 2, 0x02, 4, 0x00},             // register, poll, deregister, stale
		{4, 0x00, 3, 0x02, 4, 0x00, 3, 0x44, 4, 0x01},                      // full polls after registers behind the back
		{0, 0x10, 4, 0x00, 5, 0x30, 4, 0x00, 5, 0x20, 5, 0x31},             // classed apps arrive behind the back, each then polled
		{9, 0x00, 9, 0x13, 11, 0x00, 9, 0x21, 11, 0x01, 9, 0x04},           // gangs commit, placements register
		{0, 0x00, 0, 0x00, 0, 0x10, 10, 0x00, 10, 0x00, 4, 0x00},           // a latency app starved: preemption evicts
		{6, 0x00, 4, 0x00, 7, 0x02, 11, 0x00, 7, 0x02, 8, 0x04},            // a member joins, a drain comes and goes
		{8, 0x04, 11, 0x00, 8, 0x04, 10, 0x00, 0x1a, 0x00, 0x2b, 0x02},     // death, evacuation plans, revival
		{4, 0x00, 0x14, 0x00, 0x24, 0x00, 0x2b, 0x00, 4, 0x00, 0x1c, 0x00}, // one fleet, three configurations, the twin
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
