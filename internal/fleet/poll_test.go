package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/machine"
)

// pollWorld is an inventory over in-process members that share one
// hand-moved clock, so a test decides when a TTL runs out, which member
// answers, and which has been restarted.
type pollWorld struct {
	t   testing.TB
	net *memberNet
	inv *Inventory
	now time.Time
}

// newPollWorld starts a paper-model member per id. Nothing is polled.
func newPollWorld(t testing.TB, ids ...string) *pollWorld {
	t.Helper()
	w := &pollWorld{
		t:   t,
		net: &memberNet{members: map[string]*ctrlplane.Server{}, down: map[string]bool{}},
		now: time.Unix(1_700_000_000, 0),
	}
	w.inv = w.newInventory()
	for _, id := range ids {
		w.start(id, machine.PaperModel())
	}
	return w
}

// newInventory builds an inventory over the world's members as they are
// now: its first poll reads every one of them unconditionally.
func (w *pollWorld) newInventory() *Inventory {
	w.t.Helper()
	inv := NewInventory(InventoryConfig{
		NewClient: w.net.clients,
		FailAfter: 2,
		Clock:     func() time.Time { return w.now },
	})
	for id := range w.net.members {
		if err := inv.Add(id, "http://"+id); err != nil {
			w.t.Fatal(err)
		}
	}
	return inv
}

// start puts a fresh coopd for topology m behind host id: the member's
// first start (it then joins the inventory), or a restart without a
// state dir — registry empty, generations from 0 again.
func (w *pollWorld) start(id string, m *machine.Machine) {
	w.t.Helper()
	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{
		Machine:    m,
		DefaultTTL: 10 * time.Minute,
		Clock:      func() time.Time { return w.now },
	})
	if err != nil {
		w.t.Fatal(err)
	}
	if _, known := w.net.members[id]; !known {
		if err := w.inv.Add(id, "http://"+id); err != nil {
			w.t.Fatal(err)
		}
	}
	w.net.members[id] = srv
}

// direct registers spec on the member behind the fleet's back.
func (w *pollWorld) direct(id string, spec ctrlplane.AppSpec, ttl time.Duration) ctrlplane.AppState {
	w.t.Helper()
	st, _, err := w.net.members[id].Registry().Register(spec, ttl)
	if err != nil {
		w.t.Fatal(err)
	}
	return st
}

func (w *pollWorld) member(id string) Member {
	w.t.Helper()
	m, ok := w.inv.Member(id)
	if !ok {
		w.t.Fatalf("unknown member %s", id)
	}
	return m
}

// freshTotal is what a solver with an empty cache predicts for the
// member's cached demand set on its cached topology.
func freshTotal(t testing.TB, m Member) float64 {
	t.Helper()
	states := make([]ctrlplane.AppState, len(m.Apps))
	for i, a := range m.Apps {
		r, err := a.EffectiveSpec().rooflineApp()
		if err != nil {
			t.Fatal(err)
		}
		states[i] = ctrlplane.AppState{ID: a.ID, Spec: ctrlplane.AppSpec{
			Name: a.Name, AI: r.AI, Placement: r.Placement, HomeNode: r.HomeNode, MaxThreads: a.MaxThreads,
		}}
	}
	sv, err := ctrlplane.NewSolver(ctrlplane.PolicyRoofline)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := sv.Solve(m.Topology, states)
	if err != nil {
		t.Fatal(err)
	}
	return sol.TotalGFLOPS
}

// TestPollIsOneSnapshot: a register lands on the member right after
// every read the inventory makes, so between any two requests of one
// poll, had it more than one. Nothing ever leaves this member, so
// generation g is the generation of exactly g apps, and the total must
// be the optimum of those g: a poll that took the apps from one answer
// and the generation and total from a later one fails both.
func TestPollIsOneSnapshot(t *testing.T) {
	ctx := context.Background()
	w := newPollWorld(t, "a")
	late := 0
	w.net.served = func(host string, req *http.Request) {
		if req.Method == http.MethodGet {
			late++
			w.direct(host, ctrlplane.AppSpec{Name: fmt.Sprintf("late-%d", late), AI: 0.5 * float64(late)}, 0)
		}
	}
	for poll := 0; poll < 4; poll++ {
		w.inv.Poll(ctx)
		m := w.member("a")
		if uint64(len(m.Apps)) != m.Generation {
			t.Fatalf("poll %d: %d apps under generation %d, want as many apps as the generation counts", poll, len(m.Apps), m.Generation)
		}
		if want := freshTotal(t, m); m.TotalGFLOPS != want {
			t.Fatalf("poll %d: total %v beside %d apps whose optimum is %v", poll, m.TotalGFLOPS, len(m.Apps), want)
		}
	}
	if m := w.member("a"); len(m.Apps) != 3 {
		t.Fatalf("%d apps after four polls with a register behind each, want 3", len(m.Apps))
	}
}

// TestPollRereadsTopologyOfNewIncarnation: a member restarted on
// another machine description is a new incarnation, whose answer brings
// its topology again; the old one used to stay cached for good.
func TestPollRereadsTopologyOfNewIncarnation(t *testing.T) {
	ctx := context.Background()
	w := newPollWorld(t, "a")
	w.direct("a", ctrlplane.AppSpec{Name: "resident", AI: 2}, 0)
	w.inv.Poll(ctx)
	if m := w.member("a"); m.Topology == nil || m.Topology.Name != machine.PaperModel().Name || len(m.Apps) != 1 {
		t.Fatalf("first poll: topology %v, %d apps", m.Topology, len(m.Apps))
	}

	knl := machine.KNLSNC4()
	w.start("a", knl)
	w.inv.Poll(ctx)
	m := w.member("a")
	if m.Topology == nil || m.Topology.Name != knl.Name || m.Topology.TotalCores() != knl.TotalCores() {
		t.Fatalf("after the restart on %s the inventory still holds %v", knl.Name, m.Topology)
	}
	if len(m.Apps) != 0 || m.Generation != 0 || !m.Healthy() {
		t.Fatalf("after the restart: %d apps, generation %d, healthy %v; want the empty new registry", len(m.Apps), m.Generation, m.Healthy())
	}
	w.inv.Poll(ctx)
	if got, want := w.inv.Polls(), (PollMetrics{Unchanged: 1, Full: 2}); got != want {
		t.Fatalf("polls %+v, want %+v", got, want)
	}
	if m := w.member("a"); m.Topology == nil || m.Topology.Name != knl.Name {
		t.Fatalf("an unchanged poll lost the topology: %v", m.Topology)
	}
}

// TestClassBelongsToItsRegistration: an app's class is what its own
// registration said, read back from its member. A name freed by a
// latency app and taken by a batch one is batch; two live apps of one
// name on two members keep their own classes.
func TestClassBelongsToItsRegistration(t *testing.T) {
	ctx := context.Background()
	w := newPollWorld(t, "a", "b")
	w.inv.Poll(ctx)
	svc := func(class string) AppSpec {
		return AppSpec{Name: "svc", AI: 2, TTLMillis: testTTL, Priority: class}
	}
	classes := func() map[string]string {
		out := map[string]string{}
		for _, id := range []string{"a", "b"} {
			for _, app := range w.member(id).Apps {
				out[id+"/"+app.Name] = app.Priority
			}
		}
		return out
	}

	old, err := w.inv.register(ctx, "a", svc(PriorityLatency), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.inv.deregister(ctx, "a", old.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := w.inv.register(ctx, "a", svc(""), 0, nil); err != nil {
		t.Fatal(err)
	}
	w.inv.Poll(ctx)
	if got, want := classes(), map[string]string{"a/svc": ""}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after the name was reused: classes %v, want %v: the batch svc is not the latency one", got, want)
	}

	if _, err := w.inv.register(ctx, "b", svc(PrioritySystem), 0, nil); err != nil {
		t.Fatal(err)
	}
	for _, inv := range []*Inventory{w.inv, w.newInventory()} {
		w.inv = inv
		w.inv.Poll(ctx)
		if got, want := classes(), map[string]string{"a/svc": "", "b/svc": PrioritySystem}; !reflect.DeepEqual(got, want) {
			t.Fatalf("two live svc apps: classes %v, want %v", got, want)
		}
	}
}

// TestConditionalPollMatchesFullPoll is the poll differential. Seeded
// interleavings of everything that changes a member (direct registers,
// some in a class, and deregisters, TTL evictions, fitted models, kills,
// heals, restarts without state) and everything the fleet does to its
// own cache (registers — acknowledged ones keep the copy exact —
// deregisters, moves off live, lost and quarantined members) run
// against one long-lived inventory. After every poll, each answering
// member's cached state must equal what a fresh fleetd — an inventory
// built that instant, whose first poll presents nothing and so reads
// everything — holds of it, total included.
func TestConditionalPollMatchesFullPoll(t *testing.T) {
	ctx := context.Background()
	topos := []*machine.Machine{machine.PaperModel(), machine.SkylakeQuad(), machine.KNLSNC4()}
	ids := []string{"a", "b", "c"}
	var sum PollMetrics
	for seed := int64(0); seed < 16; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := newPollWorld(t, ids...)
		apps := 0
		pick := func() string { return ids[r.Intn(len(ids))] }
		// pickWhere prefers a member keep admits; any member when none.
		pickWhere := func(keep func(id string) bool) string {
			var some []string
			for _, id := range ids {
				if keep(id) {
					some = append(some, id)
				}
			}
			if len(some) == 0 {
				return pick()
			}
			return some[r.Intn(len(some))]
		}
		up := func(id string) bool { return !w.net.down[id] }
		// cached picks a random app out of the inventory's own view of a
		// member keep admits.
		cached := func(keep func(id string) bool) (string, PlacedApp, bool) {
			id := pickWhere(func(id string) bool { return keep(id) && len(w.member(id).Apps) > 0 })
			m := w.member(id)
			if len(m.Apps) == 0 {
				return "", PlacedApp{}, false
			}
			return id, m.Apps[r.Intn(len(m.Apps))], true
		}
		anywhere := func(string) bool { return true }
		for step := 0; step < 120; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := r.Intn(17); op {
			case 0, 1: // register behind the fleet's back, half of them short-lived
				apps++
				ttl := time.Duration(0)
				if r.Intn(2) == 0 {
					ttl = 45 * time.Second
				}
				w.direct(pick(), ctrlplane.AppSpec{Name: fmt.Sprintf("direct-%d", apps), AI: 0.5 * float64(1+r.Intn(8))}, ttl)
			case 2: // deregister behind the fleet's back
				reg := w.net.members[pick()].Registry()
				if live, _ := reg.Snapshot(); len(live) > 0 {
					reg.Deregister(live[r.Intn(len(live))].ID)
				}
			case 3: // time passes: short TTLs run out two of these later
				w.now = w.now.Add(30 * time.Second)
			case 4: // the adaptive loop re-fits an app
				reg := w.net.members[pick()].Registry()
				if live, _ := reg.Snapshot(); len(live) > 0 {
					if _, err := reg.SetFitted(live[r.Intn(len(live))].ID, ctrlplane.FittedModel{AI: 1 + r.Float64(), PeakGFLOPS: 10, Confidence: 1, UpdatedAt: w.now}); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
			case 5: // a partition: the member runs on, unreachable
				w.net.down[pick()] = true
			case 6, 7: // the partition heals
				w.net.down[pickWhere(func(id string) bool { return !up(id) })] = false
			case 8: // restart without a state dir, sometimes on other hardware
				w.start(pick(), topos[r.Intn(len(topos))])
			case 9: // the fleet registers, sometimes in a class
				apps++
				spec := AppSpec{Name: fmt.Sprintf("placed-%d", apps), AI: 0.5 * float64(1+r.Intn(8)), TTLMillis: testTTL}
				if r.Intn(3) == 0 {
					spec.Priority = PriorityLatency
				}
				w.inv.register(ctx, pick(), spec, 0, nil) // a down member refuses: nothing recorded
			case 10: // the fleet moves an app between members it reaches
				if from, app, ok := cached(up); ok {
					w.inv.relocate(ctx, Move{AppID: app.ID, App: app.EffectiveSpec(), From: from, To: pickWhere(up), Reason: ReasonRebalance})
				}
			case 11: // the fleet re-homes an app off a member it cannot reach
				if from, app, ok := cached(func(id string) bool { return !up(id) }); ok && !up(from) {
					w.inv.relocate(ctx, Move{AppID: app.ID, App: app.EffectiveSpec(), From: from, To: pickWhere(up), Reason: ReasonMachineLost, moved: app.MovedRound})
				}
			case 12: // the fleet re-homes an app off a quarantined member: reachable, not asked
				if from, app, ok := cached(up); ok {
					w.inv.relocate(ctx, Move{AppID: app.ID, App: app.EffectiveSpec(), From: from, To: pickWhere(up), Reason: ReasonQuarantine, moved: app.MovedRound})
				}
			case 14: // the fleet deregisters (a stale duplicate, say)
				if id, app, ok := cached(anywhere); ok {
					w.inv.deregister(ctx, id, app.ID)
				}
			case 15: // a change behind the fleet's back, then a fleet register in the same step: the register's generation skips one
				apps++
				id := pick()
				w.direct(id, ctrlplane.AppSpec{Name: fmt.Sprintf("direct-%d", apps), AI: 0.5 * float64(1+r.Intn(8))}, 0)
				w.inv.register(ctx, id, AppSpec{Name: fmt.Sprintf("placed-%d", apps), AI: 0.5 * float64(1+r.Intn(8)), TTLMillis: testTTL}, 0, nil)
			case 16: // the fleet registers what a read normalises: explicit numa-perfect, default TTL, default name, a cap, a numa-bad home
				apps++
				spec := AppSpec{Name: fmt.Sprintf("placed-%d", apps), AI: 0.5 * float64(1+r.Intn(8)), Placement: ctrlplane.PlacementPerfect, HomeNode: r.Intn(4)}
				switch r.Intn(4) {
				case 0:
					spec.Name = ""
				case 1:
					spec.MaxThreads = 1 + r.Intn(6)
				case 2:
					spec.Placement = ctrlplane.PlacementBad
				}
				w.inv.register(ctx, pick(), spec, 0, nil)
			case 13: // a register in a class behind the fleet's back, sometimes reusing a cached app's name
				apps++
				spec := ctrlplane.AppSpec{Name: fmt.Sprintf("direct-%d", apps), AI: 0.5 * float64(1+r.Intn(8)), Priority: []string{"", PriorityBatch, PriorityLatency, PrioritySystem}[r.Intn(4)]}
				if _, app, ok := cached(anywhere); ok && r.Intn(2) == 0 {
					spec.Name = app.Name
				}
				w.direct(pick(), spec, 0)
			}
			w.inv.Poll(ctx)

			// A true fresh fleetd: nothing carried over from w.inv.
			ref := w.newInventory()
			ref.Poll(ctx)
			for _, id := range ids {
				got, _ := w.inv.Member(id)
				want, _ := ref.Member(id)
				if w.net.down[id] {
					if got.Failures == 0 {
						t.Fatalf("%s: %s is down and the poll counted no failure", label, id)
					}
					continue
				}
				if got.Failures != 0 || got.Dead || !got.LastSeen.Equal(w.now) {
					t.Fatalf("%s: %s answers, yet failures=%d dead=%v last seen %v", label, id, got.Failures, got.Dead, got.LastSeen)
				}
				if len(got.Apps) != len(want.Apps) || (len(want.Apps) > 0 && !reflect.DeepEqual(got.Apps, want.Apps)) {
					t.Fatalf("%s: %s cached apps\n  %+v\nan unconditional read\n  %+v", label, id, got.Apps, want.Apps)
				}
				if got.TotalGFLOPS != want.TotalGFLOPS || got.Generation != want.Generation || !reflect.DeepEqual(got.Topology, want.Topology) {
					t.Fatalf("%s: %s cached total %v generation %d on %s, an unconditional read %v, %d on %s",
						label, id, got.TotalGFLOPS, got.Generation, got.Topology.Name, want.TotalGFLOPS, want.Generation, want.Topology.Name)
				}
			}
		}
		p := w.inv.Polls()
		sum.Unchanged += p.Unchanged
		sum.Full += p.Full
		sum.Failed += p.Failed
		sum.Acked += p.Acked
	}
	t.Logf("polls over all seeds: %+v", sum)
	if sum.Unchanged < 500 || sum.Full < 500 || sum.Failed < 100 || sum.Acked < 100 {
		t.Fatalf("polls %+v: the interleavings left an outcome nearly unexercised", sum)
	}
}

// TestUnchangedNeverHidesStaleDuplicate: a member is partitioned off
// without restarting, so its generation never moves; its apps are
// re-homed; the partition heals. The fleet's cache of that member was
// edited behind the member's back, so the first poll after the heal
// must not take "unchanged" for an answer: the duplicates are only
// deregistered once a re-read shows them.
func TestUnchangedNeverHidesStaleDuplicate(t *testing.T) {
	ctx := context.Background()
	w := newPollWorld(t, "a", "b", "c")
	w.inv.Poll(ctx)
	// The imbalance pass is as good as off: a re-spread onto the healed
	// member would register there, and that alone makes the next poll a
	// full one. The cleanup must not depend on it.
	pl, reb := planners(t, w.inv, ServerConfig{MaxMovesPerRound: 8, Threshold: 0.01})
	for _, spec := range tableIMixSpecs() {
		if _, _, err := pl.Place(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	w.inv.Poll(ctx)
	w.inv.Poll(ctx)
	if p := w.inv.Polls(); p.Unchanged < 3 {
		t.Fatalf("polls %+v: a fleet at rest should poll unchanged", p)
	}
	held := len(w.member("c").Apps)
	if held == 0 {
		t.Fatal("nothing was placed on c")
	}

	w.net.down["c"] = true
	for round := 0; round < 3; round++ {
		if _, err := reb.Round(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if c := w.member("c"); !c.Dead || len(c.Apps) != 0 || len(c.Stale) != held {
		t.Fatalf("after the partition: dead=%v apps=%d stale=%d, want %d apps re-homed", c.Dead, len(c.Apps), len(c.Stale), held)
	}
	if live, _ := w.net.members["c"].Registry().Snapshot(); len(live) != held {
		t.Fatalf("c itself holds %d apps, want its %d untouched", len(live), held)
	}

	w.net.down["c"] = false
	cleaned := 0
	for round := 0; round < 2; round++ {
		plan, err := reb.Round(ctx)
		if err != nil {
			t.Fatal(err)
		}
		cleaned += len(plan.StaleDeregs)
	}
	if cleaned != held {
		t.Fatalf("%d duplicates deregistered in the two rounds after the heal, want %d", cleaned, held)
	}
	names := map[string]int{}
	for id, srv := range w.net.members {
		live, _ := srv.Registry().Snapshot()
		for _, a := range live {
			if names[a.Spec.Name]++; names[a.Spec.Name] > 1 {
				t.Fatalf("%s is registered twice, once of them on %s", a.Spec.Name, id)
			}
		}
	}
	if len(names) != len(tableIMixSpecs()) {
		t.Fatalf("%d apps live on the members, want %d", len(names), len(tableIMixSpecs()))
	}
}

// TestUnchangedAnswerRacingLocalEditIsDropped: the fleet re-homes an app
// off the member while a conditional poll of it is in flight. The
// "unchanged" that comes back answered a validator that has since been
// withdrawn; it is counted nowhere, and the next poll re-reads the
// member, duplicate included.
func TestUnchangedAnswerRacingLocalEditIsDropped(t *testing.T) {
	ctx := context.Background()
	w := newPollWorld(t, "a")
	dup := w.direct("a", ctrlplane.AppSpec{Name: "dup", AI: 2}, 0)
	w.inv.Poll(ctx)
	w.inv.Poll(ctx)
	// served runs once the member has answered and before the client
	// sees the answer.
	w.net.served = func(string, *http.Request) {
		w.net.served = nil
		w.inv.noteStale("a", dup.ID)
	}
	w.inv.Poll(ctx)
	if got, want := w.inv.Polls(), (PollMetrics{Unchanged: 1, Full: 1}); got != want {
		t.Fatalf("polls %+v after the raced answer, want it left out of %+v", got, want)
	}
	if m := w.member("a"); len(m.Apps) != 0 || len(m.Stale) != 1 {
		t.Fatalf("after the raced answer: apps %+v stale %v, want the local edit intact", m.Apps, m.Stale)
	}
	w.inv.Poll(ctx)
	if m := w.member("a"); len(m.Apps) != 1 || m.Apps[0].ID != dup.ID || w.inv.Polls().Full != 2 {
		t.Fatalf("the poll after it: apps %+v, polls %+v; want the member re-read, duplicate included", m.Apps, w.inv.Polls())
	}
}

// TestLateRegisterNoteIsRepairedByNextPoll: a poll's full answer, taken
// after the fleet's register landed on the member, is applied before the
// register's own note reaches the cache, which then lists the app twice.
// The register's generation is the one the copy already holds, not the
// next, so the note withdraws the validator and the next poll repairs
// the copy although the member's generation has not moved since the
// answer.
func TestLateRegisterNoteIsRepairedByNextPoll(t *testing.T) {
	ctx := context.Background()
	w := newPollWorld(t, "a")
	st := w.direct("a", ctrlplane.AppSpec{Name: "placed", AI: 2}, 0)
	w.inv.Poll(ctx)
	held := w.member("a")
	ack := &ctrlplane.RegisterResponse{ID: st.ID, Generation: held.Generation, TTLMillis: st.TTL.Milliseconds(), TotalGFLOPS: held.TotalGFLOPS}
	w.inv.noteRegistered("a", PlacedApp{ID: st.ID, AppSpec: AppSpec{Name: "placed", AI: 2}}, ack)
	if m := w.member("a"); len(m.Apps) != 2 {
		t.Fatalf("%d cached apps, want the race's double entry", len(m.Apps))
	}
	w.inv.Poll(ctx)
	if m := w.member("a"); len(m.Apps) != 1 {
		t.Fatalf("%d cached apps after the next poll, want 1", len(m.Apps))
	}
}

// TestMemberWithoutStateRouteIsAFailedPoll: there is no fallback to the
// older reads. A member that answers 404 to /v1/state — a coopd from
// before the route — was asked once, and the poll failed.
func TestMemberWithoutStateRouteIsAFailedPoll(t *testing.T) {
	var asked []string
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		asked = append(asked, r.URL.Path)
		http.NotFound(w, r)
	}))
	defer old.Close()
	inv := NewInventory(InventoryConfig{NewClient: fastClients(nil)})
	if err := inv.Add("a", old.URL); err != nil {
		t.Fatal(err)
	}
	inv.Poll(context.Background())
	if m, _ := inv.Member("a"); m.Failures != 1 || m.Healthy() || inv.Polls() != (PollMetrics{Failed: 1}) {
		t.Fatalf("member %+v, polls %+v; want one failed poll", m, inv.Polls())
	}
	if !reflect.DeepEqual(asked, []string{"/v1/state"}) {
		t.Fatalf("the poll asked %v, want /v1/state once", asked)
	}
}

// legacyMember stands in front of a member as a coopd from before
// validators and acknowledged totals: with ignoreValidator it drops
// If-None-Match from every request, with noTotal it drops total_gflops
// from every register answer.
type legacyMember struct {
	next                     http.RoundTripper
	ignoreValidator, noTotal bool
}

func (l legacyMember) RoundTrip(req *http.Request) (*http.Response, error) {
	if l.ignoreValidator {
		req = req.Clone(req.Context())
		req.Header.Del("If-None-Match")
	}
	resp, err := l.next.RoundTrip(req)
	if err != nil || !l.noTotal || req.URL.Path != "/v1/register" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	defer resp.Body.Close()
	var rr ctrlplane.RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return nil, err
	}
	rr.TotalGFLOPS = 0
	body, err := json.Marshal(rr)
	if err != nil {
		return nil, err
	}
	resp.Body, resp.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	return resp, nil
}

// requireFullRead fails unless the inventory's copy of member id equals
// what an inventory built now reads of it: apps, total, generation and
// topology.
func (w *pollWorld) requireFullRead(id, label string) {
	w.t.Helper()
	ref := w.newInventory()
	ref.Poll(context.Background())
	got := w.member(id)
	want, _ := ref.Member(id)
	if !reflect.DeepEqual(got.Apps, want.Apps) || got.TotalGFLOPS != want.TotalGFLOPS || got.Generation != want.Generation || !reflect.DeepEqual(got.Topology, want.Topology) {
		w.t.Fatalf("%s: the copy holds %+v, total %v at generation %d; a full read %+v, total %v at %d",
			label, got.Apps, got.TotalGFLOPS, got.Generation, want.Apps, want.TotalGFLOPS, want.Generation)
	}
}

// TestOldMemberEndsInFullReads: mixed versions need no fallback. A
// member that ignores the validator answers every poll in full, and one
// whose register answer carries no total gets its copy re-read once
// after the register; either way the copy ends as a full read has it.
func TestOldMemberEndsInFullReads(t *testing.T) {
	for _, tc := range []struct {
		name   string
		legacy legacyMember
		want   PollMetrics
	}{
		{"ignores If-None-Match", legacyMember{ignoreValidator: true}, PollMetrics{Full: 4, Acked: 1}},
		{"register answer without total_gflops", legacyMember{noTotal: true}, PollMetrics{Full: 2, Unchanged: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			w := newPollWorld(t)
			tc.legacy.next = w.net
			w.inv = NewInventory(InventoryConfig{
				NewClient: func(endpoint string) *client.Client {
					return client.New(endpoint, client.Config{HTTPClient: &http.Client{Transport: tc.legacy}, MaxAttempts: 1})
				},
				Clock: func() time.Time { return w.now },
			})
			w.start("a", machine.PaperModel())
			w.direct("a", ctrlplane.AppSpec{Name: "resident", AI: 0.5}, 0)
			for step := 0; step < 4; step++ {
				if step == 2 {
					if _, err := w.inv.register(ctx, "a", AppSpec{Name: "placed", AI: 10}, 0, nil); err != nil {
						t.Fatal(err)
					}
				}
				w.inv.Poll(ctx)
				w.requireFullRead("a", fmt.Sprintf("poll %d", step))
			}
			if got := w.inv.Polls(); got != tc.want {
				t.Fatalf("polls %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestNotModifiedRacingAckedRegisterIsDropped: an acknowledged register
// moves the copy on while a poll presenting the generation before it is
// in flight. The 304 that comes back names a copy that is gone, so it
// counts nowhere; the copy stays exact at the register's generation.
func TestNotModifiedRacingAckedRegisterIsDropped(t *testing.T) {
	ctx := context.Background()
	w := newPollWorld(t, "a")
	w.direct("a", ctrlplane.AppSpec{Name: "resident", AI: 0.5}, 0)
	w.inv.Poll(ctx)
	w.net.served = func(string, *http.Request) {
		w.net.served = nil
		if _, err := w.inv.register(ctx, "a", AppSpec{Name: "placed", AI: 10}, 0, nil); err != nil {
			t.Error(err)
		}
	}
	w.inv.Poll(ctx)
	if got, want := w.inv.Polls(), (PollMetrics{Full: 1, Acked: 1}); got != want {
		t.Fatalf("polls %+v after the raced 304, want it left out of %+v", got, want)
	}
	w.requireFullRead("a", "after the raced 304")
	w.inv.Poll(ctx)
	if got, want := w.inv.Polls(), (PollMetrics{Full: 1, Unchanged: 1, Acked: 1}); got != want {
		t.Fatalf("polls %+v, want the next poll a 304 at the register's generation: %+v", got, want)
	}
}
