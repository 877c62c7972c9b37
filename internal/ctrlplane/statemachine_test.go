package ctrlplane

// The registry is one state machine with three entrances — a leader
// request, a replicated record, a recovered journal — and these tests
// hold the three to the same state, the state dir to the format the
// previous commit wrote, and the journal tiers to the durability
// contract.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/ctrlplane/persist"
	"repro/internal/machine"
	"repro/internal/roofline"
)

func openStore(t *testing.T, dir string, opts persist.Options) *persist.Store {
	t.Helper()
	st, err := persist.Open(dir, opts)
	if err != nil {
		t.Fatalf("opening state dir: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// journalLimit is the journal length, in records, at which a store
// asks for compaction.
const journalLimit = 1024

// padRecord is an unsynced heartbeat for an app that never registered,
// which recovery replays as a no-op.
var padRecord = persist.Record{Op: persist.OpHeartbeat, ID: "pad-0", Beat: 1, Beats: 1}

// paddedStore is a store whose journal is kept room records short of
// journalLimit by padRecords.
type paddedStore struct {
	*persist.Store
	room int
	seen uint64 // Compactions at the last top-up
}

// openPadded writes dir's padded journal in one go and opens it.
func openPadded(t *testing.T, dir string, opts persist.Options, room int) *paddedStore {
	t.Helper()
	line, err := json.Marshal(padRecord)
	if err != nil {
		t.Fatal(err)
	}
	journal := bytes.Repeat(append(line, '\n'), journalLimit-room)
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	return &paddedStore{Store: openStore(t, dir, opts), room: room}
}

// topUp pads the journal again once the store has compacted since the
// last top-up, so the next compaction is again room records away.
func (p *paddedStore) topUp(t *testing.T) {
	t.Helper()
	if c := p.Compactions(); c != p.seen {
		p.seen = c
		for i := 0; i < journalLimit-p.room; i++ {
			if _, err := p.Append(padRecord, false); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// recoverRegistry opens dir — without anyone having Closed it — and
// recovers a fresh registry from it.
func recoverRegistry(t *testing.T, dir string, clock func() time.Time) *Registry {
	t.Helper()
	r := NewRegistry(time.Second, clock)
	if err := r.AttachStore(openStore(t, dir, persist.Options{})); err != nil {
		t.Fatalf("recovering from %s: %v", dir, err)
	}
	return r
}

// sansBeats blanks LastBeat, the one field recovery re-arms.
func sansBeats(s persist.Snapshot) persist.Snapshot {
	s.Apps = append([]persist.AppRecord(nil), s.Apps...)
	for i := range s.Apps {
		s.Apps[i].LastBeat = 0
	}
	return s
}

// TestRegistryThreeWayDifferential drives seeded random op sequences
// through a journaling leader and requires the same PersistSnapshot from
// (a) the leader, (b) a follower fed the committed records through
// ApplyRecord — on odd seeds joining late by snapshot and then hearing
// again some records the snapshot already covers, on even seeds hearing
// a suffix of the stream twice, as at-least-once delivery allows — and
// (c) a registry recovered from the leader's state dir without a Close,
// modulo the LastBeat that recovery re-arms. Every app keeps the class
// and the move round it registered with.
func TestRegistryThreeWayDifferential(t *testing.T) {
	seeds := 240
	if testing.Short() {
		seeds = 40
	}
	leaderCompacted, followerCompacted := 0, 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		clk := &fakeClock{now: time.Unix(1_700_000_000, 0)}
		dir := t.TempDir()
		// Journals kept a few records short of compaction, so most seeds
		// compact a few times; write-behind on half of them.
		leader, lst := NewRegistry(time.Second, clk.Now), openPadded(t, dir, persist.Options{WriteBehind: seed%2 == 0}, 3+rng.Intn(30))
		if err := leader.AttachStore(lst.Store); err != nil {
			t.Fatal(err)
		}
		follower, fdir := NewRegistry(time.Second, clk.Now), t.TempDir()
		fst := openPadded(t, fdir, persist.Options{}, 3+rng.Intn(30))
		if err := follower.AttachStore(fst.Store); err != nil {
			t.Fatal(err)
		}
		follower.SetSweepsEnabled(false)
		var stream []persist.Record
		leader.SetObserver(func(r persist.Record) { stream = append(stream, r) })

		var ids []string
		specs := map[string]AppSpec{} // app ID -> the spec it registered with
		pick := func() string {
			if len(ids) == 0 || rng.Intn(8) == 0 {
				return "ghost-0"
			}
			return ids[rng.Intn(len(ids))]
		}
		epoch := uint64(0)
		nOps := 20 + rng.Intn(60)
		joinAt, from := -1, 0 // follower applies stream[from:]
		if seed%2 == 1 {
			joinAt = rng.Intn(nOps)
		}
		for op := 0; op < nOps; op++ {
			if op == joinAt {
				if err := follower.ResetFromSnapshot(leader.PersistSnapshot()); err != nil {
					t.Fatalf("seed %d: resync: %v", seed, err)
				}
				from = rng.Intn(len(stream) + 1)
				fst.topUp(t)
			}
			switch k := rng.Intn(10); {
			case k < 3:
				spec := AppSpec{Name: fmt.Sprintf("App %d/%d", seed, op), AI: 0.25 + 8*rng.Float64(), MaxThreads: rng.Intn(3) * 4,
					Priority: []string{"", PriorityBatch, PriorityLatency, PrioritySystem}[rng.Intn(4)], MovedRound: []uint64{0, 1, uint64(op), math.MaxUint64}[rng.Intn(4)]}
				if rng.Intn(4) == 0 {
					spec.Placement, spec.HomeNode = roofline.NUMABad, machine.NodeID(rng.Intn(4))
				}
				ttl := []time.Duration{0, 50 * time.Millisecond, 2 * time.Second, time.Hour}[rng.Intn(4)]
				st, _, err := leader.Register(spec, ttl)
				if err != nil {
					t.Fatalf("seed %d: register: %v", seed, err)
				}
				ids = append(ids, st.ID)
				specs[st.ID] = spec
			case k < 6:
				clk.Advance(time.Duration(rng.Intn(40)) * time.Millisecond)
				leader.Heartbeat(HeartbeatRequest{ID: pick(), GFlopRate: 1, GBRate: 2})
			case k == 6:
				leader.Deregister(pick())
			case k == 7:
				clk.Advance(time.Duration(rng.Intn(1500)) * time.Millisecond)
				leader.Sweep()
			case k == 8:
				if rng.Intn(2) == 0 {
					leader.SetFitted(pick(), FittedModel{AI: 1 + rng.Float64(), PeakGFLOPS: 9, Confidence: rng.Float64(), UpdatedAt: clk.Now()})
				} else {
					leader.ClearFitted(pick())
				}
			default:
				epoch += uint64(1 + rng.Intn(2))
				leader.Promote(epoch)
			}
			lst.topUp(t)
		}
		replay := append([]persist.Record(nil), stream[from:]...)
		if joinAt < 0 {
			replay = append(replay, stream[rng.Intn(len(stream)+1):]...)
		}
		for _, rec := range replay {
			if err := follower.ApplyRecord(rec); err != nil {
				t.Fatalf("seed %d: follower: %v", seed, err)
			}
			fst.topUp(t)
		}

		want := leader.PersistSnapshot()
		if want.Epoch != epoch {
			t.Fatalf("seed %d: leader epoch %d after promotions to %d", seed, want.Epoch, epoch)
		}
		for _, a := range want.Apps {
			if a.Priority != specs[a.ID].Priority || a.MovedRound != specs[a.ID].MovedRound {
				t.Fatalf("seed %d: %s holds class %q and round %d, registered with %q and %d",
					seed, a.ID, a.Priority, a.MovedRound, specs[a.ID].Priority, specs[a.ID].MovedRound)
			}
		}
		if got := follower.PersistSnapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: follower diverged from leader\n got %+v\nwant %+v", seed, got, want)
		}
		clk.Advance(time.Minute)
		recovered := recoverRegistry(t, dir, clk.Now)
		got := recovered.PersistSnapshot()
		for _, a := range got.Apps {
			if a.LastBeat != clk.Now().UnixNano() {
				t.Fatalf("seed %d: recovered %s not re-armed: last beat %d", seed, a.ID, a.LastBeat)
			}
		}
		if !reflect.DeepEqual(sansBeats(got), sansBeats(want)) {
			t.Fatalf("seed %d: recovered state diverged from leader\n got %+v\nwant %+v", seed, got, want)
		}
		if recovered.RestoredApps() != len(want.Apps) {
			t.Fatalf("seed %d: RestoredApps = %d, want %d", seed, recovered.RestoredApps(), len(want.Apps))
		}
		// The follower's own state dir is a replica too.
		if got := recoverRegistry(t, fdir, clk.Now).PersistSnapshot(); !reflect.DeepEqual(sansBeats(got), sansBeats(want)) {
			t.Fatalf("seed %d: follower's state dir diverged from leader\n got %+v\nwant %+v", seed, got, want)
		}
		if lst.Compactions() >= 2 {
			leaderCompacted++
		}
		if fst.Compactions() >= 2 {
			followerCompacted++
		}
	}
	// A journal compacts every room records, so the leader compacts at
	// least twice on about half the seeds and the follower on most.
	if 5*leaderCompacted < 2*seeds || 5*followerCompacted < 2*seeds {
		t.Errorf("leader compacted twice or more on %d and follower on %d of %d seeds, want at least 2/5", leaderCompacted, followerCompacted, seeds)
	}
}

// TestParentStateDirOpens: a state directory written by the previous
// commit (testdata/state-parent: a compacted snapshot plus the journal
// of a run that crashed, every op kind in it, produced by that commit's
// code) recovers to exactly the state that commit's store restored from
// the same files (want.json). The on-disk format did not change.
func TestParentStateDirOpens(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"snapshot.json", "journal.jsonl"} {
		data, err := os.ReadFile(filepath.Join("testdata", "state-parent", f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var want persist.Snapshot
	data, err := os.ReadFile(filepath.Join("testdata", "state-parent", "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	r := recoverRegistry(t, dir, nil)
	if got := r.PersistSnapshot(); !reflect.DeepEqual(sansBeats(got), sansBeats(want)) {
		t.Errorf("recovered\n got %+v\nwant %+v", got, want)
	}
	if r.Epoch() != 5 || r.Generation() != 12 || r.RestoredApps() != 3 {
		t.Errorf("epoch/generation/restored = %d/%d/%d, want 5/12/3", r.Epoch(), r.Generation(), r.RestoredApps())
	}
	// And the next ID continues the parent's sequence.
	if st, gen, err := r.Register(AppSpec{Name: "next", AI: 1}, 0); err != nil || st.ID != "next-6" || gen != 13 {
		t.Errorf("register after recovery = %s at generation %d (%v), want next-6 at 13", st.ID, gen, err)
	}
}

// TestLongNameRegistrationsSurviveReopen is the lost-acknowledgement
// regression: three fsynced registrations, the second with a 200 KiB
// name of '<' (a journal line over 1 MiB once JSON-escaped), recover as
// three apps at generation 3 after a crash. The previous reader stopped
// at the long line and reported 1 app, 0 torn records.
func TestLongNameRegistrationsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(time.Second, nil)
	if err := r.AttachStore(openStore(t, dir, persist.Options{})); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"first", strings.Repeat("<", 200<<10), "third"} {
		if _, _, err := r.Register(AppSpec{Name: name, AI: 1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	got := recoverRegistry(t, dir, nil)
	if got.Len() != 3 || got.Generation() != 3 {
		t.Fatalf("recovered %d apps at generation %d, want 3 at 3", got.Len(), got.Generation())
	}
}

// TestUnknownOpIsRefusedEverywhere: a well-formed record with an op
// this build does not know is refused by the follower path and fails
// crash recovery naming the op and its journal line — it is never
// skipped and compacted away — and is not journaled on the way in.
func TestUnknownOpIsRefusedEverywhere(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(time.Second, nil)
	if err := r.AttachStore(openStore(t, dir, persist.Options{})); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Register(AppSpec{Name: "ok", AI: 1}, 0); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []persist.Record{{Op: "frobnicate", Gen: 9}, {Op: persist.OpRegister, Gen: 9, Seq: 9}} {
		if err := r.ApplyRecord(bad); err == nil {
			t.Errorf("ApplyRecord(%+v) succeeded", bad)
		}
	}
	if r.Generation() != 1 || recoverRegistry(t, dir, nil).Generation() != 1 {
		t.Fatalf("a refused record changed the state or reached the journal")
	}

	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(f, `{"op":"frobnicate","id":"ok-1","gen":2}`)
	fmt.Fprintln(f, `{"op":"deregister","id":"ok-1","gen":3}`)
	f.Close()
	err = NewRegistry(time.Second, nil).AttachStore(openStore(t, dir, persist.Options{}))
	if err == nil || !strings.Contains(err.Error(), `"frobnicate"`) || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("recovery over an unknown op: err = %v, want one naming the op and line 2", err)
	}
	if _, err := NewServer(ServerConfig{Machine: machine.PaperModel(), Store: openStore(t, dir, persist.Options{})}); err == nil {
		t.Error("NewServer started on a journal it cannot replay")
	}
}

// TestDurabilityContract pins journalPolicy row by row, and what a
// failing journal (here: a closed store) does to each op: register and
// set/clear-fitted are refused and leave no trace; deregister, evict,
// promote and heartbeat are applied and the failure counted.
func TestDurabilityContract(t *testing.T) {
	type row = struct{ sync, reject bool }
	want := map[string]row{
		persist.OpRegister:   {sync: true, reject: true},
		persist.OpFitted:     {sync: true, reject: true},
		persist.OpDeregister: {sync: true},
		persist.OpEvict:      {sync: true},
		persist.OpPromote:    {sync: true},
		persist.OpHeartbeat:  {},
	}
	if len(journalPolicy) != len(want) {
		t.Errorf("journalPolicy has %d rows, want %d", len(journalPolicy), len(want))
	}
	for op, w := range want {
		if got := journalPolicy[op]; got != w {
			t.Errorf("journalPolicy[%s] = %+v, want %+v", op, got, w)
		}
	}

	clk := &fakeClock{now: time.Unix(1000, 0)}
	st := openStore(t, t.TempDir(), persist.Options{})
	r := NewRegistry(time.Second, clk.Now)
	if err := r.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		a, _, err := r.Register(AppSpec{Name: "app", AI: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, a.ID)
	}
	if _, err := r.SetFitted(ids[0], FittedModel{AI: 2}); err != nil {
		t.Fatal(err)
	}
	st.Close() // every append fails from here on
	before := r.PersistSnapshot()

	if _, _, err := r.Register(AppSpec{Name: "late", AI: 1}, 0); err == nil {
		t.Error("register with a failing journal was acknowledged")
	}
	if _, err := r.SetFitted(ids[1], FittedModel{AI: 3}); err == nil {
		t.Error("set-fitted with a failing journal was acknowledged")
	}
	if _, err := r.ClearFitted(ids[0]); err == nil {
		t.Error("clear-fitted with a failing journal was acknowledged")
	}
	if got := r.PersistSnapshot(); !reflect.DeepEqual(got, before) {
		t.Errorf("refused ops changed the state\n got %+v\nwant %+v", got, before)
	}
	if f := r.PersistFailures(); f != 3 {
		t.Errorf("persist failures = %d after 3 refusals", f)
	}

	clk.Advance(500 * time.Millisecond)
	if err := r.Heartbeat(HeartbeatRequest{ID: ids[1]}); err != nil {
		t.Errorf("heartbeat with a failing journal: %v", err)
	}
	if !r.Deregister(ids[0]) {
		t.Error("deregister with a failing journal was not applied")
	}
	clk.Advance(800 * time.Millisecond) // ids[2] is 1.3s idle, ids[1] 0.8s
	if ev := r.Sweep(); len(ev) != 1 || ev[0] != ids[2] {
		t.Errorf("sweep with a failing journal evicted %v, want %s", ev, ids[2])
	}
	if gen := r.Promote(4); gen != before.Generation+3 || r.Epoch() != 4 {
		t.Errorf("promote with a failing journal: generation %d epoch %d, want %d and 4", gen, r.Epoch(), before.Generation+3)
	}
	if a, ok := r.App(ids[1]); !ok || a.Beats != 1 || r.Len() != 1 || r.Evictions() != 1 {
		t.Errorf("best-effort ops not applied: app %+v, %d live, %d evictions", a, r.Len(), r.Evictions())
	}
	if f := r.PersistFailures(); f != 7 {
		t.Errorf("persist failures = %d, want 3 refusals + 4 counted", f)
	}
}

// TestObserverEpochAndResetRoundTrip: the replication substrate — every
// committed record (and no refused one) reaches the observer in order,
// promotions persist the fencing epoch across a restart, and neither a
// resync from an older snapshot nor a replayed promote can regress it.
func TestObserverEpochAndResetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(time.Second, nil)
	if err := r.AttachStore(openStore(t, dir, persist.Options{})); err != nil {
		t.Fatal(err)
	}
	var seen []persist.Record
	r.SetObserver(func(rec persist.Record) { seen = append(seen, rec) })
	a, _, err := r.Register(AppSpec{Name: "a", AI: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Promote(3)
	r.Heartbeat(HeartbeatRequest{ID: a.ID})
	r.ApplyRecord(persist.Record{Op: "frobnicate"})
	if len(seen) != 3 || seen[0].Op != persist.OpRegister || seen[1].Op != persist.OpPromote || seen[2].Op != persist.OpHeartbeat {
		t.Fatalf("observer saw %+v, want register/promote/heartbeat", seen)
	}
	if seen[1].Epoch != 3 || r.Epoch() != 3 || r.PersistSnapshot().Epoch != 3 {
		t.Errorf("promote record epoch %d, registry epoch %d, snapshot epoch %d, want 3", seen[1].Epoch, r.Epoch(), r.PersistSnapshot().Epoch)
	}

	// The epoch survives a crash — a rebooted replica can never campaign
	// below an epoch it already acknowledged.
	r2 := recoverRegistry(t, dir, nil)
	if r2.Epoch() != 3 {
		t.Errorf("recovered epoch = %d, want 3", r2.Epoch())
	}
	// A snapshot resync replaces the state wholesale but cannot lower it,
	// and the state dir then holds exactly the snapshot.
	snap := persist.Snapshot{
		Apps:       []persist.AppRecord{stateToRecord(AppState{ID: "z-9", Spec: AppSpec{Name: "z", AI: 2}, TTL: time.Second, RegisteredAt: time.Unix(5, 0), LastBeat: time.Unix(5, 0)})},
		Generation: 10, Seq: 9, Epoch: 2,
	}
	if err := r2.ResetFromSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	r2.ApplyRecord(persist.Record{Op: persist.OpPromote, Gen: 4, Epoch: 1}) // a stale duplicate
	for label, got := range map[string]persist.Snapshot{"live": r2.PersistSnapshot(), "recovered": recoverRegistry(t, dir, nil).PersistSnapshot()} {
		if len(got.Apps) != 1 || got.Apps[0].ID != "z-9" || got.Generation != 10 || got.Seq != 9 || got.Epoch != 3 {
			t.Errorf("%s after resync: %+v, want z-9 at generation 10, seq 9, epoch 3", label, got)
		}
	}
}

// stepWall returns t with its wall-clock reading moved by d (whole
// seconds) and its monotonic reading untouched: what time.Now returns
// after the system clock is stepped. The time package has no
// constructor for that, so the wall word is edited in place (seconds
// sit above the 30 nanosecond bits when a monotonic reading is present).
func stepWall(t *testing.T, tm time.Time, d time.Duration) time.Time {
	t.Helper()
	stepped := tm
	*(*uint64)(unsafe.Pointer(&stepped)) += uint64(d/time.Second) << 30
	if stepped.Sub(tm) != 0 || stepped.UnixNano()-tm.UnixNano() != int64(d) {
		t.Skipf("time.Time layout changed: cannot forge a wall-clock step (%v vs %v)", stepped, tm)
	}
	return stepped
}

// TestRegistryTTLWallClockStep: liveness arithmetic runs on the clock's
// monotonic reading. The leader keeps the time.Time its clock returned
// — not the wall-clock nanoseconds it journals — so a stepped system
// clock neither evicts a live app nor shelters a dead one.
func TestRegistryTTLWallClockStep(t *testing.T) {
	now := time.Now()
	r := NewRegistry(time.Second, func() time.Time { return now })
	if err := r.AttachStore(openStore(t, t.TempDir(), persist.Options{})); err != nil {
		t.Fatal(err)
	}
	st, _, err := r.Register(AppSpec{Name: "stepped", AI: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastBeat != now || st.RegisteredAt != now {
		t.Fatalf("registered at %v / %v, want the clock's own reading %v", st.RegisteredAt, st.LastBeat, now)
	}
	start := now

	now = stepWall(t, start.Add(100*time.Millisecond), time.Hour) // wall +1h, 100ms later
	if ev := r.Sweep(); len(ev) != 0 {
		t.Fatalf("wall clock stepped forward an hour: evicted %v after 100ms", ev)
	}
	now = start.Add(200 * time.Millisecond)
	if err := r.Heartbeat(HeartbeatRequest{ID: st.ID}); err != nil {
		t.Fatal(err)
	}
	now = stepWall(t, start.Add(1300*time.Millisecond), -time.Hour) // wall -1h, 1.1s after the beat
	if ev := r.Sweep(); len(ev) != 1 {
		t.Fatalf("wall clock stepped back an hour: app 1.1s idle on a 1s TTL not evicted (%v)", ev)
	}
}
