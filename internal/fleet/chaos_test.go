package fleet

import (
	"context"
	"net"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/ctrlplane/persist"
	"repro/internal/ctrlplane/replica"
	"repro/internal/faultinject"
	"repro/internal/machine"
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

// haMember boots one fleet member as a coopd replica pair on loopback:
// the bootstrap leader and a follower pulling from it. The follower's
// peer traffic rides pulls, so a test can cut its replication and keep
// it lagging. The lease outlasts the test: a follower cut off from the
// leader falls behind instead of promoting itself. It returns once the
// follower has caught up with the leader's epoch and generation.
func haMember(t *testing.T) (leader, follower string, pulls *faultinject.Partition) {
	t.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	leader, follower = "http://"+lnA.Addr().String(), "http://"+lnB.Addr().String()
	pulls = faultinject.NewPartition()
	start := func(ln net.Listener, self, peer string, bootstrap bool, rt http.RoundTripper) {
		store, err := persist.Open(t.TempDir(), persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{Machine: machine.PaperModel(), DefaultTTL: 10 * time.Minute, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		hint := ""
		if !bootstrap {
			hint = peer
		}
		node, err := replica.NewNode(replica.Config{
			Self: self, Peers: []string{peer}, Server: srv,
			LeaseTTL: time.Minute, PullInterval: 10 * time.Millisecond,
			Bootstrap: bootstrap, LeaderHint: hint, Transport: rt,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: node.Handler()}
		go hs.Serve(ln)
		srv.Start()
		node.Start()
		t.Cleanup(func() {
			hs.Close()
			node.Close()
			srv.Close()
		})
	}
	start(lnA, leader, follower, true, nil)
	start(lnB, follower, leader, false, pulls.Transport(nil))
	waitCaughtUp(t, leader, follower)
	return leader, follower, pulls
}

// waitCaughtUp waits until the follower reports the leader's epoch and
// generation.
func waitCaughtUp(t *testing.T, leader, follower string) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		l, lerr := client.New(leader, client.Config{MaxAttempts: 1}).ReplicaStatus(ctx)
		f, ferr := client.New(follower, client.Config{MaxAttempts: 1}).ReplicaStatus(ctx)
		if lerr == nil && ferr == nil && l.Role == "leader" && l.Epoch > 0 && f.Epoch == l.Epoch && f.Generation == l.Generation {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: leader %+v (%v), follower %+v (%v)", l, lerr, f, ferr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosFleetHAPlaceReachesLeaderAfterMissedPoll: fleetd loses the
// leader of an HA member for one poll, which the follower answers, and
// the link heals. However many polls the follower answers after that,
// the next placement reaches the leader: a register the follower
// refuses with 421 not_leader goes to the leader the 421 names.
func TestChaosFleetHAPlaceReachesLeaderAfterMissedPoll(t *testing.T) {
	ctx := context.Background()
	leader, follower, _ := haMember(t)
	part := faultinject.NewPartition()
	inv := NewInventory(InventoryConfig{NewClient: fastClients(part.Transport(nil)), FailAfter: 2, Logf: t.Logf})
	if err := inv.Add("ha", leader, follower); err != nil {
		t.Fatal(err)
	}
	inv.Poll(ctx)
	pl, _ := planners(t, inv, ServerConfig{Logf: t.Logf})
	if _, _, err := pl.Place(ctx, memSpec("before")); err != nil {
		t.Fatalf("placing on the healthy pair: %v", err)
	}
	waitCaughtUp(t, leader, follower)

	part.Isolate(leader)
	inv.Poll(ctx)
	part.Heal(leader)
	if m, _ := inv.Member("ha"); !m.Healthy() || len(m.Apps) != 1 {
		t.Fatalf("after the poll the follower answered: healthy %v, %d apps; want healthy with 1", m.Healthy(), len(m.Apps))
	}
	if part.Drops(leader) == 0 {
		t.Fatal("the partition dropped nothing: the leader was never missed")
	}
	for i := 0; i < 5; i++ {
		inv.Poll(ctx)
	}
	if _, _, err := pl.Place(ctx, memSpec("after")); err != nil {
		t.Fatalf("placing after the leader came back: %v (not_leader: %v)", err, client.IsNotLeader(err))
	}
	st, err := client.New(leader, client.Config{}).State(ctx, ctrlplane.StateQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Apps) != 2 {
		t.Fatalf("the leader holds %d apps, want both placements", len(st.Apps))
	}
	if cli, _ := inv.Client("ha"); cli.BaseURL() != leader {
		t.Errorf("preferred endpoint after the placement: %s, want the leader %s", cli.BaseURL(), leader)
	}
}

// TestChaosFleetHALaggingFollowerLeavesCopy: after a register the
// leader acknowledged, a poll only a lagging follower answers must not
// move fleetd's copy of the member back to the follower's older state.
// The follower's replication is cut before the register, and the
// leader's link to fleetd before the poll. The copy may have been read
// from either replica.
func TestChaosFleetHALaggingFollowerLeavesCopy(t *testing.T) {
	for _, tc := range []struct {
		name             string
		readFromFollower bool
	}{
		{"copy read from the leader", false},
		{"copy read from the follower", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			leader, follower, pulls := haMember(t)
			part := faultinject.NewPartition()
			inv := NewInventory(InventoryConfig{NewClient: fastClients(part.Transport(nil)), FailAfter: 3, Logf: t.Logf})
			if err := inv.Add("ha", leader, follower); err != nil {
				t.Fatal(err)
			}
			inv.Poll(ctx)
			pl, _ := planners(t, inv, ServerConfig{Logf: t.Logf})
			if _, _, err := pl.Place(ctx, memSpec("resident")); err != nil {
				t.Fatal(err)
			}
			waitCaughtUp(t, leader, follower)

			pulls.Isolate(leader) // the follower lags from here on
			if tc.readFromFollower {
				part.Isolate(leader)
				inv.Poll(ctx)
				part.Heal(leader)
			}
			if _, _, err := pl.Place(ctx, memSpec("fresh")); err != nil {
				t.Fatalf("placing with the leader reachable: %v", err)
			}
			before, _ := inv.Member("ha")
			if len(before.Apps) != 2 {
				t.Fatalf("after the acknowledged register the copy holds %d apps, want 2", len(before.Apps))
			}

			fenced := inv.Polls().Fenced
			part.Isolate(leader)
			inv.Poll(ctx)
			if got := inv.Polls().Fenced; got != fenced+1 {
				t.Errorf("polls.fenced went from %d to %d, want one refused answer", fenced, got)
			}
			after, _ := inv.Member("ha")
			if !reflect.DeepEqual(appIDs(after.Apps), appIDs(before.Apps)) || after.Generation != before.Generation {
				t.Fatalf("a poll of the lagging follower moved the copy from %v at generation %d to %v at %d",
					appIDs(before.Apps), before.Generation, appIDs(after.Apps), after.Generation)
			}
			st, err := client.New(follower, client.Config{}).State(ctx, ctrlplane.StateQuery{})
			if err != nil || len(st.Apps) != 1 {
				t.Fatalf("the follower should lag at 1 app: %v apps, err %v", len(st.Apps), err)
			}
		})
	}
}

// TestChaosFleetHAPollRacingRegisterIsAMiss: a register the leader
// acknowledges while a poll of the same member is in flight moves the
// fence past the poll's answer, and the lagging follower's too. The poll
// has no news, but the member just answered a write: with FailAfter 1 it
// must not be declared dead, and the copy keeps the register.
func TestChaosFleetHAPollRacingRegisterIsAMiss(t *testing.T) {
	ctx := context.Background()
	leader, follower, pulls := haMember(t)
	var mu sync.Mutex
	var race func() // run once, after a poll's answer arrives and before it is read
	rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := http.DefaultTransport.RoundTrip(req)
		mu.Lock()
		f := race
		race = nil
		mu.Unlock()
		if f != nil && req.Method == http.MethodGet {
			f()
		}
		return resp, err
	})
	inv := NewInventory(InventoryConfig{NewClient: fastClients(rt), FailAfter: 1, Logf: t.Logf})
	if err := inv.Add("ha", leader, follower); err != nil {
		t.Fatal(err)
	}
	inv.Poll(ctx)
	pl, _ := planners(t, inv, ServerConfig{Logf: t.Logf})
	if _, _, err := pl.Place(ctx, memSpec("resident")); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, leader, follower)
	pulls.Isolate(leader)

	mu.Lock()
	race = func() {
		if _, _, err := pl.Place(ctx, memSpec("racing")); err != nil {
			t.Error(err)
		}
	}
	mu.Unlock()
	inv.Poll(ctx)
	m, _ := inv.Member("ha")
	if m.Dead || m.Failures != 0 || len(m.Apps) != 2 {
		t.Fatalf("after the raced poll: dead %v, %d failures, %d apps; want alive with both apps", m.Dead, m.Failures, len(m.Apps))
	}
	if inv.Polls().Fenced == 0 {
		t.Fatal("no answer was fenced: the poll did not race the register")
	}
}

// appIDs lists the apps' IDs in order.
func appIDs(apps []PlacedApp) []string {
	ids := make([]string, len(apps))
	for i, a := range apps {
		ids[i] = a.ID
	}
	return ids
}
