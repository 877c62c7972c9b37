package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"testing"
	"time"

	"repro/internal/ctrlplane/client"
	"repro/internal/faultinject"
)

// hostOf extracts "host:port" from an httptest base URL for
// faultinject.Partition, which keys on hosts.
func hostOf(t *testing.T, base string) string {
	t.Helper()
	u, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// TestInventoryPollTracksTopologyAndApps: a poll learns the member's
// topology and mirrors its coopd registry, including apps registered
// behind the fleet's back.
func TestInventoryPollTracksTopologyAndApps(t *testing.T) {
	ctx := context.Background()
	hs := newCoopd(t)
	inv := NewInventory(InventoryConfig{NewClient: fastClients(nil)})
	if err := inv.Add("a", hs.URL); err != nil {
		t.Fatal(err)
	}
	if m, _ := inv.Member("a"); m.Healthy() {
		t.Fatal("member healthy before first poll")
	}

	// An app registers directly with the machine's coopd, not via the
	// fleet: the poll must still pick it up.
	cli, err := inv.Client("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Register(ctx, memSpec("loner").RegisterRequest()); err != nil {
		t.Fatal(err)
	}

	inv.Poll(ctx)
	m, ok := inv.Member("a")
	if !ok || !m.Healthy() {
		t.Fatalf("member not healthy after poll: %+v", m)
	}
	if m.Topology == nil || m.Topology.NumNodes() != 4 {
		t.Fatalf("topology not learned: %v", m.Topology)
	}
	if len(m.Apps) != 1 || m.Apps[0].Name != "loner" {
		t.Fatalf("apps = %+v, want the directly registered app", m.Apps)
	}
	if !near(m.TotalGFLOPS, 64) {
		t.Fatalf("TotalGFLOPS = %g, want the machine's solved ~64", m.TotalGFLOPS)
	}
}

// TestInventoryDeathAndRevival: FailAfter consecutive failed polls
// declare a member dead; one successful poll after the partition heals
// revives it and resets the failure count.
func TestInventoryDeathAndRevival(t *testing.T) {
	ctx := context.Background()
	hs := newCoopd(t)
	part := faultinject.NewPartition()
	inv := NewInventory(InventoryConfig{
		NewClient: fastClients(part.Transport(nil)),
		FailAfter: 2,
	})
	if err := inv.Add("a", hs.URL); err != nil {
		t.Fatal(err)
	}
	inv.Poll(ctx)
	if m, _ := inv.Member("a"); !m.Healthy() {
		t.Fatal("member not healthy on a clean network")
	}

	part.Isolate(hostOf(t, hs.URL))
	inv.Poll(ctx)
	if m, _ := inv.Member("a"); m.Dead || m.Failures != 1 {
		t.Fatalf("after one failed poll: dead=%v failures=%d, want suspect", m.Dead, m.Failures)
	}
	inv.Poll(ctx)
	if m, _ := inv.Member("a"); !m.Dead {
		t.Fatal("member not dead after FailAfter failed polls")
	}

	part.Heal(hostOf(t, hs.URL))
	inv.Poll(ctx)
	if m, _ := inv.Member("a"); !m.Healthy() || m.Failures != 0 {
		t.Fatalf("after heal: healthy=%v failures=%d, want revived", m.Healthy(), m.Failures)
	}
}

// TestInventoryEndpointFailover: a member listed with two endpoints (an
// HA pair) stays healthy when the preferred endpoint is down, by
// failing over to the second.
func TestInventoryEndpointFailover(t *testing.T) {
	ctx := context.Background()
	live := newCoopd(t)
	deadHS := newCoopd(t)
	deadURL := deadHS.URL
	deadHS.Close() // refuses connections from here on

	inv := NewInventory(InventoryConfig{NewClient: fastClients(nil)})
	if err := inv.Add("a", deadURL, live.URL); err != nil {
		t.Fatal(err)
	}
	inv.Poll(ctx)
	m, _ := inv.Member("a")
	if !m.Healthy() {
		t.Fatal("member not healthy despite a live second endpoint")
	}
	// The preferred client must now be the live endpoint, so writes
	// (register/deregister) go where reads succeeded.
	cli, err := inv.Client("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Register(ctx, memSpec("after-failover").RegisterRequest()); err != nil {
		t.Fatalf("register via preferred client after failover: %v", err)
	}
}

// TestInventoryPollTimeoutBoundsHungMember: one member hangs
// while a second member is healthy. DefaultPollTimeout must bound the
// hung member's poll. The clients deliberately use default (long)
// request timeouts, so the per-member deadline is the only guard under
// test, and the deadline assertion inside the hung transport is what
// checks it: the request's context must carry a deadline
// DefaultPollTimeout after the poll began, within a second. The hung
// transport does not wait that deadline out: it fails the request at
// once with the error the context would end with, as a request that
// hung until its deadline does. No request reaches the hung member, so
// its endpoint is a fixed host that nothing serves. The healthy member
// — polled after the hung one in ID order — only shows that the round
// finishes and the hung member's failure does not leak onto it.
func TestInventoryPollTimeoutBoundsHungMember(t *testing.T) {
	ctx := context.Background()
	const hungHost = "hung.invalid:8388"
	live := newCoopd(t)

	// Requests to the hung member's host reach the hung transport;
	// everything else passes through untouched. The injector injects
	// nothing: it counts the requests it saw.
	var start time.Time
	inj := faultinject.NewInjector(nil)
	rt := &faultinject.Transport{
		Inj:    inj,
		Filter: func(req *http.Request) bool { return req.URL.Host == hungHost },
		Base: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			if req.URL.Host != hungHost {
				return http.DefaultTransport.RoundTrip(req)
			}
			deadline, ok := req.Context().Deadline()
			if want := start.Add(DefaultPollTimeout); !ok || deadline.Sub(want).Abs() > time.Second {
				t.Errorf("hung member's request deadline %v (set %v), want %v after the poll began (%v), within 1s", deadline, ok, DefaultPollTimeout, want)
			}
			return nil, context.DeadlineExceeded
		}),
	}

	inv := NewInventory(InventoryConfig{
		NewClient: func(endpoint string) *client.Client {
			return client.New(endpoint, client.Config{
				HTTPClient:  &http.Client{Transport: rt},
				MaxAttempts: 1,
			})
		},
		FailAfter: 1,
	})
	// "a-hung" sorts before "b-live", so the round reaches b after the
	// hung member's failed poll.
	if err := inv.Add("a-hung", "http://"+hungHost); err != nil {
		t.Fatal(err)
	}
	if err := inv.Add("b-live", live.URL); err != nil {
		t.Fatal(err)
	}

	start = time.Now()
	inv.Poll(ctx)
	if m, _ := inv.Member("a-hung"); !m.Dead {
		t.Fatalf("hung member not declared dead: %+v", m)
	}
	if m, _ := inv.Member("b-live"); !m.Healthy() {
		t.Fatal("healthy member not healthy after the round")
	}
	if got := inj.Requests(); got == 0 {
		t.Fatal("the hung transport never saw a request; test wired wrong")
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// flapFleet builds a one-member inventory with a pinned clock and an
// aggressive flap detector (FailAfter 1, FlapCount 2) behind a
// partition fabric. Returns the inventory, the fabric, the member's
// host, and the clock-advance function.
func flapFleet(t *testing.T) (*Inventory, *faultinject.Partition, string, func(time.Duration)) {
	t.Helper()
	hs := newCoopd(t)
	part := faultinject.NewPartition()
	now := time.Unix(1_000_000, 0)
	inv := NewInventory(InventoryConfig{
		NewClient:         fastClients(part.Transport(nil)),
		FailAfter:         1,
		Clock:             func() time.Time { return now },
		FlapCount:         2,
		FlapWindow:        time.Hour,
		QuarantineBackoff: 30 * time.Second,
		Logf:              t.Logf,
	})
	if err := inv.Add("a", hs.URL); err != nil {
		t.Fatal(err)
	}
	inv.Poll(context.Background())
	return inv, part, hostOf(t, hs.URL), func(d time.Duration) { now = now.Add(d) }
}

// flap kills and revives the member once: one failed poll (FailAfter 1)
// records the alive->dead transition, the healed poll records
// dead->alive.
func flap(t *testing.T, inv *Inventory, part *faultinject.Partition, host string, advance func(time.Duration)) {
	t.Helper()
	ctx := context.Background()
	part.Isolate(host)
	advance(time.Second)
	inv.Poll(ctx)
	if m, _ := inv.Member("a"); !m.Dead {
		t.Fatal("member not dead after the cut")
	}
	part.Heal(host)
	advance(time.Second)
	inv.Poll(ctx)
}

// TestInventoryFlapQuarantineEscalationAndForgiveness walks the flap
// detector's whole state machine: two transitions inside the window
// quarantine the member (revived but not a placement target), flapping
// during the quarantine doubles the backoff, and a clean window after
// re-admission forgives the escalation.
func TestInventoryFlapQuarantineEscalationAndForgiveness(t *testing.T) {
	ctx := context.Background()
	inv, part, host, advance := flapFleet(t)

	// One die/revive cycle = 2 transitions = FlapCount: quarantined.
	flap(t, inv, part, host, advance)
	m, _ := inv.Member("a")
	if !m.Quarantined || m.Quarantines != 1 {
		t.Fatalf("after first flap cycle: %+v, want quarantine #1", m)
	}
	if m.Healthy() {
		t.Fatal("quarantined member reports healthy (it must not be a placement target)")
	}
	if !m.Alive() {
		t.Fatal("quarantined-but-answering member reports not alive (stale cleanup needs it)")
	}
	if got, want := m.QuarantineUntil.Sub(inv.cfg.Clock()), 30*time.Second; got != want {
		t.Fatalf("first backoff %v, want %v", got, want)
	}

	// Polls inside the backoff keep it benched.
	advance(10 * time.Second)
	inv.Poll(ctx)
	if m, _ = inv.Member("a"); !m.Quarantined {
		t.Fatal("member re-admitted before the backoff expired")
	}

	// Still flapping during quarantine: the next trigger doubles the
	// backoff.
	flap(t, inv, part, host, advance)
	m, _ = inv.Member("a")
	if !m.Quarantined || m.Quarantines != 2 {
		t.Fatalf("after flapping during quarantine: %+v, want quarantine #2", m)
	}
	if got, want := m.QuarantineUntil.Sub(inv.cfg.Clock()), 60*time.Second; got != want {
		t.Fatalf("escalated backoff %v, want doubled %v", got, want)
	}

	// A quiet backoff: the next successful poll past the deadline
	// re-admits, and the clean window resets the escalation counter.
	advance(61 * time.Second)
	inv.Poll(ctx)
	m, _ = inv.Member("a")
	if m.Quarantined || !m.Healthy() {
		t.Fatalf("member not re-admitted after the backoff: %+v", m)
	}
	if m.Quarantines != 0 {
		t.Fatalf("escalation not forgiven after a clean window: quarantines=%d", m.Quarantines)
	}
}

// TestInventoryQuarantineDisabled: FlapCount < 0 turns the detector off
// — the A/B regression knob — so even a rapid flapper is never benched.
func TestInventoryQuarantineDisabled(t *testing.T) {
	hs := newCoopd(t)
	part := faultinject.NewPartition()
	inv := NewInventory(InventoryConfig{
		NewClient: fastClients(part.Transport(nil)),
		FailAfter: 1,
		FlapCount: -1,
	})
	if err := inv.Add("a", hs.URL); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	inv.Poll(ctx)
	host := hostOf(t, hs.URL)
	for i := 0; i < 4; i++ {
		part.Isolate(host)
		inv.Poll(ctx)
		part.Heal(host)
		inv.Poll(ctx)
	}
	if m, _ := inv.Member("a"); m.Quarantined || !m.Healthy() {
		t.Fatalf("detector disabled but member benched: %+v", m)
	}
}

// gateRT parks the first request made while gated (releasing it later
// completes it against the real transport) and fails every subsequent
// gated request immediately — the partition-flap race in miniature: a
// poll's response is in flight while a newer poll fails.
type gateRT struct {
	mu      sync.Mutex
	gated   bool
	parked  bool
	started chan struct{}
	release chan struct{}
}

func (g *gateRT) RoundTrip(req *http.Request) (*http.Response, error) {
	g.mu.Lock()
	if g.gated {
		if !g.parked {
			g.parked = true
			g.mu.Unlock()
			close(g.started)
			<-g.release
			return http.DefaultTransport.RoundTrip(req)
		}
		g.mu.Unlock()
		return nil, errors.New("injected: partitioned")
	}
	g.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// TestInventoryPollRaceStaleSuccess: poll A's response hangs in flight;
// poll B starts, fails, and declares the member dead. When A's stale
// success finally lands it must be discarded — applying it would reset
// the failure count B just recorded and flip a dead member healthy on
// the strength of pre-partition data.
func TestInventoryPollRaceStaleSuccess(t *testing.T) {
	ctx := context.Background()
	hs := newCoopd(t)
	g := &gateRT{started: make(chan struct{}), release: make(chan struct{})}
	inv := NewInventory(InventoryConfig{
		NewClient: fastClients(g),
		FailAfter: 1,
		Logf:      t.Logf,
	})
	if err := inv.Add("a", hs.URL); err != nil {
		t.Fatal(err)
	}
	inv.Poll(ctx)
	if m, _ := inv.Member("a"); !m.Healthy() {
		t.Fatal("member not healthy on a clean network")
	}

	// Poll A parks mid-flight on its first request.
	g.mu.Lock()
	g.gated = true
	g.mu.Unlock()
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		inv.Poll(ctx)
	}()
	<-g.started

	// Poll B runs while A is parked: its request fails immediately and
	// the member is declared dead.
	inv.Poll(ctx)
	if m, _ := inv.Member("a"); !m.Dead || m.Failures != 1 {
		t.Fatalf("after the failed poll: dead=%v failures=%d, want dead", m.Dead, m.Failures)
	}

	// Release A; its remaining requests pass through, so its poll
	// SUCCEEDS — with data from before the failure. The sequence guard
	// must drop it.
	g.mu.Lock()
	g.gated = false
	g.mu.Unlock()
	close(g.release)
	<-aDone
	if m, _ := inv.Member("a"); !m.Dead || m.Failures != 1 {
		t.Fatalf("stale in-flight success resurrected the member: dead=%v failures=%d", m.Dead, m.Failures)
	}

	// A genuinely fresh poll revives it.
	inv.Poll(ctx)
	if m, _ := inv.Member("a"); !m.Healthy() {
		t.Fatal("member not revived by a fresh poll")
	}
}

// TestSetDrainingDeadMember: draining a dead member is a typed error
// (its apps are already evacuating as machine-lost); undraining one is
// allowed and clears the flag for its revival.
func TestSetDrainingDeadMember(t *testing.T) {
	ctx := context.Background()
	hs := newCoopd(t)
	part := faultinject.NewPartition()
	inv := NewInventory(InventoryConfig{
		NewClient: fastClients(part.Transport(nil)),
		FailAfter: 1,
	})
	if err := inv.Add("a", hs.URL); err != nil {
		t.Fatal(err)
	}
	inv.Poll(ctx)
	part.Isolate(hostOf(t, hs.URL))
	inv.Poll(ctx)
	if m, _ := inv.Member("a"); !m.Dead {
		t.Fatal("member not dead after the cut")
	}
	if err := inv.SetDraining("a", true); !errors.Is(err, ErrMemberDead) {
		t.Fatalf("draining a dead member: got %v, want ErrMemberDead", err)
	}
	if err := inv.SetDraining("a", false); err != nil {
		t.Fatalf("undraining a dead member: %v", err)
	}
}

// TestInventoryAddValidation: duplicate IDs and empty members are
// rejected.
func TestInventoryAddValidation(t *testing.T) {
	inv := NewInventory(InventoryConfig{})
	if err := inv.Add("", "http://x"); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := inv.Add("a"); err == nil {
		t.Fatal("member without endpoints accepted")
	}
	if err := inv.Add("a", "http://x"); err != nil {
		t.Fatal(err)
	}
	if err := inv.Add("a", "http://y"); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if err := inv.SetDraining("a", true); err != nil {
		t.Fatalf("SetDraining failed for a known member: %v", err)
	}
	if err := inv.SetDraining("ghost", true); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("SetDraining on an unknown member: got %v, want ErrUnknownMember", err)
	}
}

// TestSnapshotCopiesOnlyChangedRows: a decision after one register on an
// N-member fleet copies one snapshot row into its pooled session — the
// member the register changed — and rebuilds that member's candidate
// only.
func TestSnapshotCopiesOnlyChangedRows(t *testing.T) {
	ctx := context.Background()
	const n = 16
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%02d", i)
	}
	w := newPollWorld(t, ids...)
	w.inv.Poll(ctx)
	pl, _ := planners(t, w.inv, ServerConfig{})
	if _, err := pl.Decide(memSpec("warm-up")); err != nil {
		t.Fatal(err)
	}
	before := w.inv.Candidates()
	if _, err := w.inv.register(ctx, "m03", memSpec("web-1"), 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Decide(memSpec("web-2")); err != nil {
		t.Fatal(err)
	}
	after := w.inv.Candidates()
	got := CandidateMetrics{
		Reused:     after.Reused - before.Reused,
		Rebuilt:    after.Rebuilt - before.Rebuilt,
		RowsCopied: after.RowsCopied - before.RowsCopied,
	}
	if want := (CandidateMetrics{Reused: n - 1, Rebuilt: 1, RowsCopied: 1}); got != want {
		t.Fatalf("decision after one register on %d members: %+v, want %+v", n, got, want)
	}
}

// TestSnapshotRowsOfUnpolledMembers: members no poll has reached yet
// still carry a record version of their own, so a pooled row copied
// from one inventory's member is not taken for another inventory's
// member of the same ID, and a second copy from the same inventory
// writes nothing.
func TestSnapshotRowsOfUnpolledMembers(t *testing.T) {
	a, b := NewInventory(InventoryConfig{}), NewInventory(InventoryConfig{})
	if err := a.AddDomain("m", "rack-a", "http://a"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDomain("m", "rack-b", "http://b"); err != nil {
		t.Fatal(err)
	}
	rows, _ := a.snapshotInto(nil)
	rows, copied := b.snapshotInto(rows)
	if want := b.Snapshot(); copied != 1 || !sameMember(rows[0], want[0]) {
		t.Fatalf("row after b's copy (%d written): %+v, want %+v", copied, rows[0], want[0])
	}
	if _, copied = b.snapshotInto(rows); copied != 0 {
		t.Fatalf("a second copy of an unchanged inventory wrote %d rows, want 0", copied)
	}
}
