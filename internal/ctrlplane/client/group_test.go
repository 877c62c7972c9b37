package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/ctrlplane"
)

// replicaStub is a scriptable fake replica: it stamps the X-Coop-*
// headers and either serves allocations or redirects like a follower.
type replicaStub struct {
	epoch  uint64
	gen    uint64
	leader string // "" = serve; otherwise 421-redirect there
	hits   int
}

func (s *replicaStub) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.hits++
		w.Header().Set(ctrlplane.HeaderEpoch, strconv.FormatUint(s.epoch, 10))
		if s.leader != "" {
			w.Header().Set(ctrlplane.HeaderRole, "follower")
			w.Header().Set(ctrlplane.HeaderLeader, s.leader)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusMisdirectedRequest)
			json.NewEncoder(w).Encode(ctrlplane.ErrorResponse{
				Error: "not the leader", Code: ctrlplane.ErrCodeNotLeader, Leader: s.leader,
			})
			return
		}
		w.Header().Set(ctrlplane.HeaderRole, "leader")
		json.NewEncoder(w).Encode(ctrlplane.AllocationsResponse{
			Generation: s.gen,
			Machine:    "stub",
			Apps:       []ctrlplane.AppAllocation{{ID: "a-1", PerNode: []int{1}}},
		})
	}
}

func endpointsFixture(t *testing.T, stubs ...*replicaStub) []string {
	t.Helper()
	urls := make([]string, len(stubs))
	for i, s := range stubs {
		hs := httptest.NewServer(s.handler())
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	return urls
}

func newGroup(urls []string) *Group {
	clis := make([]*Client, len(urls))
	for i, u := range urls {
		clis[i] = New(u, Config{MaxAttempts: 1, BaseBackoff: time.Millisecond})
	}
	return NewGroup(clis...)
}

// TestFailoverOnDeadEndpoint: the preferred endpoint is dead; the call
// transparently lands on the next one and it becomes preferred.
func TestFailoverOnDeadEndpoint(t *testing.T) {
	live := &replicaStub{epoch: 1, gen: 5}
	urls := endpointsFixture(t, live)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // port now refuses connections
	g := newGroup([]string{dead.URL, urls[0]})

	resp, err := g.Allocations(context.Background())
	if err != nil {
		t.Fatalf("allocations: %v", err)
	}
	if resp.Generation != 5 {
		t.Errorf("generation = %d, want 5", resp.Generation)
	}
	if got := g.Client().BaseURL(); got != urls[0] {
		t.Errorf("preferred endpoint = %s, want the live one %s", got, urls[0])
	}
	// Subsequent calls go straight to the adopted endpoint.
	before := live.hits
	if _, err := g.Allocations(context.Background()); err != nil {
		t.Fatal(err)
	}
	if live.hits != before+1 {
		t.Errorf("live hits = %d, want %d (no detour through the dead endpoint)", live.hits, before+1)
	}
}

// TestNotLeaderRedirectChasing: a follower's 421 names the leader and
// the call is retried there within the same invocation.
func TestNotLeaderRedirectChasing(t *testing.T) {
	leader := &replicaStub{epoch: 3, gen: 9}
	leaderURLs := endpointsFixture(t, leader)
	follower := &replicaStub{epoch: 3, leader: leaderURLs[0]}
	followerURLs := endpointsFixture(t, follower)

	g := newGroup([]string{followerURLs[0], leaderURLs[0]})
	resp, err := g.Allocations(context.Background())
	if err != nil {
		t.Fatalf("allocations: %v", err)
	}
	if resp.Generation != 9 {
		t.Errorf("generation = %d, want the leader's 9", resp.Generation)
	}
	if follower.hits != 1 || leader.hits == 0 {
		t.Errorf("hits follower=%d leader=%d, want exactly one redirect then the leader", follower.hits, leader.hits)
	}
	if got := g.Client().BaseURL(); got != leaderURLs[0] {
		t.Errorf("preferred endpoint = %s, want the leader %s", got, leaderURLs[0])
	}
}

// TestFencingRejectsStaleEpoch: once the group has seen epoch 2, an
// endpoint still serving epoch 1 (a deposed leader) is fenced — its
// answer is never served, even when it is the only one reachable.
func TestFencingRejectsStaleEpoch(t *testing.T) {
	stale := &replicaStub{epoch: 1, gen: 7}
	urls := endpointsFixture(t, stale)
	g := newGroup(urls)
	// Seed the fence as if this group had already talked to the
	// epoch-2 leader.
	if !g.take(0, 2, 20, true) {
		t.Fatal("seeding the fence should not read as stale")
	}

	got, err := g.Allocations(context.Background())
	if !errors.Is(err, ErrStaleReplica) {
		t.Fatalf("stale replica's answer served through the fence: %+v, err %v", got, err)
	}
	if stale.hits == 0 {
		t.Error("stale endpoint was never consulted; the fence was not exercised")
	}
	if g.Fenced() != 1 {
		t.Errorf("fenced = %d, want 1", g.Fenced())
	}
}

// TestFencingRefusesDeposedLeader: after a read at epoch 2, a group
// whose only answering endpoint serves epoch 1 refuses that answer
// instead of regressing.
func TestFencingRefusesDeposedLeader(t *testing.T) {
	fresh := &replicaStub{epoch: 2, gen: 20}
	stale := &replicaStub{epoch: 1, gen: 7}
	freshURLs := endpointsFixture(t, fresh)
	staleURLs := endpointsFixture(t, stale)
	g := newGroup([]string{freshURLs[0], staleURLs[0]})

	if _, err := g.Allocations(context.Background()); err != nil {
		t.Fatalf("first read: %v", err)
	}
	// The new leader is deposed in spirit: it now redirects to the stale
	// replica, whose epoch-1 answers the fence discards.
	fresh.leader = staleURLs[0]
	fresh.epoch = 1

	resp, err := g.Allocations(context.Background())
	if !errors.Is(err, ErrStaleReplica) {
		t.Fatalf("read during stale-only outage: %+v, err %v; want the fenced answer refused", resp, err)
	}
	if g.epoch != 2 || g.gen != 20 {
		t.Errorf("fence = (%d, %d), want (2, 20) kept", g.epoch, g.gen)
	}
}

// TestFenceRule: the one rule, answer by answer. A lower epoch is
// refused; within one non-zero epoch a lower generation is; a higher
// epoch resets the generation; epoch 0, a standalone daemon, is never
// fenced, so a restart that counts generations from 0 again is taken;
// an answer with no generation is fenced by its epoch alone.
func TestFenceRule(t *testing.T) {
	g := NewGroup(New("http://a", Config{}))
	for i, tc := range []struct {
		epoch, gen uint64
		hasGen     bool
		want       bool
	}{
		{0, 9, true, true},
		{0, 0, true, true}, // standalone restart
		{3, 40, true, true},
		{3, 36, true, false}, // lagging follower
		{3, 0, false, true},  // a deregister's answer
		{3, 41, true, true},
		{2, 50, true, false}, // deposed leader
		{0, 50, true, false},
		{4, 1, true, true}, // new reign
		{4, 1, true, true},
	} {
		if got := g.take(0, tc.epoch, tc.gen, tc.hasGen); got != tc.want {
			t.Errorf("answer %d at (%d, %d): taken %v, want %v", i, tc.epoch, tc.gen, got, tc.want)
		}
	}
	if g.Fenced() != 3 {
		t.Errorf("fenced = %d, want 3", g.Fenced())
	}
}
