package client

import (
	"context"
	"encoding/json"
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

func newEndpointsResilient(t *testing.T, urls []string, rcfg ResilientConfig) *Resilient {
	t.Helper()
	r, err := NewResilientEndpoints(urls, Config{MaxAttempts: 1, BaseBackoff: time.Millisecond}, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFailoverOnDeadEndpoint: the preferred endpoint is dead; the call
// transparently lands on the next one and it becomes preferred.
func TestFailoverOnDeadEndpoint(t *testing.T) {
	live := &replicaStub{epoch: 1, gen: 5}
	urls := endpointsFixture(t, live)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // port now refuses connections
	r := newEndpointsResilient(t, []string{dead.URL, urls[0]}, ResilientConfig{})

	resp, src, err := r.Allocations(context.Background())
	if err != nil || src != SourceLive {
		t.Fatalf("allocations: src %v, err %v", src, err)
	}
	if resp.Generation != 5 {
		t.Errorf("generation = %d, want 5", resp.Generation)
	}
	if r.Failovers() != 1 {
		t.Errorf("failovers = %d, want 1", r.Failovers())
	}
	if got := r.Client().BaseURL(); got != urls[0] {
		t.Errorf("preferred endpoint = %s, want the live one %s", got, urls[0])
	}
	// Subsequent calls go straight to the adopted endpoint.
	before := live.hits
	if _, _, err := r.Allocations(context.Background()); err != nil {
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

	r := newEndpointsResilient(t, []string{followerURLs[0], leaderURLs[0]}, ResilientConfig{})
	resp, src, err := r.Allocations(context.Background())
	if err != nil || src != SourceLive {
		t.Fatalf("allocations: src %v, err %v", src, err)
	}
	if resp.Generation != 9 {
		t.Errorf("generation = %d, want the leader's 9", resp.Generation)
	}
	if follower.hits != 1 || leader.hits == 0 {
		t.Errorf("hits follower=%d leader=%d, want exactly one redirect then the leader", follower.hits, leader.hits)
	}
	if got := r.Client().BaseURL(); got != leaderURLs[0] {
		t.Errorf("preferred endpoint = %s, want the leader %s", got, leaderURLs[0])
	}
}

// TestFencingRejectsStaleEpoch: once the client has seen epoch 2, an
// endpoint still serving epoch 1 (a deposed leader) is fenced — its
// answer is never served live, even when it is the only one reachable.
func TestFencingRejectsStaleEpoch(t *testing.T) {
	stale := &replicaStub{epoch: 1, gen: 7}
	urls := endpointsFixture(t, stale)
	r := newEndpointsResilient(t, urls, ResilientConfig{})
	// Seed the watermark as if this client had already talked to the
	// epoch-2 leader.
	if r.fence(2, 20, true) {
		t.Fatal("seeding the watermark should not read as stale")
	}

	got, src, err := r.Allocations(context.Background())
	if src == SourceLive {
		t.Fatalf("stale replica's answer served live through the fence (gen %d)", got.Generation)
	}
	// With no cache and no topology there is nothing to degrade to, so
	// an error is the correct outcome — a served regression is not.
	if err == nil && got.Generation < 20 {
		t.Errorf("generation regressed: served %d after watermark 20", got.Generation)
	}
	if stale.hits == 0 {
		t.Error("stale endpoint was never consulted; the fence was not exercised")
	}
}

// TestFencingDegradesToCache: with a table cached from the new epoch, a
// stale-only outage degrades to the cache instead of erroring or
// regressing.
func TestFencingDegradesToCache(t *testing.T) {
	fresh := &replicaStub{epoch: 2, gen: 20}
	stale := &replicaStub{epoch: 1, gen: 7}
	freshURLs := endpointsFixture(t, fresh)
	staleURLs := endpointsFixture(t, stale)
	r := newEndpointsResilient(t, []string{freshURLs[0], staleURLs[0]}, ResilientConfig{})

	if _, src, err := r.Allocations(context.Background()); err != nil || src != SourceLive {
		t.Fatalf("first read: src %v, err %v", src, err)
	}
	// The new leader is deposed in spirit: it now redirects to the stale
	// replica, whose epoch-1 answers the fence discards.
	fresh.leader = staleURLs[0]
	fresh.epoch = 1

	resp, src, err := r.Allocations(context.Background())
	if err != nil {
		t.Fatalf("read during stale-only outage: %v", err)
	}
	if src != SourceCached {
		t.Errorf("source = %v, want cached (fenced live answer discarded)", src)
	}
	if resp.Generation != 20 {
		t.Errorf("generation = %d, want the cached 20", resp.Generation)
	}
}

// TestNextHeartbeatInJitter: intervals are uniformly spread over
// [1-j, 1+j] x nominal, deterministic under a seeded source, with an
// extra one-shot splay after a failover.
func TestNextHeartbeatInJitter(t *testing.T) {
	seq := []float64{0, 0.5, 1, 0.25}
	i := 0
	rnd := func() float64 { v := seq[i%len(seq)]; i++; return v }
	r, err := NewResilient(New("http://127.0.0.1:1", Config{}), ResilientConfig{Rand: rnd})
	if err != nil {
		t.Fatal(err)
	}
	interval := time.Second
	// rnd=0 -> 0.8x, rnd=0.5 -> 1.0x, rnd=1 -> 1.2x
	for _, want := range []time.Duration{800 * time.Millisecond, time.Second, 1200 * time.Millisecond} {
		if got := r.NextHeartbeatIn(interval); got != want {
			t.Errorf("NextHeartbeatIn = %v, want %v", got, want)
		}
	}
	// A failover arms the desync splay: one extra draw is added once.
	r.adopt(0)
	r.mu.Lock()
	r.desync = true
	r.mu.Unlock()
	i = 0 // draws: 0 -> 0.8x, then splay draw 0.5 -> +0.1x
	if got, want := r.NextHeartbeatIn(interval), 900*time.Millisecond; got != want {
		t.Errorf("post-failover NextHeartbeatIn = %v, want %v (base + splay)", got, want)
	}
	i = 0
	if got, want := r.NextHeartbeatIn(interval), 800*time.Millisecond; got != want {
		t.Errorf("second post-failover NextHeartbeatIn = %v, want %v (splay is one-shot)", got, want)
	}
}
