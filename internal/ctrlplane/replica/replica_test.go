package replica_test

// The HA suite runs real replica pairs — two ctrlplane.Servers behind
// net/http on TCP ports, each with its own state dir, joined through
// internal/ctrlplane/replica — and exercises journal streaming, write
// redirects, leader-kill promotion, partition-induced split brain with
// epoch fencing, and the acceptance scenario: the leader dies during a
// heartbeat storm with fault injection active, a follower promotes
// within one lease TTL, no client observes a regressed generation, and
// the survivor still reproduces the paper's 254/140/128 Table I
// ranking.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/ctrlplane/persist"
	"repro/internal/ctrlplane/replica"
	"repro/internal/faultinject"
	"repro/internal/machine"
)

// haOpts shapes one replica for the harness.
type haOpts struct {
	bootstrap   bool
	leaderHint  string
	peers       []string
	transport   http.RoundTripper
	leaseTTL    time.Duration
	pull        time.Duration
	recalibrate bool
	adaptCfg    adapt.Config
}

// haNode is one live replica: server + node + listener, crash-killable.
type haNode struct {
	t     *testing.T
	addr  string
	dir   string
	self  string
	store *persist.Store
	srv   *ctrlplane.Server
	node  *replica.Node
	hs    *http.Server
}

func listenTCP(t *testing.T, addr string) net.Listener {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	for attempt := 0; ; attempt++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if attempt > 50 {
			t.Fatalf("listening on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond) // a killed node's port lingers briefly
	}
}

// startHANode boots one replica on ln. Pass the previous node's dir and
// addr to restart it crash-style (the state dir was never cleanly
// closed).
func startHANode(t *testing.T, dir string, ln net.Listener, o haOpts) *haNode {
	t.Helper()
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("opening state dir: %v", err)
	}
	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{
		Machine:     machine.PaperModel(),
		DefaultTTL:  30 * time.Second,
		Store:       store,
		Recalibrate: o.recalibrate,
		Adapt:       o.adaptCfg,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if o.leaseTTL == 0 {
		o.leaseTTL = 500 * time.Millisecond
	}
	if o.pull == 0 {
		o.pull = 25 * time.Millisecond
	}
	self := "http://" + ln.Addr().String()
	node, err := replica.NewNode(replica.Config{
		Self:         self,
		Peers:        o.peers,
		Server:       srv,
		LeaseTTL:     o.leaseTTL,
		PullInterval: o.pull,
		Bootstrap:    o.bootstrap,
		LeaderHint:   o.leaderHint,
		Transport:    o.transport,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	n := &haNode{
		t: t, addr: ln.Addr().String(), dir: dir, self: self,
		store: store, srv: srv, node: node,
		hs: &http.Server{Handler: node.Handler()},
	}
	go n.hs.Serve(ln)
	srv.Start()
	node.Start()
	t.Cleanup(n.kill)
	return n
}

// kill crashes the replica: connections severed, replication loop
// stopped, store abandoned without a clean close.
func (n *haNode) kill() {
	if n.hs == nil {
		return
	}
	n.hs.Close()
	n.node.Close()
	n.srv.Close()
	n.hs = nil
}

func (n *haNode) url() string { return n.self }

// startPair boots a bootstrap leader and a joining follower.
func startPair(t *testing.T, o haOpts) (leader, follower *haNode) {
	t.Helper()
	lnA, lnB := listenTCP(t, ""), listenTCP(t, "")
	urlA := "http://" + lnA.Addr().String()
	urlB := "http://" + lnB.Addr().String()
	oa, ob := o, o
	oa.bootstrap, oa.peers = true, []string{urlB}
	ob.bootstrap, ob.peers, ob.leaderHint = false, []string{urlA}, urlA
	leader = startHANode(t, t.TempDir(), lnA, oa)
	follower = startHANode(t, t.TempDir(), lnB, ob)
	return leader, follower
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// tableIRequests is the paper's Table I demand mix.
func tableIRequests() []ctrlplane.RegisterRequest {
	return []ctrlplane.RegisterRequest{
		{Name: "mem-a", AI: 0.5},
		{Name: "mem-b", AI: 0.5},
		{Name: "mem-c", AI: 0.5},
		{Name: "comp", AI: 10},
	}
}

// assertTableIRanking checks the reproduced Table I numbers: optimal
// ~254 GFLOPS > even ~140 > node-per-app ~128.
func assertTableIRanking(t *testing.T, resp *ctrlplane.AllocationsResponse, label string) {
	t.Helper()
	if len(resp.Apps) != 4 {
		t.Fatalf("%s: %d apps in allocation, want 4", label, len(resp.Apps))
	}
	if resp.TotalGFLOPS < 250 || resp.TotalGFLOPS > 260 {
		t.Errorf("%s: total = %g GFLOPS, want ~254", label, resp.TotalGFLOPS)
	}
	ref := resp.Reference
	if ref == nil {
		t.Fatalf("%s: no reference baselines", label)
	}
	if ref.EvenGFLOPS < 135 || ref.EvenGFLOPS > 145 {
		t.Errorf("%s: even = %g GFLOPS, want ~140", label, ref.EvenGFLOPS)
	}
	if ref.NodePerAppGFLOPS < 123 || ref.NodePerAppGFLOPS > 133 {
		t.Errorf("%s: node-per-app = %g GFLOPS, want ~128", label, ref.NodePerAppGFLOPS)
	}
	if !(resp.TotalGFLOPS > ref.EvenGFLOPS && ref.EvenGFLOPS > ref.NodePerAppGFLOPS) {
		t.Errorf("%s: ranking broken: %g / %g / %g", label, resp.TotalGFLOPS, ref.EvenGFLOPS, ref.NodePerAppGFLOPS)
	}
}

// TestReplicationStreamAndRedirect: writes land on the leader, stream
// to the follower's registry through /v1/replicate, and the follower
// serves the replicated state on reads while redirecting writes with
// 421 + the leader's URL.
func TestReplicationStreamAndRedirect(t *testing.T) {
	leader, follower := startPair(t, haOpts{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	lc := client.New(leader.url(), client.Config{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	var ids []string
	for _, req := range tableIRequests() {
		resp, err := lc.Register(ctx, req)
		if err != nil {
			t.Fatalf("register on leader: %v", err)
		}
		ids = append(ids, resp.ID)
	}

	// The follower mirrors the registered apps and serves reads.
	fc := client.New(follower.url(), client.Config{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	waitFor(t, 5*time.Second, "follower to mirror 4 apps", func() bool {
		apps, err := fc.State(ctx, ctrlplane.StateQuery{})
		return err == nil && len(apps.Apps) == 4
	})
	alloc, err := fc.Allocations(ctx)
	if err != nil {
		t.Fatalf("allocations from follower: %v", err)
	}
	assertTableIRanking(t, alloc, "follower read")

	// Replicated IDs are the leader's IDs, so an app can fail over
	// without changing identity.
	apps, err := fc.State(ctx, ctrlplane.StateQuery{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, a := range apps.Apps {
		got[a.ID] = true
	}
	for _, id := range ids {
		if !got[id] {
			t.Errorf("follower is missing replicated app %s", id)
		}
	}

	// Writes on the follower are redirected, not served.
	_, err = fc.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: ids[0]})
	if !client.IsNotLeader(err) {
		t.Fatalf("heartbeat on follower: err = %v, want not_leader redirect", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Leader != leader.url() {
		t.Errorf("redirect leader hint = %v, want %s", err, leader.url())
	}

	// Deregisters replicate too (including the journal's evict path).
	if err := lc.Deregister(ctx, ids[3]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "deregister to replicate", func() bool {
		apps, err := fc.State(ctx, ctrlplane.StateQuery{})
		return err == nil && len(apps.Apps) == 3
	})

	// Status reflects the pair's shape.
	st, err := fc.ReplicaStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "follower" || st.Leader != leader.url() || st.Epoch != leader.node.Epoch() {
		t.Errorf("follower status = %+v, want follower of %s at epoch %d", st, leader.url(), leader.node.Epoch())
	}
}

// TestLeaderKillPromotion: killing the leader promotes the follower
// within one lease TTL (plus its campaign stagger), with a higher
// fencing epoch and a bumped generation, and the promoted node accepts
// writes under the replicated IDs without re-registration and serves
// each app's class and move round.
func TestLeaderKillPromotion(t *testing.T) {
	ttl := 500 * time.Millisecond
	leader, follower := startPair(t, haOpts{leaseTTL: ttl})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	lc := client.New(leader.url(), client.Config{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	reg, err := lc.Register(ctx, ctrlplane.RegisterRequest{Name: "survivor", AI: 0.5, Priority: ctrlplane.PriorityLatency, MovedRound: 3})
	if err != nil {
		t.Fatal(err)
	}
	fc := client.New(follower.url(), client.Config{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	waitFor(t, 5*time.Second, "replication of the app", func() bool {
		apps, err := fc.State(ctx, ctrlplane.StateQuery{})
		return err == nil && len(apps.Apps) == 1
	})
	epochBefore := follower.node.Epoch()
	genBefore := reg.Generation

	killedAt := time.Now()
	leader.kill()
	waitFor(t, 5*time.Second, "follower promotion", func() bool {
		return follower.node.Role() == replica.RoleLeader
	})
	promotedIn := time.Since(killedAt)
	// The follower's lease was renewed no later than the kill, so the
	// promotion bound is TTL + stagger + a few poll ticks; 2x TTL gives
	// measurement slack while still failing if the lease logic stalls.
	if promotedIn > 2*ttl {
		t.Errorf("promotion took %v, want within one lease TTL (%v) of the kill", promotedIn, ttl)
	}
	if e := follower.node.Epoch(); e <= epochBefore {
		t.Errorf("epoch after promotion = %d, want > %d", e, epochBefore)
	}
	if p := follower.node.Promotions(); p != 1 {
		t.Errorf("promotions = %d, want 1", p)
	}

	// The promoted leader accepts writes under the replicated ID, and
	// its generation is above everything the old leader served.
	hb, err := fc.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: reg.ID})
	if err != nil {
		t.Fatalf("heartbeat on promoted leader: %v", err)
	}
	if hb.Generation <= genBefore {
		t.Errorf("generation after failover = %d, want > %d (fencing must stay monotonic)", hb.Generation, genBefore)
	}
	if st, err := fc.State(ctx, ctrlplane.StateQuery{}); err != nil || len(st.Apps) != 1 || st.Apps[0].Priority != ctrlplane.PriorityLatency || st.Apps[0].MovedRound != 3 {
		t.Errorf("promoted leader's state: %+v, %v; want survivor in class latency, moved in round 3", st, err)
	}
}

// TestPartitionFencingAndHeal: a partition isolates the leader; the
// follower promotes with a higher epoch (split brain, tolerated). A
// multi-endpoint client that has seen the new epoch fences the stale
// leader's answers instead of believing them, and on heal the deposed
// leader steps down and rejoins as a follower.
func TestPartitionFencingAndHeal(t *testing.T) {
	// Each node gets its own client-edge partition so either side of
	// the link can be cut independently.
	partA, partB := faultinject.NewPartition(), faultinject.NewPartition()
	lnA, lnB := listenTCP(t, ""), listenTCP(t, "")
	urlA := "http://" + lnA.Addr().String()
	urlB := "http://" + lnB.Addr().String()
	ttl := 500 * time.Millisecond
	a := startHANode(t, t.TempDir(), lnA, haOpts{
		bootstrap: true, peers: []string{urlB}, leaseTTL: ttl, transport: partA.Transport(nil),
	})
	b := startHANode(t, t.TempDir(), lnB, haOpts{
		peers: []string{urlA}, leaderHint: urlA, leaseTTL: ttl, transport: partB.Transport(nil),
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	lc := client.New(a.url(), client.Config{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	if _, err := lc.Register(ctx, ctrlplane.RegisterRequest{Name: "fenced", AI: 0.5}); err != nil {
		t.Fatal(err)
	}
	fcB := client.New(b.url(), client.Config{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	waitFor(t, 5*time.Second, "replication before the partition", func() bool {
		apps, err := fcB.State(ctx, ctrlplane.StateQuery{})
		return err == nil && len(apps.Apps) == 1
	})

	// Cut both directions of the A<->B link. A keeps thinking it leads;
	// B's lease expires and it promotes: split brain.
	partA.Isolate(urlB)
	partB.Isolate(urlA)
	waitFor(t, 5*time.Second, "follower promotion during partition", func() bool {
		return b.node.Role() == replica.RoleLeader
	})
	if a.node.Role() != replica.RoleLeader {
		t.Fatalf("partitioned old leader role = %v, want (stale) leader", a.node.Role())
	}
	if b.node.Epoch() <= a.node.Epoch() {
		t.Fatalf("epochs: new %d vs old %d, want new > old", b.node.Epoch(), a.node.Epoch())
	}

	// A group that saw the new epoch refuses the stale leader: cut its
	// link to B so only A answers, and the answer is fenced — refused,
	// never a regressed generation.
	cpart := faultinject.NewPartition()
	ccfg := client.Config{
		HTTPClient:  &http.Client{Transport: cpart.Transport(nil)},
		MaxAttempts: 2, BaseBackoff: time.Millisecond, RequestTimeout: 2 * time.Second,
	}
	g := client.NewGroup(client.New(b.url(), ccfg), client.New(a.url(), ccfg))
	live, err := g.Allocations(ctx)
	if err != nil {
		t.Fatalf("allocations from new leader: %v", err)
	}
	cpart.Isolate(b.url())
	fenced, err := g.Allocations(ctx)
	if !errors.Is(err, client.ErrStaleReplica) || g.Fenced() != 1 {
		t.Fatalf("allocations with only the stale leader reachable: %+v, err %v, %d fenced; want the one answer refused", fenced, err, g.Fenced())
	}
	cpart.Heal(b.url())
	again, err := g.Allocations(ctx)
	if err != nil || again.Generation < live.Generation {
		t.Fatalf("allocations after the heal: %+v, err %v; want generation >= %d", again, err, live.Generation)
	}
	if partA.Drops(urlB)+partB.Drops(urlA) == 0 {
		t.Error("partition never dropped a request; the test partitioned nothing")
	}

	// Heal the replica link: the deposed leader sees the higher epoch
	// and steps down.
	partA.HealAll()
	partB.HealAll()
	waitFor(t, 5*time.Second, "deposed leader to step down", func() bool {
		return a.node.Role() == replica.RoleFollower && a.node.Epoch() == b.node.Epoch()
	})
	st, err := client.New(a.url(), client.Config{}).ReplicaStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "follower" || st.Leader != b.url() {
		t.Errorf("healed old leader status = %+v, want follower of %s", st, b.url())
	}
}

// answerLog is a transport that records every heartbeat answer it
// passes: which endpoint gave it, what the request presented, its
// status and its tag.
type answerLog struct {
	mu      sync.Mutex
	answers []loggedAnswer
}

type loggedAnswer struct {
	host, presented, tag string
	status               int
}

func (l *answerLog) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && req.URL.Path == "/v1/heartbeat" {
		l.mu.Lock()
		l.answers = append(l.answers, loggedAnswer{req.URL.Host, req.Header.Get(ctrlplane.HeaderHeld), resp.Header.Get("ETag"), resp.StatusCode})
		l.mu.Unlock()
	}
	return resp, err
}

// first returns the first heartbeat answer from host that was served, a
// 200 or a 204 (a follower answers 421), and whether there is one.
func (l *answerLog) first(host string) (loggedAnswer, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, a := range l.answers {
		if a.host == host && (a.status == http.StatusOK || a.status == http.StatusNoContent) {
			return a, true
		}
	}
	return loggedAnswer{}, false
}

// stormGroup builds a group over the endpoints whose transport injects
// a seeded fault storm on idempotent paths (register spared — a blind
// retry there would duplicate the app and change the demand mix), over
// log when it is not nil.
func stormGroup(endpoints []string, seed int64, log *answerLog) (*client.Group, *faultinject.Injector) {
	inj := faultinject.NewInjector(faultinject.Seeded(seed, faultinject.Mix{
		Drop:       0.05,
		Latency:    0.20,
		Truncate:   0.05,
		Err5xx:     0.10,
		MaxLatency: 5 * time.Millisecond,
	}))
	ft := &faultinject.Transport{
		Inj:    inj,
		Filter: func(r *http.Request) bool { return r.URL.Path != "/v1/register" },
	}
	if log != nil {
		ft.Base = log
	}
	ccfg := client.Config{
		HTTPClient:     &http.Client{Transport: ft},
		MaxAttempts:    6,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
	}
	clis := make([]*client.Client, len(endpoints))
	for i, e := range endpoints {
		clis[i] = client.New(e, ccfg)
	}
	return client.NewGroup(clis...), inj
}

// seededRand is a deterministic jitter source.
func seededRand(seed int64) func() float64 {
	var mu sync.Mutex
	state := uint64(seed)*2862933555777941757 + 3037000493
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		state = state*2862933555777941757 + 3037000493
		return float64(state>>11) / float64(1<<53)
	}
}

// TestChaosLeaderKillDuringHeartbeatStorm is the acceptance scenario:
// the Table I mix heartbeats both replicas through a fault-injecting
// transport, the leader is killed mid-storm, and afterwards (a) the
// follower was promoted within one lease TTL, (b) no client ever
// observed a regressed generation (epoch fencing), (c) the surviving
// leader still reproduces the 254/140/128 ranking, and (d) the first
// heartbeat the survivor served each client, one that held the dead
// leader's answer through the failover included, was a full answer at
// the survivor's version, never a 204.
func TestChaosLeaderKillDuringHeartbeatStorm(t *testing.T) {
	ttl := 500 * time.Millisecond
	leader, follower := startPair(t, haOpts{leaseTTL: ttl})
	endpoints := []string{leader.url(), follower.url()}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	reqs := tableIRequests()
	apps := make([]*client.Group, len(reqs))
	logs := make([]*answerLog, len(reqs))
	ids := make([]string, len(reqs))
	var inj *faultinject.Injector
	for i, req := range reqs {
		logs[i] = &answerLog{}
		apps[i], inj = stormGroup(endpoints, int64(4000+i), logs[i])
		resp, err := apps[i].Register(ctx, req)
		if err != nil {
			t.Fatalf("register %s: %v", req.Name, err)
		}
		ids[i] = resp.ID
	}
	waitFor(t, 5*time.Second, "replication of the mix", func() bool {
		apps, err := client.New(follower.url(), client.Config{MaxAttempts: 2, BaseBackoff: time.Millisecond}).State(ctx, ctrlplane.StateQuery{})
		return err == nil && len(apps.Apps) == 4
	})

	// The storm: every app heartbeats on an interval jittered over
	// [0.8, 1.2] x 20ms from its own seeded source; the heartbeat path is
	// under fault injection the whole time. maxGen tracks the highest
	// generation each client observed; it must never regress, through
	// faults, failover, or the stale window.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, len(apps))
	maxGens := make([]uint64, len(apps))
	for i := range apps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jitter := seededRand(int64(4000 + i))
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Duration((0.8 + 0.4*jitter()) * float64(20*time.Millisecond))):
				}
				hb, err := apps[i].Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: ids[i], Workers: 4})
				if err != nil {
					// The kill window legitimately produces transient
					// failures (both endpoints briefly unusable while the
					// follower has not promoted yet); only a regression is
					// fatal, errors just retry on the next beat.
					continue
				}
				if hb.Generation < maxGens[i] {
					errs <- errGenRegressed(i, maxGens[i], hb.Generation)
					return
				}
				maxGens[i] = hb.Generation
			}
		}(i)
	}

	// The holder heartbeats the first app twice, holding the leader's
	// answer, and then not again until the follower has been promoted.
	holdLog := &answerLog{}
	hcfg := client.Config{HTTPClient: &http.Client{Transport: holdLog}, MaxAttempts: 1}
	holder := client.NewGroup(client.New(leader.url(), hcfg), client.New(follower.url(), hcfg))
	for beat := 0; beat < 2; beat++ {
		if _, err := holder.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: ids[0]}); err != nil {
			t.Fatalf("holder's heartbeat %d: %v", beat, err)
		}
	}
	if a := holdLog.answers[1]; a.status != http.StatusNoContent || a.presented == "" {
		t.Fatalf("holder's second heartbeat before the kill: %+v, want a 204 to the answer it held", a)
	}

	time.Sleep(300 * time.Millisecond) // let the storm run against the original leader
	killedAt := time.Now()
	leader.kill()
	waitFor(t, 5*time.Second, "promotion mid-storm", func() bool {
		return follower.node.Role() == replica.RoleLeader
	})
	promotedIn := time.Since(killedAt)
	if promotedIn > 2*ttl {
		t.Errorf("promotion took %v, want within one lease TTL (%v) of the kill", promotedIn, ttl)
	}
	if _, err := holder.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: ids[0]}); err != nil {
		t.Fatalf("holder's heartbeat after the promotion: %v", err)
	}
	survivor := strings.TrimPrefix(follower.url(), "http://")
	inc, gen := follower.srv.Registry().Version()
	if a, ok := holdLog.first(survivor); !ok || a.status != http.StatusOK || a.presented == "" || a.tag != ctrlplane.StateETag(inc, gen) {
		t.Errorf("the survivor's first answer to the holder: %+v (%v); want a 200 to the dead leader's tag, tagged %s", a, ok, ctrlplane.StateETag(inc, gen))
	}
	time.Sleep(500 * time.Millisecond) // storm continues against the promoted leader
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Every client failed over and kept beating the survivor.
	for i := range apps {
		if got := apps[i].Client().BaseURL(); got != follower.url() {
			t.Errorf("client %d prefers %s after the leader died, want the survivor %s", i, got, follower.url())
		}
		if a, ok := logs[i].first(survivor); !ok || a.status != http.StatusOK {
			t.Errorf("client %d: the survivor's first heartbeat answer %+v (%v), want a 200", i, a, ok)
		}
		if maxGens[i] == 0 {
			t.Errorf("client %d never landed a heartbeat", i)
		}
	}

	// The survivor serves the full mix with the Table I ranking intact,
	// at a generation above everything the dead leader issued.
	r, _ := stormGroup([]string{follower.url()}, 9999, nil)
	alloc, err := r.Allocations(ctx)
	if err != nil {
		t.Fatalf("allocations from survivor: %v", err)
	}
	assertTableIRanking(t, alloc, "survivor after failover")
	for i := range maxGens {
		if alloc.Generation < maxGens[i] {
			t.Errorf("survivor generation %d below client %d's watermark %d", alloc.Generation, i, maxGens[i])
		}
	}
	if follower.node.Epoch() < 2 {
		t.Errorf("survivor epoch = %d, want >= 2 after promotion", follower.node.Epoch())
	}

	// The storm must actually have stormed.
	counts := inj.Counts()
	injected := counts[faultinject.KindDrop] + counts[faultinject.KindLatency] +
		counts[faultinject.KindTruncate] + counts[faultinject.Kind5xx]
	if injected == 0 {
		t.Error("fault injector never fired; the chaos test ran without chaos")
	}
}

// errGenRegressed formats a generation-regression failure.
func errGenRegressed(i int, from, to uint64) error {
	return fmt.Errorf("client %d observed a generation regression: %d -> %d (fencing broken)", i, from, to)
}
