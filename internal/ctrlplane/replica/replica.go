// Package replica makes the control plane highly available: two or
// more coopd instances form a leader/follower group in which the
// leader serves writes and streams its persistence journal to
// followers, followers serve reads and redirect writes, and a
// lease-based election promotes a follower within one lease TTL of the
// leader going silent.
//
// The design reuses the crash-durability machinery end to end:
//
//   - The persist journal IS the replication stream. Every record the
//     leader's registry commits is also published (via the registry's
//     observer hook) to an in-memory replication log; followers pull
//     suffixes from GET /v1/replicate and commit them through the same
//     Registry.commit that leader requests and crash recovery use. A
//     follower too far behind the retained window gets a full snapshot
//     instead.
//   - The lease is persisted through the registry: every promotion
//     commits an OpPromote record carrying the new fencing epoch, so
//     neither the epoch nor the generation can regress across a crash
//     of any replica.
//   - The registry's monotonic generations act as fencing tokens. A
//     promotion bumps the generation, every response is stamped with
//     X-Coop-Epoch, and multi-endpoint clients reject any response
//     whose (epoch, generation) regresses — a deposed leader that kept
//     serving through a partition is ignored, not believed.
//
// Split-brain during a partition is tolerated, not prevented (there is
// no quorum with two nodes): the deposed leader's writes are fenced off
// by epoch at the clients, and on heal the deposed leader observes the
// higher epoch, steps down, and resyncs from a snapshot.
package replica

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/httpapi"
)

// Role is a replica's position in the group.
type Role int32

const (
	// RoleFollower serves reads from replicated state and redirects
	// writes to the leader.
	RoleFollower Role = iota
	// RoleLeader serves everything and publishes the journal.
	RoleLeader
)

// String implements fmt.Stringer.
func (r Role) String() string {
	if r == RoleLeader {
		return "leader"
	}
	return "follower"
}

// Config tunes a replica Node.
type Config struct {
	// Self is this replica's advertised base URL (how peers and
	// clients reach it), e.g. "http://10.0.0.1:8377". Required.
	Self string
	// Peers are the other replicas' advertised URLs.
	Peers []string
	// Server is the wrapped control plane. Required, and it must have
	// a persist store attached — the lease and the replication stream
	// both live in the journal.
	Server *ctrlplane.Server
	// LeaseTTL is how long the leader may go silent before a follower
	// campaigns (default 2s).
	LeaseTTL time.Duration
	// PullInterval is the follower's replication poll period — the
	// replication lag bound (default LeaseTTL/8).
	PullInterval time.Duration
	// Bootstrap starts this node as the leader of a fresh group.
	// Exactly one replica bootstraps; the rest join as followers.
	Bootstrap bool
	// LeaderHint seeds a follower's view of the current leader
	// (coopd's -replica-of); discovery via peers fills it otherwise.
	LeaderHint string
	// Clock is the time source (nil: time.Now), injectable for tests.
	Clock func() time.Time
	// Transport is the peer-HTTP transport (nil: default). Fault
	// injection (e.g. faultinject.Partition) hooks in here.
	Transport http.RoundTripper
	// Logf, when set, receives role-transition and resync log lines.
	Logf func(format string, args ...any)
}

// Node is one replica: a ctrlplane.Server plus the replication state
// machine. Mount Handler instead of the server's own handler, and call
// Start/Close around the server's lifetime.
type Node struct {
	cfg Config
	reg *ctrlplane.Registry
	log *replLog
	hc  *http.Client

	mu          sync.Mutex
	role        Role
	epoch       uint64
	leader      string // advertised URL of the current leader ("" unknown)
	leaseUntil  time.Time
	lastPull    time.Time
	streamEpoch uint64 // epoch of the stream lastApplied belongs to
	lastApplied uint64 // last replication seq applied (follower)
	promotions  uint64
	stagger     time.Duration

	started bool
	stop    chan struct{}
	done    chan struct{}
}

// NewNode validates the configuration and builds the replica. The
// bootstrap node promotes itself immediately (journaling epoch
// restored+1); joiners start as followers and resync on first pull.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Server == nil {
		return nil, errors.New("replica: no server configured")
	}
	if !cfg.Server.Registry().HasStore() {
		return nil, errors.New("replica: server has no persist store (HA needs -state-dir: the lease and the replication stream live in the journal)")
	}
	if cfg.Self == "" {
		return nil, errors.New("replica: no advertised self URL configured")
	}
	if _, err := url.Parse(cfg.Self); err != nil {
		return nil, fmt.Errorf("replica: bad self URL: %w", err)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Second
	}
	if cfg.PullInterval <= 0 {
		cfg.PullInterval = cfg.LeaseTTL / 8
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	n := &Node{
		cfg:  cfg,
		reg:  cfg.Server.Registry(),
		log:  newReplLog(),
		hc:   &http.Client{Transport: cfg.Transport, Timeout: cfg.LeaseTTL / 2},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	// Promotion stagger: survivors campaign in a deterministic order
	// (rank among the sorted member URLs) so simultaneous lease expiry
	// does not produce simultaneous equal-epoch leaders.
	members := append([]string{cfg.Self}, cfg.Peers...)
	sort.Strings(members)
	for i, m := range members {
		if m == cfg.Self {
			n.stagger = time.Duration(i) * 2 * cfg.PullInterval
		}
	}
	n.epoch = n.reg.Epoch() // never campaign below a persisted epoch
	now := cfg.Clock()
	if cfg.Bootstrap {
		n.promoteLocked("bootstrap")
	} else {
		n.role = RoleFollower
		n.leader = cfg.LeaderHint
		if n.leader == "" && len(cfg.Peers) > 0 {
			n.leader = cfg.Peers[0]
		}
		n.leaseUntil = now.Add(cfg.LeaseTTL)
		n.reg.SetSweepsEnabled(false)
	}
	return n, nil
}

// Start launches the replication loop (leader: peer scans; follower:
// journal pulls and, on lease expiry, a campaign).
func (n *Node) Start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()
	go n.run()
}

// Close stops the replication loop. The wrapped server and store are
// the caller's to close, in that order, afterwards.
func (n *Node) Close() {
	n.mu.Lock()
	started := n.started
	n.started = false
	n.mu.Unlock()
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	if started {
		<-n.done
	}
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Epoch returns the node's current fencing epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Leader returns the node's view of the current leader's URL.
func (n *Node) Leader() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader
}

// Promotions counts this node's follower-to-leader transitions.
func (n *Node) Promotions() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.promotions
}

// run is the replication loop. One goroutine owns all role
// transitions; HTTP exchanges happen outside the node lock.
func (n *Node) run() {
	defer close(n.done)
	tick := time.NewTicker(n.cfg.PullInterval)
	defer tick.Stop()
	var lastScan time.Time
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
		}
		now := n.cfg.Clock()
		switch n.Role() {
		case RoleLeader:
			// The leader scans its peers for a higher epoch every
			// LeaseTTL/4.
			if now.Sub(lastScan) >= n.cfg.LeaseTTL/4 {
				lastScan = now
				n.scanPeers()
			}
		case RoleFollower:
			n.pull(now)
		}
	}
}

// promoteLocked is the follower->leader transition (mu must be held or
// the node not yet shared). It bumps the epoch, re-enables and re-arms
// TTL eviction, restarts the replication log, and journals the promote
// record — which also bumps the generation clients fence by.
func (n *Node) promoteLocked(why string) {
	n.epoch++
	n.role = RoleLeader
	n.leader = n.cfg.Self
	n.leaseUntil = n.cfg.Clock().Add(n.cfg.LeaseTTL)
	n.promotions++
	n.log.reset(n.epoch)
	n.reg.SetSweepsEnabled(true)
	n.reg.RearmTTLs()
	// Publish every record committed from here on. Installing the
	// observer (again) is idempotent; followers run with it installed
	// too, so the records they mirror feed the log they would serve
	// from if promoted — reset above discards the stale prefix.
	n.reg.SetObserver(n.log.append)
	gen := n.reg.Promote(n.epoch)
	n.cfg.Logf("replica: %s promoted to leader (epoch %d, generation %d, %s)", n.cfg.Self, n.epoch, gen, why)
}

// stepDownLocked adopts another replica's leadership (mu must be
// held). The local stream cursor resets so the next pull resyncs from
// a snapshot — any state diverged during a partition is overwritten.
func (n *Node) stepDownLocked(leader string, epoch uint64) {
	if n.role == RoleLeader {
		n.cfg.Logf("replica: %s stepping down (epoch %d -> %d, leader %s)", n.cfg.Self, n.epoch, epoch, leader)
	}
	n.role = RoleFollower
	n.leader = leader
	if epoch > n.epoch {
		n.epoch = epoch
	}
	n.leaseUntil = n.cfg.Clock().Add(n.cfg.LeaseTTL)
	n.streamEpoch = 0 // forces a snapshot resync
	n.lastApplied = 0
	n.reg.SetSweepsEnabled(false)
}

// scanPeers is the leader's renewal duty: ask every peer for its
// status and step down if any reports a higher epoch (we were deposed
// during a partition) or an equal-epoch leader with a smaller URL (the
// deterministic tie-break).
func (n *Node) scanPeers() {
	for _, peer := range n.cfg.Peers {
		st, err := n.peerStatus(peer)
		if err != nil {
			continue
		}
		n.mu.Lock()
		if n.role == RoleLeader {
			switch {
			case st.Epoch > n.epoch && st.Leader != "" && st.Leader != n.cfg.Self:
				n.stepDownLocked(st.Leader, st.Epoch)
			case st.Epoch == n.epoch && st.Role == RoleLeader.String() && st.Self < n.cfg.Self:
				n.stepDownLocked(st.Self, st.Epoch)
			default:
				n.leaseUntil = n.cfg.Clock().Add(n.cfg.LeaseTTL)
			}
		}
		n.mu.Unlock()
	}
}

// pull is one follower replication step: fetch the journal suffix (or
// a snapshot) from the leader, apply it, and renew the lease. A silent
// leader past the lease TTL (plus this node's promotion stagger)
// triggers a campaign.
func (n *Node) pull(now time.Time) {
	n.mu.Lock()
	leader := n.leader
	cursor, streamEpoch := n.lastApplied, n.streamEpoch
	expired := now.After(n.leaseUntil.Add(n.stagger))
	myEpoch := n.epoch
	n.mu.Unlock()

	if leader == "" || leader == n.cfg.Self {
		n.discoverLeader()
		n.mu.Lock()
		leader = n.leader
		n.mu.Unlock()
	}

	var resp *PullResponse
	var err error
	if leader != "" && leader != n.cfg.Self {
		resp, err = n.fetchJournal(leader, cursor, streamEpoch)
	} else {
		err = errors.New("replica: no known leader")
	}
	if err != nil {
		var ae *httpapi.APIError
		if errors.As(err, &ae) && ae.Code == httpapi.ErrCodeNotLeader && ae.Leader != "" && ae.Leader != n.cfg.Self {
			// The replica we were following stepped down; chase its hint.
			n.mu.Lock()
			n.leader = ae.Leader
			n.mu.Unlock()
		}
		if expired {
			n.mu.Lock()
			// Re-check under the lock: an announce may have landed since.
			promoted := false
			if n.role == RoleFollower && n.cfg.Clock().After(n.leaseUntil.Add(n.stagger)) {
				n.promoteLocked(fmt.Sprintf("lease expired (leader %s silent > %s)", leader, n.cfg.LeaseTTL))
				promoted = true
			}
			n.mu.Unlock()
			if promoted {
				n.announce()
			}
		}
		return
	}
	if resp.Epoch < myEpoch {
		// A stale leader (pre-partition epoch) is not a leader. Forget it
		// and let discovery or the lease decide.
		n.mu.Lock()
		if n.leader == leader {
			n.leader = ""
		}
		n.mu.Unlock()
		return
	}

	// Apply outside the node lock; the registry has its own.
	if resp.Snapshot != nil {
		snap := *resp.Snapshot
		if err := n.reg.ResetFromSnapshot(snap); err != nil {
			n.cfg.Logf("replica: %s snapshot resync from %s failed: %v", n.cfg.Self, leader, err)
			return
		}
		n.cfg.Logf("replica: %s resynced from snapshot (%d apps, generation %d, epoch %d)",
			n.cfg.Self, len(snap.Apps), snap.Generation, resp.Epoch)
	} else {
		for _, rec := range resp.Records {
			if err := n.reg.ApplyRecord(rec); err != nil {
				n.cfg.Logf("replica: %s applying replicated record: %v", n.cfg.Self, err)
				return
			}
		}
	}
	n.mu.Lock()
	n.leader = resp.Leader
	if resp.Epoch > n.epoch {
		n.epoch = resp.Epoch
	}
	n.streamEpoch = resp.Epoch
	if resp.NextSeq > 0 {
		n.lastApplied = resp.NextSeq - 1
	}
	n.lastPull = n.cfg.Clock()
	n.leaseUntil = n.lastPull.Add(n.cfg.LeaseTTL)
	n.mu.Unlock()
}

// discoverLeader asks every peer who it thinks leads and adopts the
// highest-epoch answer.
func (n *Node) discoverLeader() {
	var bestLeader string
	var bestEpoch uint64
	for _, peer := range n.cfg.Peers {
		st, err := n.peerStatus(peer)
		if err != nil || st.Leader == "" {
			continue
		}
		if st.Epoch >= bestEpoch {
			bestEpoch, bestLeader = st.Epoch, st.Leader
		}
	}
	if bestLeader == "" || bestLeader == n.cfg.Self {
		return
	}
	n.mu.Lock()
	if n.role == RoleFollower && bestEpoch >= n.epoch {
		n.leader = bestLeader
		if bestEpoch > n.epoch {
			n.epoch = bestEpoch
		}
	}
	n.mu.Unlock()
}

// announce tells every peer about this node's leadership claim; a peer
// answering with a higher (or tie-winning) claim deposes us again.
func (n *Node) announce() {
	n.mu.Lock()
	epoch, self := n.epoch, n.cfg.Self
	isLeader := n.role == RoleLeader
	n.mu.Unlock()
	if !isLeader {
		return
	}
	for _, peer := range n.cfg.Peers {
		resp, err := n.postAnnounce(peer, announceRequest{Leader: self, Epoch: epoch})
		if err != nil || resp.Accepted {
			continue
		}
		n.mu.Lock()
		if n.role == RoleLeader &&
			(resp.Epoch > n.epoch || (resp.Epoch == n.epoch && resp.Leader != "" && resp.Leader < n.cfg.Self)) {
			n.stepDownLocked(resp.Leader, resp.Epoch)
		}
		n.mu.Unlock()
	}
}

// --- peer HTTP ---

// peerDo makes one exchange with a peer replica, bounded by the peer
// client's timeout; a non-2xx reply is an *httpapi.APIError.
func (n *Node) peerDo(method, base, path string, in, out any) error {
	_, err := httpapi.Call(context.Background(), n.hc, method, strings.TrimRight(base, "/")+path, "", in, out)
	return err
}

func (n *Node) peerStatus(base string) (*ctrlplane.ReplicaStatusResponse, error) {
	var st ctrlplane.ReplicaStatusResponse
	if err := n.peerDo(http.MethodGet, base, "/v1/replica/status", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (n *Node) fetchJournal(base string, cursor, streamEpoch uint64) (*PullResponse, error) {
	var pr PullResponse
	path := fmt.Sprintf("/v1/replicate?after=%d&epoch=%d", cursor, streamEpoch)
	if err := n.peerDo(http.MethodGet, base, path, nil, &pr); err != nil {
		return nil, err
	}
	return &pr, nil
}

func (n *Node) postAnnounce(base string, req announceRequest) (*announceResponse, error) {
	var ar announceResponse
	if err := n.peerDo(http.MethodPost, base, "/v1/replica/announce", req, &ar); err != nil {
		return nil, err
	}
	return &ar, nil
}
