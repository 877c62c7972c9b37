package replica

import (
	"net/http"
	"strconv"
	"strings"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/persist"
	"repro/internal/httpapi"
)

// PullResponse is the GET /v1/replicate body: either a journal suffix
// (Records) or, when the follower's cursor left the retained window or
// the epoch changed, a full Snapshot. NextSeq is the follower's next
// cursor in both cases; records landing between snapshot cut and
// NextSeq are re-pulled and re-applied (applies are idempotent), so
// delivery is at-least-once, never lossy.
type PullResponse struct {
	Epoch    uint64            `json:"epoch"`
	Leader   string            `json:"leader"`
	NextSeq  uint64            `json:"next_seq"`
	Records  []persist.Record  `json:"records,omitempty"`
	Snapshot *persist.Snapshot `json:"snapshot,omitempty"`
}

// announceRequest is a leadership claim pushed to peers on promotion.
type announceRequest struct {
	Leader string `json:"leader"`
	Epoch  uint64 `json:"epoch"`
}

// announceResponse is the peer's verdict; a rejection carries the
// higher (or tie-winning) claim that deposes the announcer.
type announceResponse struct {
	Accepted bool   `json:"accepted"`
	Epoch    uint64 `json:"epoch"`
	Leader   string `json:"leader,omitempty"`
}

// Handler returns the replica-aware HTTP surface: the wrapped server's
// routes plus /v1/replica/status, /v1/replica/announce and
// /v1/replicate. Every response carries X-Coop-Epoch / X-Coop-Role /
// X-Coop-Leader so clients can discover the leader and fence stale
// replicas; mutations on a follower are redirected with 421 +
// not_leader instead of being served.
func (n *Node) Handler() http.Handler {
	// The peer routes are not metered: no surface publishes their
	// windows, and a follower pulls /v1/replicate four times a second.
	own := httpapi.NewRoutes(n.cfg.Clock, 0)
	own.Handle("GET /v1/replica/status", "", n.handleStatus)
	own.Handle("POST /v1/replica/announce", "", n.handleAnnounce)
	own.Handle("GET /v1/replicate", "", n.handleReplicate)
	// The replica's paths go to its own route table whatever the method
	// (so a wrong one is 405 there, not a 404 from the wrapped server);
	// everything else is the wrapped server's, behind the write gate.
	mux := http.NewServeMux()
	mux.Handle("/v1/replica/", own)
	mux.Handle("/v1/replicate", own)
	mux.Handle("/", n.gate(n.cfg.Server.Handler()))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		role, epoch, leader := n.role, n.epoch, n.leader
		n.mu.Unlock()
		h := w.Header()
		h.Set(ctrlplane.HeaderEpoch, strconv.FormatUint(epoch, 10))
		h.Set(ctrlplane.HeaderRole, role.String())
		if leader != "" {
			h.Set(ctrlplane.HeaderLeader, leader)
		}
		mux.ServeHTTP(w, r)
	})
}

// gate redirects mutations away from followers. Reads pass through —
// serving slightly-stale allocations beats serving nothing, and the
// epoch header lets a client that cares insist on the leader.
func (n *Node) gate(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		isWrite := r.Method != http.MethodGet && r.Method != http.MethodHead &&
			strings.HasPrefix(r.URL.Path, "/v1/")
		if isWrite {
			n.mu.Lock()
			role, leader := n.role, n.leader
			n.mu.Unlock()
			if role != RoleLeader {
				writeNotLeader(w, "not the leader; retry against the leader", leader)
				return
			}
		}
		inner.ServeHTTP(w, r)
	})
}

// handleStatus serves one replica's view of the group: role, lease,
// epoch, and replication lag. coopctl status renders it; peers use it
// for leader discovery and deposed-leader detection.
func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	now := n.cfg.Clock()
	n.mu.Lock()
	st := ctrlplane.ReplicaStatusResponse{
		Role:       n.role.String(),
		Self:       n.cfg.Self,
		Leader:     n.leader,
		Epoch:      n.epoch,
		Generation: n.reg.Generation(),
		Promotions: n.promotions,
		Peers:      append([]string(nil), n.cfg.Peers...),
	}
	st.LeaseRemainingMillis = n.leaseUntil.Add(n.stagger).Sub(now).Milliseconds()
	if n.role == RoleLeader {
		st.AppliedSeq = n.log.next() - 1
	} else {
		st.AppliedSeq = n.lastApplied
		if !n.lastPull.IsZero() {
			st.LagMillis = now.Sub(n.lastPull).Milliseconds()
		}
	}
	n.mu.Unlock()
	httpapi.WriteJSON(w, http.StatusOK, st)
}

// handleAnnounce arbitrates a leadership claim. Higher epochs always
// win; equal epochs go to the lexicographically smaller URL so two
// simultaneous promotions resolve deterministically without a third
// party.
func (n *Node) handleAnnounce(w http.ResponseWriter, r *http.Request) {
	var req announceRequest
	if !httpapi.Decode(w, r, &req) {
		return
	}
	if req.Leader == "" {
		httpapi.WriteError(w, http.StatusBadRequest, "announce names no leader")
		return
	}
	n.mu.Lock()
	var resp announceResponse
	switch {
	case req.Epoch > n.epoch:
		n.stepDownLocked(req.Leader, req.Epoch)
		resp = announceResponse{Accepted: true, Epoch: n.epoch, Leader: n.leader}
	case req.Epoch == n.epoch && n.role == RoleLeader:
		if req.Leader < n.cfg.Self {
			n.stepDownLocked(req.Leader, req.Epoch)
			resp = announceResponse{Accepted: true, Epoch: n.epoch, Leader: n.leader}
		} else {
			resp = announceResponse{Accepted: false, Epoch: n.epoch, Leader: n.cfg.Self}
		}
	case req.Epoch == n.epoch:
		// Follower hearing an equal-epoch claim: adopt it (our own view
		// may be the stale one) and renew the lease.
		n.leader = req.Leader
		n.leaseUntil = n.cfg.Clock().Add(n.cfg.LeaseTTL)
		resp = announceResponse{Accepted: true, Epoch: n.epoch, Leader: n.leader}
	default:
		resp = announceResponse{Accepted: false, Epoch: n.epoch, Leader: n.leader}
	}
	n.mu.Unlock()
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// handleReplicate streams the journal to a follower. Only the leader
// publishes; a follower asked to replicate redirects like any other
// misdirected write.
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	role, epoch, leader := n.role, n.epoch, n.leader
	n.mu.Unlock()
	if role != RoleLeader {
		writeNotLeader(w, "not the leader; replicate from the leader", leader)
		return
	}
	q := r.URL.Query()
	after, _ := strconv.ParseUint(q.Get("after"), 10, 64)
	streamEpoch, _ := strconv.ParseUint(q.Get("epoch"), 10, 64)

	resp := PullResponse{Epoch: epoch, Leader: n.cfg.Self}
	recs, nextSeq, ok := n.log.since(after, streamEpoch)
	resp.NextSeq = nextSeq
	if ok {
		resp.Records = recs
	} else {
		// Cursor outside the retained window (or stale epoch): ship a
		// snapshot. nextSeq was captured before the snapshot cut, so any
		// record landing in between is both in the snapshot and re-pulled
		// next time — duplicates, never gaps.
		snap := n.reg.PersistSnapshot()
		resp.Snapshot = &snap
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// writeNotLeader is the 421 redirect a follower answers writes with.
func writeNotLeader(w http.ResponseWriter, msg, leader string) {
	httpapi.WriteJSON(w, http.StatusMisdirectedRequest, httpapi.ErrorResponse{
		Error: msg, Code: httpapi.ErrCodeNotLeader, Leader: leader,
	})
}
