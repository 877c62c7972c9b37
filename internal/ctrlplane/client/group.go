package client

import (
	"context"
	"errors"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ctrlplane"
	"repro/internal/httpapi"
)

// ErrStaleReplica is a Group call's answer when every endpoint that
// answered was fenced off (see Group).
var ErrStaleReplica = errors.New("ctrlplane: stale replica answer (fenced by epoch/generation)")

// Group reaches one coopd through its endpoints: the one URL of a
// standalone daemon, or one per replica of an HA group. A call asks the
// preferred endpoint (the one whose answer was last taken) first, then
// the next; a 421 not_leader sends it to the leader the 421 names. An
// answer is taken only through the fence: its epoch (the X-Coop-Epoch of
// that same exchange) must not be below the highest the group has seen,
// nor, when equal and non-zero, its generation below the highest seen in
// that epoch. A refused answer came from a deposed leader or a lagging
// follower and counts as none. A standalone coopd answers epoch 0 and is
// never fenced: a restart is a new incarnation, which counts generations
// from 0 again. Safe for concurrent use.
type Group struct {
	clis []*Client

	mu         sync.Mutex
	preferred  int
	epoch, gen uint64 // the fence
	fenced     atomic.Uint64
	// The last State query's path and request header, and the query
	// they present: a poller presents the same query round after round.
	query     ctrlplane.StateQuery
	queryPath string
	queryHdr  http.Header

	// held is each app's last full heartbeat answer, as Client holds it.
	held heldAnswers
}

// NewGroup builds a group over one client per endpoint, at least one.
func NewGroup(clis ...*Client) *Group {
	if len(clis) == 0 {
		panic("client: a group needs at least one endpoint")
	}
	return &Group{clis: clis}
}

// Client returns the preferred endpoint's client.
func (g *Group) Client() *Client {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.clis[g.preferred]
}

// Fenced counts the answers the fence refused.
func (g *Group) Fenced() uint64 { return g.fenced.Load() }

// State is Client.State through the group. A 304 stands for the
// generation the query presented.
func (g *Group) State(ctx context.Context, held ctrlplane.StateQuery) (*ctrlplane.StateResponse, error) {
	g.mu.Lock()
	if g.queryPath == "" || held != g.query {
		g.query = held
		g.queryPath, g.queryHdr = stateRequest(held)
	}
	path, hdr := g.queryPath, g.queryHdr
	g.mu.Unlock()
	out := new(ctrlplane.StateResponse)
	if _, err := g.call(ctx, http.MethodGet, path, hdr, held.Generation, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Register is Client.Register through the group.
func (g *Group) Register(ctx context.Context, req ctrlplane.RegisterRequest) (*ctrlplane.RegisterResponse, error) {
	return httpapi.Typed[ctrlplane.RegisterResponse](ctx, g.do, http.MethodPost, "/v1/register", req)
}

// Deregister is Client.Deregister through the group.
func (g *Group) Deregister(ctx context.Context, id string) error {
	g.held.drop(id)
	return g.do(ctx, http.MethodDelete, "/v1/apps/"+url.PathEscape(id), nil, nil)
}

// Heartbeat is Client.Heartbeat through the group. A 204 stands for the
// held answer's generation.
func (g *Group) Heartbeat(ctx context.Context, req ctrlplane.HeartbeatRequest) (*ctrlplane.HeartbeatResponse, error) {
	e := g.held.get(req.ID)
	var gen uint64
	if e != nil {
		gen = e.resp.Generation
	}
	out := new(ctrlplane.HeartbeatResponse)
	resp, err := g.call(ctx, http.MethodPost, "/v1/heartbeat", e.header(), gen, req, out)
	return g.held.settle(req.ID, e, resp, out, err)
}

// Report is Client.Report through the group.
func (g *Group) Report(ctx context.Context, req ctrlplane.ReportRequest) (*ctrlplane.ReportResponse, error) {
	return httpapi.Typed[ctrlplane.ReportResponse](ctx, g.do, http.MethodPost, "/v1/report", req)
}

// Allocations is Client.Allocations through the group.
func (g *Group) Allocations(ctx context.Context) (*ctrlplane.AllocationsResponse, error) {
	return httpapi.Typed[ctrlplane.AllocationsResponse](ctx, g.do, http.MethodGet, "/v1/allocations", nil)
}

// do is call presenting nothing.
func (g *Group) do(ctx context.Context, method, path string, in, out any) error {
	_, err := g.call(ctx, method, path, nil, 0, in, out)
	return err
}

// call makes one exchange with the group, asking each endpoint at most
// once, and returns the first answer the fence takes, with its header.
// hdr, when not nil, presents what the caller holds, and an answer that
// it stands (ErrNotModified) counts as one at generation held. An API
// error other than not_leader ends the call: that daemon is alive and
// said no.
func (g *Group) call(ctx context.Context, method, path string, hdr http.Header, held uint64, in, out any) (http.Header, error) {
	g.mu.Lock()
	i := g.preferred
	g.mu.Unlock()
	var lastErr error
	for range g.clis {
		resp, err := g.clis[i].exchange(ctx, method, path, hdr, in, out)
		if err == nil || (hdr != nil && errors.Is(err, ErrNotModified)) {
			gen, hasGen := held, true
			if err == nil {
				gen, hasGen = generation(out)
			}
			if g.take(i, epochOf(resp), gen, hasGen) {
				return resp, err
			}
			err = ErrStaleReplica
		} else if ae := (*APIError)(nil); errors.As(err, &ae) { // ae escapes: declared on error paths only
			if ae.Code != ctrlplane.ErrCodeNotLeader {
				return nil, err
			}
			if j := g.index(ae.Leader); j >= 0 && j != i {
				lastErr, i = err, j
				continue
			}
		}
		lastErr = err
		i = (i + 1) % len(g.clis)
	}
	return nil, lastErr
}

// take passes endpoint i's answer at epoch (and generation gen, if
// hasGen) through the fence; a taken answer raises the fence and makes i
// the preferred endpoint.
func (g *Group) take(i int, epoch, gen uint64, hasGen bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case epoch < g.epoch || (epoch == g.epoch && epoch != 0 && hasGen && gen < g.gen):
		g.fenced.Add(1)
		return false
	case epoch > g.epoch:
		g.epoch, g.gen = epoch, gen
	case hasGen:
		g.gen = max(g.gen, gen)
	}
	g.preferred = i
	return true
}

// index returns the position of the endpoint at base URL u, or -1.
func (g *Group) index(u string) int {
	u = strings.TrimRight(u, "/")
	for i, c := range g.clis {
		if c.base == u {
			return i
		}
	}
	return -1
}

// generation reads the registry generation an answer carries, if it
// carries one.
func generation(out any) (uint64, bool) {
	switch v := out.(type) {
	case *ctrlplane.StateResponse:
		return v.Generation, true
	case *ctrlplane.RegisterResponse:
		return v.Generation, true
	case *ctrlplane.HeartbeatResponse:
		return v.Generation, true
	case *ctrlplane.ReportResponse:
		return v.Generation, true
	case *ctrlplane.AllocationsResponse:
		return v.Generation, true
	}
	return 0, false
}
