package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/machine"
)

// ErrCircuitOpen is returned when every endpoint's breaker refuses a
// call and no degraded answer (cached or locally solved) is available.
var ErrCircuitOpen = errors.New("ctrlplane: circuit breaker open (daemon unreachable)")

// ErrStaleReplica marks a response fenced off because its (epoch,
// generation) regressed below what this client has already seen — the
// answering replica is a deposed leader or a lagging follower.
var ErrStaleReplica = errors.New("ctrlplane: stale replica response (fenced by epoch/generation)")

// Source says where a degraded-capable read was answered from.
type Source int

const (
	// SourceLive: the daemon answered.
	SourceLive Source = iota
	// SourceCached: the daemon is unreachable; this is the last-known-
	// good allocation it served.
	SourceCached
	// SourceLocal: the daemon is unreachable and nothing was cached; a
	// local solver run over the client's own demand produced this.
	SourceLocal
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceLive:
		return "live"
	case SourceCached:
		return "cached"
	case SourceLocal:
		return "local"
	default:
		return "unknown"
	}
}

// ResilientConfig tunes a Resilient client.
type ResilientConfig struct {
	// BreakerThreshold is the consecutive transport-failure count that
	// trips an endpoint's circuit open (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long a circuit stays open before a
	// half-open probe (default 2s).
	BreakerCooldown time.Duration
	// Rand is the jitter source (nil: math/rand); tests inject a seeded
	// function for deterministic schedules.
	Rand func() float64
	// Clock is the breakers' time source (nil: time.Now).
	Clock func() time.Time
}

// endpoint is one replica URL with its own client and circuit breaker:
// one replica being down must not poison calls to the others.
type endpoint struct {
	c  *Client
	br *Breaker
}

// Resilient wraps one or more endpoints with graceful degradation: a
// per-endpoint circuit breaker, leader discovery and transparent
// failover across replicas, epoch/generation fencing of stale replicas,
// the last-known-good allocation, a local solver fallback, and
// automatic re-registration when a heartbeat reports the app unknown
// (evicted, daemon restarted, or a fresh leader promoted without this
// app's latest state).
//
// During an outage Allocations keeps answering — first from another
// replica, then from cache, else from a local roofline solve — instead
// of erroring, so the application never stalls on the control plane.
type Resilient struct {
	eps    []*endpoint
	cfg    ResilientConfig
	solver *ctrlplane.Solver
	rnd    func() float64

	mu          sync.Mutex
	cur         int // preferred endpoint (last known good / leader)
	maxEpoch    uint64
	maxGen      uint64
	failovers   uint64
	desync      bool // one extra heartbeat splay pending after failover
	machine     *machine.Machine
	lastAlloc   *ctrlplane.AllocationsResponse
	localDemand []ctrlplane.RegisterRequest
	id          string
	regReq      ctrlplane.RegisterRequest
	registered  bool
	reRegisters uint64
}

// NewResilient builds the wrapper around one existing Client.
func NewResilient(c *Client, cfg ResilientConfig) (*Resilient, error) {
	return newResilient([]*Client{c}, cfg)
}

// NewResilientEndpoints builds the wrapper over a replica group: one
// client+breaker per URL, calls routed to the leader (discovered via
// not_leader redirects and response headers) with transparent failover
// to the next endpoint when the current one dies.
func NewResilientEndpoints(endpoints []string, ccfg Config, rcfg ResilientConfig) (*Resilient, error) {
	if len(endpoints) == 0 {
		return nil, errors.New("ctrlplane: no endpoints configured")
	}
	clients := make([]*Client, len(endpoints))
	for i, e := range endpoints {
		clients[i] = New(e, ccfg)
	}
	return newResilient(clients, rcfg)
}

func newResilient(clients []*Client, cfg ResilientConfig) (*Resilient, error) {
	if cfg.Rand == nil {
		cfg.Rand = rand.Float64
	}
	// Local fallback solves use the server's default policy.
	solver, err := ctrlplane.NewSolver(ctrlplane.PolicyRoofline)
	if err != nil {
		return nil, err
	}
	r := &Resilient{cfg: cfg, solver: solver, rnd: cfg.Rand}
	for _, c := range clients {
		r.eps = append(r.eps, &endpoint{
			c:  c,
			br: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock),
		})
	}
	return r, nil
}

// Client returns the currently preferred endpoint's plain client.
func (r *Resilient) Client() *Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eps[r.cur].c
}

// Endpoints returns the configured endpoint URLs in order.
func (r *Resilient) Endpoints() []string {
	urls := make([]string, len(r.eps))
	for i, ep := range r.eps {
		urls[i] = ep.c.BaseURL()
	}
	return urls
}

// BreakerState exposes the preferred endpoint's circuit position.
func (r *Resilient) BreakerState() BreakerState {
	r.mu.Lock()
	ep := r.eps[r.cur]
	r.mu.Unlock()
	return ep.br.State()
}

// Failovers counts preferred-endpoint switches (leader changes and
// dead-endpoint evictions).
func (r *Resilient) Failovers() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failovers
}

// Epoch returns the highest fencing epoch observed across endpoints (0
// against standalone servers).
func (r *Resilient) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.maxEpoch
}

// ID returns the app's current registration ID ("" before Register).
// It changes when an eviction forces a re-registration.
func (r *Resilient) ID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.id
}

// ReRegisters counts automatic re-registrations after eviction.
func (r *Resilient) ReRegisters() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reRegisters
}

// heartbeatJitter is the fractional spread j applied by
// NextHeartbeatIn: each interval is drawn uniformly from [1-j, 1+j] x
// nominal, plus a one-shot desync splay after a failover. Without it,
// every client that failed over together heartbeats the new leader in
// lockstep — a thundering herd at exactly the moment the promoted
// follower is busiest.
const heartbeatJitter = 0.2

// NextHeartbeatIn returns how long to wait before the next heartbeat,
// given the nominal interval: uniformly jittered by heartbeatJitter,
// plus a one-shot extra splay right after a failover so a fleet that
// switched leaders together does not re-synchronize into a thundering
// herd against the freshly promoted follower.
func (r *Resilient) NextHeartbeatIn(interval time.Duration) time.Duration {
	const j = heartbeatJitter
	if interval <= 0 {
		return interval
	}
	r.mu.Lock()
	desync := r.desync
	r.desync = false
	r.mu.Unlock()
	f := 1 - j + 2*j*r.rnd()
	d := time.Duration(f * float64(interval))
	if desync {
		d += time.Duration(j * r.rnd() * float64(interval))
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// fence checks a successful response's (epoch, generation) against the
// high-water mark and advances it. A regression means a stale replica
// answered; the response must be discarded, not believed.
func (r *Resilient) fence(epoch, gen uint64, hasGen bool) (stale bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch < r.maxEpoch {
		return true
	}
	if epoch == r.maxEpoch && hasGen && gen < r.maxGen {
		return true
	}
	if epoch > r.maxEpoch {
		// New leader: generations restart monotonically above the old
		// ones (Promote bumps through the journal), but reset the gen
		// watermark anyway so the epoch is what fences across reigns.
		r.maxEpoch = epoch
		r.maxGen = 0
	}
	if hasGen && gen > r.maxGen {
		r.maxGen = gen
	}
	return false
}

// adopt makes endpoint i the preferred one.
func (r *Resilient) adopt(i int) {
	r.mu.Lock()
	if r.cur != i {
		r.cur = i
		r.failovers++
		r.desync = true
	}
	r.mu.Unlock()
}

// endpointIndex resolves a leader URL (from a not_leader redirect or a
// response header) to a configured endpoint.
func (r *Resilient) endpointIndex(url string) (int, bool) {
	url = strings.TrimRight(url, "/")
	for i, ep := range r.eps {
		if ep.c.BaseURL() == url {
			return i, true
		}
	}
	return 0, false
}

// call runs fn against the replica group: preferred endpoint first,
// failing over on transport errors and open breakers, chasing
// not_leader redirects to the named leader, and fencing stale replicas
// by (epoch, generation). fn returns the response's generation (and
// whether it has one) for the fence. Non-redirect API errors surface
// immediately — the daemon is alive and said no.
func (r *Resilient) call(ctx context.Context, fn func(*Client) (uint64, bool, error)) error {
	r.mu.Lock()
	idx := r.cur
	n := len(r.eps)
	r.mu.Unlock()
	tries := n
	if n > 1 {
		// Extra lap so redirect-chasing (follower -> named leader) can
		// revisit an endpoint already tried as a guess.
		tries = 2 * n
	}
	var lastErr error
	for attempt := 0; attempt < tries; attempt++ {
		ep := r.eps[idx%n]
		if !ep.br.Allow() {
			idx++
			continue
		}
		gen, hasGen, err := fn(ep.c)
		if err == nil {
			ep.br.Record(true)
			if r.fence(ep.c.LastEpoch(), gen, hasGen) {
				lastErr = ErrStaleReplica
				idx++
				continue
			}
			r.adopt(idx % n)
			return nil
		}
		var ae *APIError
		if errors.As(err, &ae) {
			ep.br.Record(true) // alive enough to say no
			if ae.Code == ctrlplane.ErrCodeNotLeader {
				lastErr = err
				if j, ok := r.endpointIndex(ae.Leader); ok && j != idx%n {
					idx = j
				} else {
					idx++
				}
				continue
			}
			return err
		}
		ep.br.Record(false)
		lastErr = err
		idx++
	}
	if lastErr == nil {
		return ErrCircuitOpen
	}
	return lastErr
}

// Register announces the application, remembers the request for later
// automatic re-registration, and caches the machine topology for local
// fallback solves. An offered solve (req.Solved) goes out with this
// call only: it describes the demand set of this moment, so what is
// remembered is the request without it.
func (r *Resilient) Register(ctx context.Context, req ctrlplane.RegisterRequest) (*ctrlplane.RegisterResponse, error) {
	resp, err := r.register(ctx, req)
	if err != nil {
		return nil, err
	}
	req.Solved = nil
	r.mu.Lock()
	r.id = resp.ID
	r.regReq = req
	r.registered = true
	if len(r.localDemand) == 0 {
		r.localDemand = []ctrlplane.RegisterRequest{req}
	}
	r.mu.Unlock()
	return resp, nil
}

// register runs one registration against the replica group and then
// refreshes the cached topology from an unconditional State read of the
// endpoint that took it. Every registration does — the first, and each
// re-registration after the daemon forgot the app — so a failed read is
// retried at the next one, and a daemon restarted on another machine
// description is solved over as it now is. A failed read keeps what was
// cached.
func (r *Resilient) register(ctx context.Context, req ctrlplane.RegisterRequest) (*ctrlplane.RegisterResponse, error) {
	var resp *ctrlplane.RegisterResponse
	err := r.call(ctx, func(c *Client) (uint64, bool, error) {
		rr, err := c.Register(ctx, req)
		if err != nil {
			return 0, false, err
		}
		resp = rr
		return rr.Generation, true, nil
	})
	if err != nil {
		return nil, err
	}
	if st, err := r.Client().State(ctx, ctrlplane.StateQuery{}); err == nil && st.Machine != nil {
		r.mu.Lock()
		r.machine = st.Machine
		r.mu.Unlock()
	}
	return resp, nil
}

// SetLocalDemand overrides the demand set used by local fallback
// solves. A cooperating application that knows the whole mix (e.g. the
// paper's three memory-bound plus one compute-bound jobs) can thus
// degrade to the same Table I optimum the daemon would have served.
func (r *Resilient) SetLocalDemand(reqs []ctrlplane.RegisterRequest) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.localDemand = append([]ctrlplane.RegisterRequest(nil), reqs...)
}

// SetMachine seeds the cached topology (normally learned from the
// daemon at every registration) so local solves work daemon-never-seen.
func (r *Resilient) SetMachine(m *machine.Machine) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.machine = m
}

// Machine returns the cached topology (nil if never learned).
func (r *Resilient) Machine() *machine.Machine {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.machine
}

// Heartbeat refreshes liveness. If the daemon reports the app unknown —
// it was evicted, the daemon restarted without this app's state, or a
// freshly promoted leader never saw it — the wrapper re-registers with
// the remembered spec and retries the heartbeat under the new ID, so
// callers see at most a changed allocation, never an "unknown app"
// error loop.
func (r *Resilient) Heartbeat(ctx context.Context, hb ctrlplane.HeartbeatRequest) (*ctrlplane.HeartbeatResponse, error) {
	r.mu.Lock()
	if hb.ID == "" {
		hb.ID = r.id
	}
	req, registered := r.regReq, r.registered
	r.mu.Unlock()

	doHB := func(id string) (*ctrlplane.HeartbeatResponse, error) {
		h := hb
		h.ID = id
		var resp *ctrlplane.HeartbeatResponse
		err := r.call(ctx, func(c *Client) (uint64, bool, error) {
			hr, err := c.Heartbeat(ctx, h)
			if err != nil {
				return 0, false, err
			}
			resp = hr
			return hr.Generation, true, nil
		})
		return resp, err
	}

	resp, err := doHB(hb.ID)
	if err == nil {
		return resp, nil
	}
	if !IsUnknownApp(err) || !registered {
		return nil, err
	}
	// Evicted (or the new leader never knew us): re-register and retry
	// once under the fresh ID.
	reg, rerr := r.register(ctx, req)
	if rerr != nil {
		return nil, fmt.Errorf("re-registering after eviction: %w (original: %v)", rerr, err)
	}
	r.mu.Lock()
	r.id = reg.ID
	r.reRegisters++
	r.mu.Unlock()
	return doHB(reg.ID)
}

// Deregister removes the app (pass-through with failover and breaker
// accounting).
func (r *Resilient) Deregister(ctx context.Context) error {
	r.mu.Lock()
	id := r.id
	r.registered = false
	r.mu.Unlock()
	if id == "" {
		return nil
	}
	return r.call(ctx, func(c *Client) (uint64, bool, error) {
		return 0, false, c.Deregister(ctx, id)
	})
}

// Allocations reads the machine-wide allocation table, degrading
// gracefully: live from a reachable, non-stale replica; otherwise the
// last-known-good table; otherwise a local solve over the demand this
// client knows. The Source return says which one answered.
func (r *Resilient) Allocations(ctx context.Context) (*ctrlplane.AllocationsResponse, Source, error) {
	var resp *ctrlplane.AllocationsResponse
	err := r.call(ctx, func(c *Client) (uint64, bool, error) {
		ar, err := c.Allocations(ctx)
		if err != nil {
			return 0, false, err
		}
		resp = ar
		return ar.Generation, true, nil
	})
	if err == nil {
		r.mu.Lock()
		r.lastAlloc = copyAllocations(resp)
		r.mu.Unlock()
		return resp, SourceLive, nil
	}
	var ae *APIError
	if errors.As(err, &ae) && ae.Code != ctrlplane.ErrCodeNotLeader {
		// The daemon is alive and rejected us; degrading would mask a
		// real error, so surface it.
		return nil, SourceLive, err
	}
	return r.degraded()
}

// LastKnownGood returns the cached allocation table, if any.
func (r *Resilient) LastKnownGood() (*ctrlplane.AllocationsResponse, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lastAlloc == nil {
		return nil, false
	}
	return copyAllocations(r.lastAlloc), true
}

// degraded serves an allocation without the daemon.
func (r *Resilient) degraded() (*ctrlplane.AllocationsResponse, Source, error) {
	r.mu.Lock()
	cached := copyAllocations(r.lastAlloc)
	m := r.machine
	demand := append([]ctrlplane.RegisterRequest(nil), r.localDemand...)
	r.mu.Unlock()
	if cached != nil {
		return cached, SourceCached, nil
	}
	if m == nil || len(demand) == 0 {
		return nil, SourceLocal, fmt.Errorf("%w and no cached allocation or topology for a local solve", ErrCircuitOpen)
	}
	resp, err := r.localSolve(m, demand)
	if err != nil {
		return nil, SourceLocal, err
	}
	return resp, SourceLocal, nil
}

// localSolve runs the same solver the daemon would, over the cached
// topology and the locally known demand.
func (r *Resilient) localSolve(m *machine.Machine, demand []ctrlplane.RegisterRequest) (*ctrlplane.AllocationsResponse, error) {
	apps := make([]ctrlplane.AppState, len(demand))
	for i, d := range demand {
		spec, err := d.Spec(m.NumNodes())
		if err != nil {
			return nil, fmt.Errorf("local fallback: %w", err)
		}
		apps[i] = ctrlplane.AppState{ID: fmt.Sprintf("local-%s-%d", spec.Name, i+1), Spec: spec}
	}
	sol, err := r.solver.Solve(m, apps)
	if err != nil {
		return nil, fmt.Errorf("local fallback solve: %w", err)
	}
	return sol.Table(m.Name, "local-"+r.solver.Policy(), 0), nil
}

// copyAllocations deep-copies a table so cached state can't be mutated
// by callers (nil in, nil out).
func copyAllocations(in *ctrlplane.AllocationsResponse) *ctrlplane.AllocationsResponse {
	if in == nil {
		return nil
	}
	out := *in
	out.Apps = make([]ctrlplane.AppAllocation, len(in.Apps))
	for i, a := range in.Apps {
		out.Apps[i] = a
		out.Apps[i].PerNode = append([]int(nil), a.PerNode...)
	}
	if in.Reference != nil {
		ref := *in.Reference
		out.Reference = &ref
	}
	return &out
}
