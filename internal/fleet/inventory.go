package fleet

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/machine"
)

// Typed SetDraining outcomes, so callers (fleetd, the upgrade
// controller) can distinguish a member that does not exist from one
// whose drain request is meaningless in its current state.
var (
	// ErrUnknownMember is returned for operations naming a member the
	// inventory has never been told about.
	ErrUnknownMember = errors.New("fleet: unknown member")
	// ErrMemberDead rejects draining a dead member: its apps are already
	// being evacuated as machine-lost, so "drain" would only mask the
	// real state. Undraining a dead member is allowed (it clears a flag
	// for whenever the machine revives).
	ErrMemberDead = errors.New("fleet: member is dead")
)

// Inventory tracks the fleet's member machines: their topology, demand
// set, and health, refreshed by polling each member's coopd API — plus
// the fleet's own soft state no member knows: stale re-homed IDs and the
// round clock, which a full poll lifts past every app's MovedRound. All
// methods are safe for concurrent use; Poll holds no lock during network
// calls, so reads stay fast while a member times out.
type Inventory struct {
	cfg    InventoryConfig
	cfgErr error // what resolving cfg refused, for NewServer to report

	mu      sync.Mutex
	members map[string]*member
	recs    []*member // the same members sorted by ID; polling and snapshots follow it

	round uint64 // the next rebalance round to run; from 1, as MovedRound 0 is never

	// polls counts member polls by outcome (see PollMetrics).
	polls PollMetrics

	// reused and rebuilt count the planning sessions' candidates, and
	// rowsCopied the snapshot rows they copied (see CandidateMetrics).
	// Atomics: sessions count them outside inv.mu.
	reused, rebuilt, rowsCopied atomic.Uint64
}

// versions numbers every change to a member record: its demand version
// (apps and topology, what a planning candidate is built from) and its
// record version (every field a Member snapshot carries). The counter is
// process-wide, not per inventory, because sessions are pooled
// package-wide: one session's snapshot rows and candidates serve every
// inventory in the process, and only a number no other member ever held
// keeps a (member ID, version) pair from naming two records.
var versions atomic.Uint64

// member is the mutable record behind a Member snapshot.
type member struct {
	id        string
	domain    string // failure domain (rack/zone); defaults to the id
	endpoints []string
	grp       *client.Group // one client per endpoint, the fence and the preferred one

	topo  *machine.Machine
	apps  []PlacedApp
	total float64
	// incarnation and gen name the member state apps, total and topo
	// were last read from: a full /v1/state answer, or one moved on by an
	// acknowledged register (see noteRegistered). exact says apps is
	// still exactly that state: only then may a poll present the pair and
	// take a 304 for an answer. A failed poll and every other local edit
	// of apps withdraw it, so the next poll reads in full — the member is
	// never told about a fleet-side edit (noteStale drops an app the
	// member still holds), and a partition may have hidden anything.
	incarnation string
	gen         uint64
	exact       bool
	// version is the member's demand version (see versions): touch draws
	// a fresh one whenever apps or topo change. 0 until the first change,
	// while the member has neither. record is its record version: AddDomain
	// draws the first, and every write to a field snapshotInto copies
	// draws another, through touch or changed.
	version, record uint64

	failures int
	dead     bool
	draining bool
	lastSeen time.Time
	stale    []string

	// pollSeq sequences polls of this member: an outcome is applied only
	// if no newer poll has started since, so a stale in-flight success
	// (the response raced a partition cut and a fresher poll already
	// failed) cannot reset the failure counter.
	pollSeq uint64

	// Flap detector state: alive<->dead transition times inside the
	// sliding window, and the quarantine the detector imposed.
	transitions     []time.Time
	quarantined     bool
	quarantineUntil time.Time
	quarantines     int // consecutive quarantines, drives the backoff
}

// NewInventory builds an empty inventory. An out-of-range knob in cfg
// is kept as given and reported by NewServer.
func NewInventory(cfg InventoryConfig) *Inventory {
	if cfg.NewClient == nil {
		cfg.NewClient = func(endpoint string) *client.Client {
			return client.New(endpoint, client.Config{MaxAttempts: 2, RequestTimeout: 2 * time.Second})
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	err := cfg.resolve()
	return &Inventory{cfg: cfg, cfgErr: err, members: map[string]*member{}, round: 1}
}

// now reads the inventory's clock, the one time source of the fleet
// layer (LastSeen stamps, quarantine deadlines, request metering).
func (inv *Inventory) now() time.Time { return inv.cfg.Clock() }

func (inv *Inventory) logf(format string, args ...any) {
	if inv.cfg.Logf != nil {
		inv.cfg.Logf(format, args...)
	}
}

// Add registers a member machine by its coopd endpoint(s); several
// endpoints mean an HA pair the inventory fails over between. The
// member starts unknown (not healthy) until its first successful poll.
// Its failure domain defaults to its own ID (every machine its own
// domain); use AddDomain to group machines by rack or zone.
func (inv *Inventory) Add(id string, endpoints ...string) error {
	return inv.AddDomain(id, "", endpoints...)
}

// AddDomain is Add with an explicit failure-domain label (rack, zone,
// power feed — whatever fails together). Machines sharing a domain are
// expected to die together, so domain-spread placement keeps
// cooperating app groups apart and the storm brake treats a whole-domain
// kill as one correlated event. Empty domain defaults to the member ID.
func (inv *Inventory) AddDomain(id, domain string, endpoints ...string) error {
	if id == "" || len(endpoints) == 0 {
		return fmt.Errorf("fleet: member needs an id and at least one endpoint")
	}
	if domain == "" {
		domain = id
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if _, ok := inv.members[id]; ok {
		return fmt.Errorf("fleet: duplicate member %q", id)
	}
	clis := make([]*client.Client, len(endpoints))
	for i, ep := range endpoints {
		clis[i] = inv.cfg.NewClient(ep)
	}
	m := &member{id: id, domain: domain, endpoints: append([]string(nil), endpoints...), grp: client.NewGroup(clis...)}
	m.changed()
	inv.members[id] = m
	at, _ := slices.BinarySearchFunc(inv.recs, id, func(r *member, id string) int { return strings.Compare(r.id, id) })
	inv.recs = slices.Insert(inv.recs, at, m)
	return nil
}

// Poll refreshes every member, in ID order. One slow member delays the
// others within a round (polling is sequential for determinism) but
// never blocks Snapshot or placement reads.
func (inv *Inventory) Poll(ctx context.Context) {
	inv.mu.Lock()
	recs := slices.Clone(inv.recs)
	inv.mu.Unlock()
	for _, m := range recs {
		inv.pollMember(ctx, m.id)
	}
}

// pollMember reads the member's state through its group: one GET
// /v1/state per endpoint at most, the preferred one first, and the first
// answer the group's fence takes is the poll. An answer the fence
// refuses (a lagging follower, a deposed leader) counts as none. The
// whole attempt runs under DefaultPollTimeout: a member that hangs
// mid-response burns its own deadline, not the rest of the round's.
func (inv *Inventory) pollMember(ctx context.Context, id string) {
	inv.mu.Lock()
	m, ok := inv.members[id]
	if !ok {
		inv.mu.Unlock()
		return
	}
	m.pollSeq++
	seq := m.pollSeq
	held := ctrlplane.StateQuery{Incarnation: m.incarnation, Generation: m.gen, Conditional: m.exact}
	version := m.version
	inv.mu.Unlock()

	ctx, cancel := context.WithTimeout(ctx, DefaultPollTimeout)
	defer cancel()

	st, err := m.grp.State(ctx, held) // st is nil when the answer was a 304
	answered := err == nil || errors.Is(err, client.ErrNotModified)
	var placed []PlacedApp
	if st != nil {
		placed = make([]PlacedApp, 0, len(st.Apps))
		for _, v := range st.Apps {
			placed = append(placed, placedFromView(v))
		}
		slices.SortFunc(placed, func(a, b PlacedApp) int { return strings.Compare(a.ID, b.ID) })
	}

	inv.mu.Lock()
	defer inv.mu.Unlock()
	if m.pollSeq != seq {
		// A newer poll of this member started while this one was in
		// flight; its outcome supersedes ours. Applying this stale
		// success would reset a failure count a fresher poll just
		// recorded (the partition-flap race).
		return
	}
	switch {
	case !answered && m.version != version:
		// The fleet changed the member's demand while the poll was in
		// flight: an acknowledged register can fence off every answer
		// the poll gets. The member just answered a write, so no news is
		// not a failure. A miss, like the raced 304 below.
		return
	case !answered:
		inv.polls.Failed++
		m.changed()
		m.exact = false
		m.failures++
		if !m.dead && m.failures >= inv.cfg.FailAfter {
			m.dead = true
			inv.logf("fleet: member %s dead after %d failed polls (%d apps to re-home)", id, m.failures, len(m.apps))
			inv.noteTransition(m, inv.now())
		}
		return
	case st != nil:
		inv.polls.Full++
		m.apps, m.total = placed, st.TotalGFLOPS
		m.incarnation, m.gen, m.exact = st.Incarnation, st.Generation, true
		if st.Machine != nil {
			m.topo = st.Machine
		}
		m.touch()
		for _, a := range placed { // how a restarted fleetd resumes its clock
			inv.round = max(inv.round, a.MovedRound+1, a.MovedRound) // saturating
		}
	case m.exact && m.incarnation == held.Incarnation && m.gen == held.Generation:
		inv.polls.Unchanged++
		m.changed()
	default:
		// The 304 answered a validator that no longer names the copy: a
		// local edit withdrew it, or an acknowledged register moved it on,
		// while the request was in flight. A miss — the next poll presents
		// whatever the copy is now.
		return
	}
	m.failures = 0
	now := inv.now()
	m.lastSeen = now
	if m.dead {
		m.dead = false
		inv.logf("fleet: member %s revived (%d apps, %d stale re-homed ids)", id, len(m.apps), len(m.stale))
		inv.noteTransition(m, now)
	}
	if m.quarantined && !now.Before(m.quarantineUntil) {
		m.quarantined = false
		inv.logf("fleet: member %s re-admitted after quarantine #%d", id, m.quarantines)
	}
	if !m.quarantined && m.quarantines > 0 && !m.dead {
		// Forgiveness: a full flap window with no transitions resets
		// the backoff escalation.
		if n := pruneTransitions(m, now, inv.cfg.FlapWindow); n == 0 {
			m.quarantines = 0
		}
	}
}

// Polls returns how many member polls ended in each outcome so far, and
// how many member answers the fence refused.
func (inv *Inventory) Polls() PollMetrics {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	p := inv.polls
	for _, m := range inv.recs {
		p.Fenced += m.grp.Fenced()
	}
	return p
}

// Candidates returns how the planning sessions over this inventory came
// by their candidates so far.
func (inv *Inventory) Candidates() CandidateMetrics {
	return CandidateMetrics{Reused: inv.reused.Load(), Rebuilt: inv.rebuilt.Load(), RowsCopied: inv.rowsCopied.Load()}
}

// pruneTransitions drops transition stamps older than the window and
// returns how many remain. Caller holds inv.mu.
func pruneTransitions(m *member, now time.Time, window time.Duration) int {
	keep := m.transitions[:0]
	for _, t := range m.transitions {
		if now.Sub(t) <= window {
			keep = append(keep, t)
		}
	}
	m.transitions = keep
	return len(keep)
}

// noteTransition records one alive<->dead flip and runs the flap
// detector: FlapCount transitions inside FlapWindow quarantine the
// member with an exponential re-admission backoff, so a machine
// oscillating around the FailAfter threshold stops whipsawing the
// rebalancer — its apps are evacuated once and it is not a placement
// target again until the backoff expires AND a poll succeeds. Caller
// holds inv.mu.
func (inv *Inventory) noteTransition(m *member, now time.Time) {
	if inv.cfg.FlapCount < 0 {
		return // quarantining disabled (A/B regression experiments only)
	}
	pruneTransitions(m, now, inv.cfg.FlapWindow)
	m.transitions = append(m.transitions, now)
	if len(m.transitions) < inv.cfg.FlapCount {
		return
	}
	backoff := inv.cfg.QuarantineBackoff
	for i := 0; i < m.quarantines && backoff < quarantineMaxBackoff; i++ {
		backoff *= 2
	}
	backoff = min(backoff, quarantineMaxBackoff)
	m.quarantines++
	m.quarantined = true
	m.quarantineUntil = now.Add(backoff)
	m.transitions = m.transitions[:0]
	inv.logf("fleet: member %s quarantined for %s after %d health transitions within %s (quarantine #%d)",
		m.id, backoff, inv.cfg.FlapCount, inv.cfg.FlapWindow, m.quarantines)
}

// touch gives the member a fresh demand version, and the record the
// same number as its record version. Caller holds inv.mu (or owns the
// member outright).
func (m *member) touch() {
	m.version = versions.Add(1)
	m.record = m.version
}

// changed gives the member a fresh record version: a field a snapshot
// carries changed, but not its apps or topology. Caller holds inv.mu.
func (m *member) changed() { m.record = versions.Add(1) }

// snapshotInto copies one member into dst, reusing the backing arrays
// of dst's slices, and reports whether it wrote dst. A dst that already
// holds this member's record version is left alone, and apps are copied
// only when dst does not hold its demand version: a pooled session's row
// of a member nothing changed keeps the copy an earlier session made.
// Caller holds inv.mu.
func (m *member) snapshotInto(dst *Member) bool {
	if dst.ID == m.id && dst.record == m.record {
		return false
	}
	apps := dst.Apps
	if dst.ID != m.id || dst.version != m.version {
		apps = append(apps[:0], m.apps...)
	}
	*dst = Member{
		ID:        m.id,
		Domain:    m.domain,
		Endpoints: append(dst.Endpoints[:0], m.endpoints...),
		Topology:  m.topo,
		Apps:      apps,
		version:   m.version,
		record:    m.record,

		TotalGFLOPS: m.total,
		Generation:  m.gen,
		Failures:    m.failures,
		Dead:        m.dead,
		Draining:    m.draining,
		LastSeen:    m.lastSeen,
		Stale:       append(dst.Stale[:0], m.stale...),

		Quarantined:     m.quarantined,
		QuarantineUntil: m.quarantineUntil,
		Quarantines:     m.quarantines,
	}
	return true
}

// Snapshot returns every member, sorted by ID, in memory the caller
// owns.
func (inv *Inventory) Snapshot() []Member {
	out, _ := inv.snapshotInto(nil)
	return out
}

// snapshotInto is Snapshot into dst's memory: the Member array and each
// element's Endpoints, Apps and Stale backing arrays are reused, so a
// planning session that keeps its snapshot buffer between decisions
// copies the fleet without allocating, and copies only the rows whose
// record changed since. Whatever dst held is overwritten. copied counts
// the rows written.
func (inv *Inventory) snapshotInto(dst []Member) (out []Member, copied int) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	dst = slices.Grow(dst[:0], len(inv.recs))[:len(inv.recs)]
	for i, m := range inv.recs {
		if m.snapshotInto(&dst[i]) {
			copied++
		}
	}
	return dst, copied
}

// Member returns one member's snapshot.
func (inv *Inventory) Member(id string) (Member, bool) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	m, ok := inv.members[id]
	if !ok {
		return Member{}, false
	}
	var out Member
	m.snapshotInto(&out)
	return out, true
}

// endpoints returns the member's coopd URLs (nil for an unknown
// member). The slice is the inventory's own, which AddDomain copied
// from its caller and nothing changes afterwards, so callers may read
// it without a copy but must not write it.
func (inv *Inventory) endpoints(id string) []string {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if m, ok := inv.members[id]; ok {
		return m.endpoints
	}
	return nil
}

// SetDraining marks (or unmarks) a member for draining. A draining
// member receives no new placements and the rebalancer moves its apps
// off. Returns ErrUnknownMember for a member the inventory does not
// track, and ErrMemberDead when asked to drain a dead member (whose
// apps are already being evacuated as machine-lost); undraining a dead
// member is allowed.
func (inv *Inventory) SetDraining(id string, draining bool) error {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	m, ok := inv.members[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownMember, id)
	}
	if draining && m.dead {
		return fmt.Errorf("%w: %s", ErrMemberDead, id)
	}
	if m.draining != draining {
		m.draining = draining
		m.changed()
		inv.logf("fleet: member %s draining=%v", id, draining)
	}
	return nil
}

// group returns the member's endpoint group.
func (inv *Inventory) group(id string) (*client.Group, error) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	m, ok := inv.members[id]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown member %q", id)
	}
	return m.grp, nil
}

// Client returns the client of the member's preferred endpoint: the one
// whose answer its group last took.
func (inv *Inventory) Client(id string) (*client.Client, error) {
	grp, err := inv.group(id)
	if err != nil {
		return nil, err
	}
	return grp.Client(), nil
}

// The executor: the only code that changes what is registered where.
// Every planner's output — a single placement, a gang's members and
// victims, a rebalance round's moves — is applied through these three,
// which keep the cached demand sets and the stale lists in step with
// what the member coopds were told.

// register registers spec with its move round (0: never) on the
// member's coopd, offering it the solve of the decision that chose the
// member (nil: none), and records the placement, so scoring sees it.
func (inv *Inventory) register(ctx context.Context, member string, spec AppSpec, moved uint64, solved *ctrlplane.Solved) (PlacedApp, error) {
	grp, err := inv.group(member)
	if err != nil {
		return PlacedApp{}, err
	}
	req := spec.RegisterRequest()
	req.MovedRound, req.Solved = moved, solved
	resp, err := grp.Register(ctx, req)
	if err != nil {
		return PlacedApp{}, err
	}
	placed := PlacedApp{ID: resp.ID, AppSpec: spec, MovedRound: moved}
	inv.noteRegistered(member, placed, resp)
	return placed, nil
}

// deregister drops an app from the member's coopd, its cached demand
// set, and its stale list.
func (inv *Inventory) deregister(ctx context.Context, member, appID string) error {
	grp, err := inv.group(member)
	if err != nil {
		return err
	}
	if err := grp.Deregister(ctx, appID); err != nil {
		return err
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if m, ok := inv.members[member]; ok {
		m.dropApp(appID) // its fresh versions cover the stale edit too
		m.stale = slices.DeleteFunc(m.stale, func(id string) bool { return id == appID })
	}
	return nil
}

// relocate executes one planned move as drain-then-place — deregister
// from a live source before registering on the target, so the app never
// counts twice. A lost or quarantined source cannot be drained (it is
// unreachable, or untrusted mid-flap): those moves register on the
// target first and record the old ID as stale, to be cleaned up when —
// or while — the member answers again. If the target refuses an app
// already drained off its source, the app is put back where it came
// from rather than left registered nowhere. A drift, rebalance or
// preempt move starts the app's cooldown; the rest carry its round over.
func (inv *Inventory) relocate(ctx context.Context, mv Move) (PlacedApp, error) {
	lost := mv.Reason == ReasonMachineLost || mv.Reason == ReasonQuarantine
	moved := mv.moved
	switch mv.Reason {
	case ReasonDrift, ReasonRebalance, ReasonPreempt:
		moved = inv.clock()
	}
	if !lost {
		if err := inv.deregister(ctx, mv.From, mv.AppID); err != nil {
			// The source refused the drain; skip the move rather than
			// double-register the app. Next round re-plans.
			return PlacedApp{}, fmt.Errorf("fleet: draining %s from %s: %w", mv.AppID, mv.From, err)
		}
	}
	placed, err := inv.register(ctx, mv.To, mv.App, moved, mv.solved)
	if err != nil {
		err = fmt.Errorf("fleet: re-homing %s to %s: %w", mv.AppID, mv.To, err)
		if !lost {
			if back, rerr := inv.register(ctx, mv.From, mv.App, mv.moved, nil); rerr != nil {
				inv.logf("fleet: %s is registered nowhere: restoring it on %s: %v", mv.App.Name, mv.From, rerr)
			} else {
				inv.logf("fleet: restored %s on %s as %s", mv.App.Name, mv.From, back.ID)
			}
		}
		return PlacedApp{}, err
	}
	if lost {
		inv.noteStale(mv.From, mv.AppID)
	}
	return placed, nil
}

// noteRegistered records an app the fleet just placed on a member, as
// the member's answer resp acknowledged it. When the copy was exactly
// the member's state at generation g and resp says the registration
// made it g+1 and carries the total solved at g+1, nothing else can
// have happened in between — every registry change moves the generation
// by one — so the copy, with the app, stays exact at g+1 and the next
// poll can be a 304. Otherwise the copy is no longer what the member
// last told, and the next poll re-reads it.
func (inv *Inventory) noteRegistered(id string, app PlacedApp, resp *ctrlplane.RegisterResponse) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	m, ok := inv.members[id]
	if !ok {
		return
	}
	// Record the app as a read of the member would show it.
	if app.Placement == ctrlplane.PlacementPerfect {
		app.Placement = ""
	}
	if app.Name == "" {
		app.Name = "app"
	}
	app.TTLMillis = resp.TTLMillis
	m.apps = append(m.apps, app)
	slices.SortFunc(m.apps, func(a, b PlacedApp) int { return strings.Compare(a.ID, b.ID) })
	if m.exact && resp.Generation == m.gen+1 && resp.TotalGFLOPS != 0 {
		inv.polls.Acked++
		m.gen, m.total = resp.Generation, resp.TotalGFLOPS
	} else {
		m.exact = false
	}
	m.touch()
}

// dropApp removes an app from the cached demand set, which from here on
// is no longer what the member last told (see member.exact). Caller
// holds inv.mu.
func (m *member) dropApp(appID string) {
	m.apps = slices.DeleteFunc(m.apps, func(a PlacedApp) bool { return a.ID == appID })
	m.exact = false
	m.touch()
}

// noteStale records a registration the fleet no longer counts but could
// not remove — an app re-homed off a dead or quarantined member, or a
// gang rollback that did not get through. It leaves the cached demand
// set at once; the rebalancer deregisters the duplicate when the member
// answers again.
func (inv *Inventory) noteStale(id, appID string) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if m, ok := inv.members[id]; ok {
		m.dropApp(appID) // its fresh versions cover the stale edit too
		m.stale = append(m.stale, appID)
	}
}

// endRound advances the round clock, saturating; only executed
// rebalance rounds do, so inspecting a plan has no side effects.
func (inv *Inventory) endRound() {
	inv.mu.Lock()
	inv.round = max(inv.round+1, inv.round)
	inv.mu.Unlock()
}

// clock returns the number of the next rebalance round to execute.
func (inv *Inventory) clock() uint64 {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return inv.round
}
