package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/ctrlplane"
)

// Move reasons, stable strings carried on the wire.
const (
	// ReasonMachineLost re-homes an app whose machine stopped answering.
	ReasonMachineLost = "machine-lost"
	// ReasonDrain empties a member marked draining.
	ReasonDrain = "drain"
	// ReasonRebalance closes an imbalance gap against the greedy re-pack.
	ReasonRebalance = "rebalance"
	// ReasonDrift re-places an app whose measured demand model drifted
	// from its declaration: the placement decision was made on stale
	// inputs, so it is re-taken with the fitted model.
	ReasonDrift = "drift"
	// ReasonQuarantine evacuates a member the flap detector benched: it
	// may still be answering polls, but it cannot be trusted to keep
	// serving, so its apps are re-homed like a lost machine's.
	ReasonQuarantine = "quarantine"
	// ReasonPreempt evicts a lower-class app from a machine past its
	// floor capacity so a higher class hosted there gets a floor-feasible
	// allocation (see preempt.go).
	ReasonPreempt = "preempt"
)

// Move is one planned app relocation.
type Move struct {
	// AppID is the app's ID on the source machine (its registration
	// there; the target assigns a fresh ID).
	AppID string `json:"app_id"`
	// App is the spec re-registered on the target.
	App AppSpec `json:"app"`
	// From and To are member IDs. From's registration is dropped (or
	// already gone, for a lost machine).
	From string `json:"from"`
	To   string `json:"to"`
	// Reason is one of the Reason* constants.
	Reason string `json:"reason"`
	// Score is the marginal aggregate GFLOPS of the placement on To.
	Score float64 `json:"score"`

	// solved is the deciding solve of To with the app on it, offered to
	// To with the registration (see Decision); nil for a move no decision
	// stands behind (the imbalance re-pack).
	solved *ctrlplane.Solved
	moved  uint64 // the source record's MovedRound
}

// evacApp is one urgent evacuation candidate: an app still registered
// on a dead, quarantined, or draining member.
type evacApp struct {
	member string
	app    *PlacedApp
	reason string
}

// StaleDereg is a duplicate registration left on a revived member: the
// app was re-homed while the member was dead, so the old local copy
// must be deregistered.
type StaleDereg struct {
	Member string `json:"member"`
	AppID  string `json:"app_id"`
}

// Plan is one rebalance round's decisions.
type Plan struct {
	Moves []Move `json:"moves,omitempty"`
	// Deferred counts moves the per-round bound pushed to later rounds.
	Deferred int `json:"deferred,omitempty"`
	// StaleDeregs are duplicate cleanups on revived members (not
	// counted against the move bound — they free capacity, never churn
	// it).
	StaleDeregs []StaleDereg `json:"stale_deregs,omitempty"`
	// CurrentGFLOPS is the solved aggregate over healthy members'
	// demand sets; RepackGFLOPS is the aggregate of the greedy
	// from-scratch re-pack the imbalance check compares against.
	CurrentGFLOPS float64 `json:"current_gflops"`
	RepackGFLOPS  float64 `json:"repack_gflops"`
	// Budget is the round's global move budget (MaxMovesPerRound),
	// shared across the urgent, drift, and imbalance passes;
	// BudgetSpent is how much of it this plan consumes.
	Budget      int `json:"budget,omitempty"`
	BudgetSpent int `json:"budget_spent,omitempty"`
	// Cooldowns maps the names of the snapshot's apps still inside their
	// post-move cooldown to the number of upcoming rounds (including the
	// planned one) in which the preempt, drift and imbalance passes will
	// not move them again (the longest where names repeat).
	Cooldowns map[string]int `json:"cooldowns,omitempty"`
	// StormActive marks a degraded-mode round: enough members are down
	// with un-evacuated apps that urgent moves were triaged under the
	// storm budget and per-survivor admission cap, and the drift and
	// imbalance passes were skipped.
	StormActive bool `json:"storm_active,omitempty"`
}

// Rebalancer turns inventory drift — dead machines, draining members,
// imbalance — into bounded move plans and executes them. NewServer
// builds it; its knobs are the server's (see ServerConfig).
type Rebalancer struct {
	Inv    *Inventory
	Scorer *Scorer
	cfg    *ServerConfig

	// memo is the imbalance pass's last re-pack and repacks counts the
	// lookups; memoMu guards both, because the HTTP dry run plans
	// concurrently with the round loop.
	memoMu  sync.Mutex
	memo    repack
	repacks RepackMetrics
}

// Plan computes one round's moves from the current inventory snapshot
// without executing anything: one planning session, whose ledger every
// pass draws on. Priority order: lost and quarantined machines first
// (their apps are getting no trustworthy cores at all), then draining
// members, then — only when nothing urgent is pending — the quiet
// passes. When enough members are down at once the urgent pass degrades
// into storm-braked triage (see planUrgent). Every target decision runs
// against the session's candidates, which accumulate the round's
// earlier moves, so a plan never over-commits one machine.
func (r *Rebalancer) Plan(ctx context.Context) (*Plan, error) {
	cfg := r.cfg
	s := openSession(r.Scorer, r.Inv)
	defer s.close()
	s.budget, s.round, s.cooldown = cfg.MaxMovesPerRound, r.Inv.clock(), uint64(max(cfg.CooldownRounds, 0))
	plan := &Plan{Budget: cfg.MaxMovesPerRound, Cooldowns: s.cooldowns(), StaleDeregs: s.staleDuplicates()}

	// Collect the round's evacuations — apps on dead, quarantined, or
	// draining members — and detect a failure storm: the fraction of
	// members down (dead or quarantined) with un-evacuated apps.
	var evacs []evacApp
	downBacklog := 0
	for i := range s.members {
		m := &s.members[i]
		reason := ""
		switch {
		case m.Dead:
			reason = ReasonMachineLost
		case m.Quarantined:
			reason = ReasonQuarantine
		case m.Healthy() && m.Draining:
			reason = ReasonDrain
		default:
			continue
		}
		if reason != ReasonDrain && len(m.Apps) > 0 {
			downBacklog++
		}
		for j := range m.Apps {
			if !s.dup[appKey{m.ID, m.Apps[j].ID}] {
				evacs = append(evacs, evacApp{member: m.ID, app: &m.Apps[j], reason: reason})
			}
		}
	}
	plan.StormActive = !cfg.DisableStormBrake && len(s.members) > 0 &&
		float64(downBacklog) > cfg.StormFraction*float64(len(s.members))
	if plan.StormActive {
		cfg.logf("fleet: storm brake engaged: %d/%d members down with %d apps pending; triaging (budget %d, admission cap %d)",
			downBacklog, len(s.members), len(evacs), min(cfg.MaxMovesPerRound, cfg.StormBudget), cfg.AdmissionCap)
	}
	r.planUrgent(s, evacs, plan.StormActive)

	if len(s.moves) == 0 && !plan.StormActive {
		// Quiet-round passes in priority order, all drawing from the one
		// ledger: inversion repair first (a higher class starved under
		// its floor is worse than any efficiency gap), then drift
		// re-placement, then the imbalance re-pack. Each pass runs only
		// when the ones before it planned nothing, so a round stays
		// single-purpose.
		if r.planPreempt(s) == 0 && r.planDrift(s) == 0 {
			r.planImbalance(s, plan)
		}
	}
	plan.Moves, plan.Deferred, plan.BudgetSpent = s.moves, s.deferred, len(s.moves)
	return plan, ctx.Err()
}

// planUrgent re-homes the round's evacuations in order. Higher classes
// go first: under a tight budget the latency app is re-homed before the
// batch backlog consumes the round (the sort is stable, so all-batch
// fleets keep registration order). Once the ledger is spent the rest is
// deferred undecided.
//
// storm is the degraded mode: a correlated failure has taken down
// enough of the fleet that evacuating everything at once would crush
// the survivors. The ledger is clamped to the storm budget, evacuations
// are triaged within a class by the aggregate GFLOPS their re-placement
// recovers (a pre-score against the current candidates), and no
// survivor admits more than the admission cap; an evacuation no capped
// survivor can take is deferred too. The backlog-based storm detection
// keeps degraded mode active until the backlog drains.
func (r *Rebalancer) planUrgent(s *session, evacs []evacApp, storm bool) {
	if len(evacs) == 0 {
		return
	}
	var admit func(*candidate) bool
	inbound := map[string]int{}
	if !storm {
		sort.SliceStable(evacs, func(a, b int) bool {
			return ClassRank(evacs[a].app.Priority) > ClassRank(evacs[b].app.Priority)
		})
	} else {
		s.budget = min(s.budget, r.cfg.StormBudget)
		// Survivors at their admission cap leave the pool; each decision
		// re-runs against the committed state, so earlier admissions are
		// visible.
		admit = func(c *candidate) bool { return inbound[c.id] < r.cfg.AdmissionCap }
		scores := make(map[*PlacedApp]float64, len(evacs))
		for _, e := range evacs {
			scores[e.app] = math.Inf(-1)
			if d, _, err := s.pick(e.app.EffectiveSpec(), nil); err == nil {
				scores[e.app] = d.Score
			}
		}
		// Class outranks recovered GFLOPS: a latency app is triaged ahead
		// of any batch app, whatever their marginal scores; (member, app
		// ID) breaks ties deterministically.
		sort.Slice(evacs, func(a, b int) bool {
			ea, eb := evacs[a], evacs[b]
			if ra, rb := ClassRank(ea.app.Priority), ClassRank(eb.app.Priority); ra != rb {
				return ra > rb
			}
			if sa, sb := scores[ea.app], scores[eb.app]; sa != sb {
				return sa > sb
			}
			if ea.member != eb.member {
				return ea.member < eb.member
			}
			return ea.app.ID < eb.app.ID
		})
	}
	for _, e := range evacs {
		if s.exhausted() {
			continue
		}
		d, c, err := s.pick(e.app.EffectiveSpec(), admit)
		switch {
		case err == nil:
			s.move(e.app, e.member, e.reason, c, d)
			inbound[c.id]++
		case storm:
			s.deferred++
		default:
			r.cfg.logf("fleet: cannot re-home %s from %s: %v", e.app.ID, e.member, err)
		}
	}
}

// planPreempt is the priority-inversion repair pass: a healthy member
// hosting a higher-class app with more apps than its floor capacity
// (some app there is starved of its guaranteed core) gets its cheapest
// lower-class apps evicted until the demand set fits — or until the
// ledger, the victim supply, or cooldowns stop it. Victims are
// re-homed, never dropped, by the session's evict; partial relief is
// fine because evicting every lower-class app already removes the
// *inversion* even if starvation among equals remains. Returns the
// number of moves planned.
func (r *Rebalancer) planPreempt(s *session) int {
	if r.cfg.DisablePreemption {
		return 0
	}
	planned := len(s.moves)
	for i := range s.members {
		m := &s.members[i]
		c := s.cand(m.ID)
		if c == nil {
			continue // not a placement candidate (dead, draining, ...)
		}
		over := len(c.demand) - FloorCapacity(c.topo)
		if over <= 0 {
			continue
		}
		top := s.rank(m.ID)
		if top == 0 {
			continue // starved, but all one class: nothing to repair
		}
		if s.exhausted() {
			continue
		}
		for _, mv := range s.evict(c, top, min(over, s.budget)) {
			r.cfg.logf("fleet: preempting %s (%s) off %s -> %s to unstarve class rank %d",
				mv.AppID, mv.App.Priority, mv.From, mv.To, top)
		}
	}
	return len(s.moves) - planned
}

// planDrift emits bounded moves for apps whose member coopd confirmed
// drift (fitted model applied). Each drifted app's placement decision
// is re-taken with its effective (fitted) spec against the other
// members; a move is planned only when the fleet-wide gain — the
// destination's marginal minus what the source, valued on its polled
// demand set, loses by releasing the app — is meaningfully positive.
// Frozen apps are skipped, and candidates past the ledger are deferred,
// not planned. Returns the number of moves planned.
func (r *Rebalancer) planDrift(s *session) int {
	planned := len(s.moves)
	for i := range s.members {
		m := &s.members[i]
		c := s.cand(m.ID)
		if c == nil {
			continue
		}
		for j := range m.Apps {
			app := &m.Apps[j]
			if !app.Drifted || app.FittedAI <= 0 || s.frozen(m.ID, app) || s.exhausted() {
				continue
			}
			polled := c.demand[:c.snap]
			withApp, err := r.Scorer.SolveTotal(c.topo, polled)
			if err != nil {
				r.cfg.logf("fleet: scoring %s: %v", m.ID, err)
				continue
			}
			at := slices.Index(c.ids[:c.snap], app.ID)
			if at < 0 {
				continue
			}
			without, err := s.without(c.topo, polled, at)
			if err != nil {
				continue
			}
			d, dst, err := s.pick(app.EffectiveSpec(), func(cc *candidate) bool { return cc != c })
			if err != nil {
				continue
			}
			gain := d.Score - (withApp - without)
			if gain <= 0.01*withApp {
				continue // not worth the churn
			}
			s.move(app, m.ID, ReasonDrift, dst, d)
			r.cfg.logf("fleet: drift re-placement of %s (fitted AI %.3g vs declared %.3g): %s -> %s, gain %+.1f GFLOPS",
				app.ID, app.FittedAI, app.AI, m.ID, d.Member, gain)
		}
	}
	return len(s.moves) - planned
}

// ownedApp is one app the imbalance pass re-packs, with the candidate
// of the member hosting it.
type ownedApp struct {
	c   *candidate
	app *PlacedApp
}

// repack is the imbalance pass's comparison: the current aggregate, the
// greedy re-pack's aggregate, and the member the re-pack homes each app
// on, in re-pack order. key holds the inputs it was computed from (see
// planImbalance). Immutable once memoized.
type repack struct {
	key            []byte
	current, total float64
	targets        []string
}

// planImbalance compares the fleet's current solved aggregate with a
// greedy from-scratch re-pack of the same apps and, when the gap
// exceeds the threshold, emits moves for the apps whose re-pack target
// differs from their current machine. Apps inside their post-move
// cooldown are excluded from the move list (oscillation damping: an
// app the previous round just re-homed must not immediately bounce
// back because the load shifted again), and moves stop once the ledger
// is spent.
//
// The comparison is a pure function of what the key below encodes, so
// the last one is memoized on those exact bytes: a round over a fleet
// whose inputs did not change — the second quiet round of a recovery, a
// fleet at rest — runs no solve. Per placement candidate, in snapshot
// order, the key holds the member ID, domain and topology hash; per
// non-duplicate app, the effective spec's name, AI bits, placement, home
// node and priority. App IDs are not read: targets are per position and
// the moves are built from the live snapshot. The threshold test, the
// cooldown filter and the budget run every round; cooldowns only filter
// the move list, so they are not in the key. A failed re-pack is logged
// and not memoized.
func (r *Rebalancer) planImbalance(s *session, plan *Plan) {
	s.owned, s.key = s.owned[:0], s.key[:0]
	for i := range s.members {
		m := &s.members[i]
		c := s.cand(m.ID)
		if c == nil {
			continue
		}
		s.key = appendKeyString(appendKeyString(s.key, m.ID), m.Domain)
		s.key = binary.LittleEndian.AppendUint64(s.key, r.Scorer.cache.TopologyHash(m.Topology))
		for j := range m.Apps {
			a := &m.Apps[j]
			if s.dup[appKey{m.ID, a.ID}] {
				continue
			}
			s.owned = append(s.owned, ownedApp{c: c, app: a})
			spec := a.EffectiveSpec()
			s.key = append(s.key, 1) // an app follows
			s.key = appendKeyString(s.key, spec.Name)
			s.key = binary.LittleEndian.AppendUint64(s.key, math.Float64bits(spec.AI))
			s.key = appendKeyString(s.key, spec.Placement)
			s.key = binary.AppendVarint(s.key, int64(spec.HomeNode))
			s.key = appendKeyString(s.key, spec.Priority)
		}
		s.key = append(s.key, 0) // end of member
	}
	if len(s.owned) == 0 {
		return
	}
	out, ok := r.memoized(s.key)
	if !ok {
		var err error
		if out, err = r.computeRepack(s); err != nil {
			r.cfg.logf("fleet: imbalance pass: %v", err)
			plan.CurrentGFLOPS = out.current
			return
		}
		out.key = bytes.Clone(s.key)
		r.memoMu.Lock()
		r.memo = out
		r.memoMu.Unlock()
	}
	plan.CurrentGFLOPS, plan.RepackGFLOPS = out.current, out.total
	if out.current >= r.cfg.Threshold*out.total {
		return
	}

	// The gap is worth churn: move the apps the re-pack homes elsewhere.
	// Targets come from the re-pack simulation itself, so the moves land
	// the fleet at (a bounded prefix of) the re-packed assignment.
	for i, o := range s.owned {
		// Damped while cooling down: just moved, let the fleet settle.
		if out.targets[i] == o.c.id || s.frozen(o.c.id, o.app) || s.exhausted() {
			continue
		}
		s.move(o.app, o.c.id, ReasonRebalance, s.cand(out.targets[i]), &Decision{})
	}
}

// appendKeyString appends s length-prefixed.
func appendKeyString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// memoized returns the memoized re-pack when its key is key, counting
// the lookup as reused, or as computed when the caller must re-pack.
func (r *Rebalancer) memoized(key []byte) (repack, bool) {
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	if bytes.Equal(r.memo.key, key) {
		r.repacks.Reused++
		return r.memo, true
	}
	r.repacks.Computed++
	return repack{}, false
}

// computeRepack solves the current aggregate of the session's owned
// apps and re-packs them greedily from scratch. On error the current
// aggregate is set when it was solved.
func (r *Rebalancer) computeRepack(s *session) (out repack, err error) {
	for i := 0; i < len(s.owned); {
		c := s.owned[i].c
		s.demand = s.demand[:0]
		for ; i < len(s.owned) && s.owned[i].c == c; i++ {
			if ra, err := s.owned[i].app.EffectiveSpec().rooflineApp(); err == nil {
				s.demand = append(s.demand, ra)
			}
		}
		total, err := r.Scorer.SolveTotal(c.topo, s.demand)
		if err != nil {
			return repack{}, fmt.Errorf("scoring %s: %w", c.id, err)
		}
		out.current += total
	}

	// Greedy re-pack: fresh candidates (empty demand), every app placed
	// from scratch in deterministic (member ID, app ID) order. It scores
	// with EffectiveSpec — the fitted model when an app has drifted —
	// matching the current aggregate above. Mixing declared AI into the
	// re-pack while the current aggregate reflects measured behaviour
	// would mis-arm the trigger in both directions.
	fresh := s.fresh.reset(s.members, false)
	out.targets = make([]string, len(s.owned))
	for i, o := range s.owned {
		spec := o.app.EffectiveSpec()
		d, c, err := r.Scorer.decide(spec, fresh)
		if err != nil {
			return out, fmt.Errorf("re-packing %s from %s: %w", o.app.ID, o.c.id, err)
		}
		out.targets[i] = d.Member
		c.commit(spec, "")
	}
	for _, c := range fresh {
		total, err := r.Scorer.SolveTotal(c.topo, c.demand)
		if err != nil {
			return out, fmt.Errorf("scoring the re-pack of %s: %w", c.id, err)
		}
		out.total += total
	}
	return out, nil
}

// Repacks returns how the imbalance pass's re-packs went so far.
func (r *Rebalancer) Repacks() RepackMetrics {
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	return r.repacks
}

// Execute applies a plan through the executor: duplicate cleanups
// first, then each move (see Inventory.relocate).
func (r *Rebalancer) Execute(ctx context.Context, plan *Plan) error {
	var firstErr error
	keep := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, sd := range plan.StaleDeregs {
		if err := r.Inv.deregister(ctx, sd.Member, sd.AppID); err != nil {
			keep(fmt.Errorf("fleet: cleaning stale %s on %s: %w", sd.AppID, sd.Member, err))
			continue
		}
		r.cfg.logf("fleet: cleaned stale duplicate %s on revived %s", sd.AppID, sd.Member)
	}
	for _, mv := range plan.Moves {
		placed, err := r.Inv.relocate(ctx, mv)
		if err != nil {
			keep(err)
			continue
		}
		r.cfg.logf("fleet: moved %s: %s -> %s as %s (%s, score %+.1f)",
			mv.AppID, mv.From, mv.To, placed.ID, mv.Reason, mv.Score)
	}
	return firstErr
}

// Round runs one control-loop iteration: poll the fleet, plan, execute.
// Rounds advance the round clock — Plan alone (the HTTP dry run)
// never does, so inspecting a plan has no side effects.
func (r *Rebalancer) Round(ctx context.Context) (*Plan, error) {
	r.Inv.Poll(ctx)
	plan, err := r.Plan(ctx)
	if err != nil {
		return plan, err
	}
	err = r.Execute(ctx, plan)
	r.Inv.endRound()
	return plan, err
}
