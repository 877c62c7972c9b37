package fleetsim

import (
	"fmt"
	"sort"

	"repro/internal/fleet"
)

// Violation is one invariant failure, pinned to the round it surfaced.
type Violation struct {
	Round     int    `json:"round"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// Verdict is the machine-readable outcome of one scenario run — the
// artifact `cmd/fleetsim` writes and CI uploads.
type Verdict struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Rounds   int    `json:"rounds"`
	Passed   bool   `json:"passed"`
	// Violations is empty when Passed.
	Violations []Violation `json:"violations,omitempty"`

	// Churn accounting across the whole run.
	TotalMoves    int            `json:"total_moves"`
	MovesByReason map[string]int `json:"moves_by_reason,omitempty"`
	Deferred      int            `json:"deferred"`
	MaxRoundMoves int            `json:"max_round_moves"`

	// LastPerturbRound is the last round the trace (or a drift
	// confirmation) changed the fleet's inputs; LastActiveRound is the
	// last round the rebalancer still planned work. Convergence demands
	// LastActiveRound <= LastPerturbRound + ConvergeWithin.
	LastPerturbRound int `json:"last_perturb_round"`
	LastActiveRound  int `json:"last_active_round"`

	// DriftConfirmed lists apps whose streamed telemetry confirmed a
	// mis-declared model, with the fitted AI each converged to.
	DriftConfirmed map[string]float64 `json:"drift_confirmed,omitempty"`

	// FinalAggregateGFLOPS sums healthy members' solved aggregates
	// after the last round.
	FinalAggregateGFLOPS float64 `json:"final_aggregate_gflops"`

	// LeaderKills counts kill_leader events survived.
	LeaderKills int `json:"leader_kills,omitempty"`

	// StormRounds counts rounds the rebalancer spent in degraded-mode
	// triage (storm brake engaged).
	StormRounds int `json:"storm_rounds,omitempty"`

	// InversionRounds counts rounds in which at least one member hosted
	// a priority inversion (a higher-class app starved past the floor
	// while lower classes held slots). A trace that creates an inversion
	// should show a positive count even when preemption repairs it well
	// inside the tolerance — proof the invariant was exercised, not
	// vacuous.
	InversionRounds int `json:"inversion_rounds,omitempty"`

	// UpgradeState and Upgraded report the rolling-upgrade controller's
	// final state and how many machines completed their drain cycle.
	UpgradeState string `json:"upgrade_state,omitempty"`
	Upgraded     int    `json:"upgraded,omitempty"`
}

// moveRecord is one executed move in the oscillation ledger.
type moveRecord struct {
	round  int
	from   string
	to     string
	reason string
}

// checker accumulates per-round state for the stability invariants.
type checker struct {
	sc         *Scenario
	window     int // the no-oscillation window, in rounds
	violations []Violation
	history    map[string][]moveRecord // app name -> executed moves
	lostFrom   map[string]int          // member ID -> urgent evacuations charged to it
	// inversionSince tracks, per member, the first round of its current
	// priority-inversion streak (absent: not inverted); inversionFlagged
	// marks streaks already reported, so one sustained inversion is one
	// violation, not one per round past the tolerance.
	inversionSince   map[string]int
	inversionFlagged map[string]bool
}

// newChecker builds the checker for sc on a fleet whose resolved
// CooldownRounds is cooldown.
func newChecker(sc *Scenario, cooldown int) *checker {
	return &checker{
		sc: sc, window: sc.oscillationWindow(cooldown), history: map[string][]moveRecord{}, lostFrom: map[string]int{},
		inversionSince: map[string]int{}, inversionFlagged: map[string]bool{},
	}
}

func (c *checker) violate(round int, invariant, format string, args ...any) {
	c.violations = append(c.violations, Violation{
		Round:     round,
		Invariant: invariant,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// checkBudget enforces the bounded-churn invariant on one round's plan:
// the moves the plan carries — urgent, drift, and imbalance combined —
// never exceed the round's global budget.
func (c *checker) checkBudget(round int, plan *fleet.Plan) {
	if plan.Budget <= 0 {
		c.violate(round, "bounded-churn", "plan carries no move budget (budget=%d)", plan.Budget)
		return
	}
	if len(plan.Moves) > plan.Budget {
		c.violate(round, "bounded-churn", "%d moves planned against a budget of %d", len(plan.Moves), plan.Budget)
	}
	if plan.BudgetSpent != len(plan.Moves) {
		c.violate(round, "bounded-churn", "plan reports %d budget spent for %d moves", plan.BudgetSpent, len(plan.Moves))
	}
}

// checkExactlyOnce enforces placement uniqueness over the inventory
// snapshot: every app name appears on at most one member. Registrations
// listed in a member's Stale set are re-home leftovers awaiting cleanup
// on a revived machine — known duplicates, exempt until the rebalancer
// deregisters them.
func (c *checker) checkExactlyOnce(round int, members []fleet.Member) {
	hosts := map[string][]string{}
	for _, m := range members {
		stale := map[string]bool{}
		for _, id := range m.Stale {
			stale[id] = true
		}
		for _, a := range m.Apps {
			if stale[a.ID] {
				continue
			}
			hosts[a.Name] = append(hosts[a.Name], m.ID)
		}
	}
	names := make([]string, 0, len(hosts))
	for name := range hosts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if on := hosts[name]; len(on) > 1 {
			c.violate(round, "exactly-once", "app %s placed on %d machines: %v", name, len(on), on)
		}
	}
}

// recordMoves feeds the round's executed moves into the oscillation
// ledger and checks the no-bounce invariant: an app sent A→B by the
// drift or imbalance pass must not return B→A within the window. Pairs
// where either leg is urgent (machine lost, drain) are exempt — losing
// a machine and later re-packing onto its replacement is recovery, not
// thrash.
func (c *checker) recordMoves(round int, plan *fleet.Plan) {
	window := c.window
	for _, mv := range plan.Moves {
		rec := moveRecord{round: round, from: mv.From, to: mv.To, reason: mv.Reason}
		if rec.reason == fleet.ReasonDrift || rec.reason == fleet.ReasonRebalance {
			for _, prev := range c.history[mv.App.Name] {
				if prev.reason != fleet.ReasonDrift && prev.reason != fleet.ReasonRebalance {
					continue
				}
				if prev.from == rec.to && prev.to == rec.from && round-prev.round <= window {
					c.violate(round, "no-oscillation",
						"app %s bounced %s->%s (round %d) then %s->%s (round %d) within window %d",
						mv.App.Name, prev.from, prev.to, prev.round, rec.from, rec.to, round, window)
				}
			}
		}
		c.history[mv.App.Name] = append(c.history[mv.App.Name], rec)
		// Flap-churn: a machine that keeps dying and reviving must stop
		// generating evacuations once the quarantine detector has had a
		// fair look at it. Urgent legs are exempt from the oscillation
		// pairing above, so without this cap a flapping member could churn
		// the fleet forever while every individual leg looks legitimate.
		if limit := c.sc.MaxMachineLostPerMember; limit > 0 &&
			(rec.reason == fleet.ReasonMachineLost || rec.reason == fleet.ReasonQuarantine) {
			c.lostFrom[mv.From]++
			if got := c.lostFrom[mv.From]; got > limit {
				c.violate(round, "flap-churn",
					"member %s generated %d urgent evacuations (max %d) — flapping machine never quarantined?",
					mv.From, got, limit)
			}
		}
	}
}

// checkStorm enforces the degraded-mode triage bounds on one round's
// plan: under a correlated-failure storm, urgent evacuations stay under
// the storm budget, and no single survivor admits more than the
// per-round admission cap. Both checks apply whether or not the brake
// is engaged — that asymmetry is the point: a scenario that disables
// the brake must visibly violate these to prove the brake matters.
func (c *checker) checkStorm(round int, plan *fleet.Plan) {
	evac, inbound := 0, map[string]int{}
	for _, mv := range plan.Moves {
		if mv.Reason != fleet.ReasonMachineLost && mv.Reason != fleet.ReasonQuarantine {
			continue
		}
		evac++
		inbound[mv.To]++
	}
	if b := c.sc.StormBudget; b > 0 && evac > b {
		c.violate(round, "bounded-churn",
			"%d urgent evacuations in one round against a storm budget of %d", evac, b)
	}
	if capN := c.sc.SurvivorAdmissionCap; capN > 0 {
		tos := make([]string, 0, len(inbound))
		for to := range inbound {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if got := inbound[to]; got > capN {
				c.violate(round, "survivor-admission",
					"survivor %s admitted %d evacuations in one round (cap %d)", to, got, capN)
			}
		}
	}
}

// checkCapacityFloor enforces the rolling-upgrade safety bound: the
// fraction of members that are placement targets (healthy and not
// draining) never dips below MinPlaceableFraction. A naive all-at-once
// upgrade drains the whole fleet and fails this immediately.
func (c *checker) checkCapacityFloor(round int, members []fleet.Member) {
	f := c.sc.MinPlaceableFraction
	if f <= 0 || len(members) == 0 {
		return
	}
	placeable := 0
	for _, m := range members {
		if m.Healthy() && !m.Draining {
			placeable++
		}
	}
	if float64(placeable) < f*float64(len(members)) {
		c.violate(round, "capacity-floor",
			"only %d/%d members placeable, below floor %.2f", placeable, len(members), f)
	}
}

// checkPriorityInversion enforces the no-priority-inversion invariant,
// armed by InversionToleranceRounds: a healthy, non-draining member
// whose (non-stale) demand exceeds its floor capacity while it hosts a
// latency- or system-class app alongside lower-class ones is inverted —
// the higher class is starved of a guaranteed core while batch work
// holds slots the preemption pass should reclaim. Transient inversions
// are expected (an urgent evacuation lands a latency app on a full
// machine; the repair pass runs on the next quiet round), so only a
// streak persisting past the tolerance is a violation. Returns whether
// any member is inverted this round, whatever the tolerance, so the
// verdict can count exercised rounds.
func (c *checker) checkPriorityInversion(round int, members []fleet.Member) bool {
	any := false
	for i := range members {
		m := &members[i]
		inverted := false
		if m.Healthy() && !m.Draining && m.Topology != nil {
			stale := map[string]bool{}
			for _, id := range m.Stale {
				stale[id] = true
			}
			apps, top, classes := 0, 0, map[int]bool{}
			for _, a := range m.Apps {
				if stale[a.ID] {
					continue
				}
				apps++
				rank := fleet.ClassRank(a.Priority)
				classes[rank] = true
				if rank > top {
					top = rank
				}
			}
			lower := false
			for rank := range classes {
				if rank < top {
					lower = true
				}
			}
			inverted = apps > fleet.FloorCapacity(m.Topology) && top > 0 && lower
		}
		if !inverted {
			delete(c.inversionSince, m.ID)
			delete(c.inversionFlagged, m.ID)
			continue
		}
		any = true
		since, ok := c.inversionSince[m.ID]
		if !ok {
			since = round
			c.inversionSince[m.ID] = round
		}
		tol := c.sc.InversionToleranceRounds
		if tol > 0 && round-since+1 > tol && !c.inversionFlagged[m.ID] {
			c.inversionFlagged[m.ID] = true
			c.violate(round, "priority-inversion",
				"member %s has hosted a starved higher-class app over its floor capacity for %d rounds (tolerance %d) — preemption never repaired it",
				m.ID, round-since+1, tol)
		}
	}
	return any
}

// checkReadmission runs after the last round's poll: every member named
// in FinalMinApps must host at least that many non-stale apps. This is
// the quarantine-forgiveness teeth — a member the flap detector benched
// and later re-admitted must actually win placements back under
// sustained load, not just flip a health bit.
func (c *checker) checkReadmission(members []fleet.Member) {
	if len(c.sc.FinalMinApps) == 0 {
		return
	}
	byID := map[string]*fleet.Member{}
	for i := range members {
		byID[members[i].ID] = &members[i]
	}
	ids := make([]string, 0, len(c.sc.FinalMinApps))
	for id := range c.sc.FinalMinApps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		min := c.sc.FinalMinApps[id]
		m := byID[id]
		if m == nil {
			c.violate(c.sc.Rounds-1, "readmission", "member %s missing from the final snapshot (want >= %d apps)", id, min)
			continue
		}
		stale := map[string]bool{}
		for _, sid := range m.Stale {
			stale[sid] = true
		}
		apps := 0
		for _, a := range m.Apps {
			if !stale[a.ID] {
				apps++
			}
		}
		if apps < min {
			c.violate(c.sc.Rounds-1, "readmission",
				"member %s finished with %d apps, want >= %d (quarantined=%v dead=%v) — never won placements back",
				id, apps, min, m.Quarantined, m.Dead)
		}
	}
}

// checkConvergence runs after the last round: once the trace stopped
// perturbing the fleet (lastPerturb), plans must drain to empty within
// ConvergeWithin rounds and stay empty (lastActive is the last round
// that planned moves, cleanups, or deferrals).
func (c *checker) checkConvergence(lastPerturb, lastActive int) {
	k := c.sc.convergeWithin()
	if lastActive > lastPerturb+k {
		c.violate(lastActive, "convergence",
			"rebalancer still active at round %d, %d rounds after the last perturbation (round %d, tolerance %d)",
			lastActive, lastActive-lastPerturb, lastPerturb, k)
	}
}
