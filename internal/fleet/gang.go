package fleet

import (
	"context"
	"fmt"
)

// Gang placement policies: where a gang's replicas may land relative
// to each other.
const (
	// GangPack prefers machines already hosting this gang — replicas
	// co-locate (the paper's cooperating-application mix on one
	// machine), spilling to fresh machines only when the solve rejects
	// the packed bin.
	GangPack = "pack"
	// GangSpread prefers failure domains the gang does not occupy yet,
	// falling back to the least-occupied domain once every domain hosts
	// a member. The default.
	GangSpread = "spread"
	// GangStrictSpread requires a fresh failure domain per member: a
	// gang with more replicas than the fleet has unused domains is
	// rejected whole.
	GangStrictSpread = "strict-spread"
)

// checkGangPolicy validates a wire policy string ("" = spread).
func checkGangPolicy(p string) error {
	switch p {
	case "", GangPack, GangSpread, GangStrictSpread:
		return nil
	}
	return fmt.Errorf("fleet: unknown gang policy %q (want %s, %s, or %s)",
		p, GangPack, GangSpread, GangStrictSpread)
}

// GangSpec asks for N replicas of one app template placed atomically:
// either every member registers, or none do.
type GangSpec struct {
	// Name labels the gang; members are named Name-0 .. Name-(N-1), so
	// they form one cooperating group under groupOf.
	Name string `json:"name"`
	// Replicas is the member count (>= 1).
	Replicas int `json:"replicas"`
	// Policy is one of the Gang* constants ("" = spread).
	Policy string `json:"policy,omitempty"`
	// App is the per-member template; its Name is ignored (derived from
	// the gang's), everything else — AI, placement, priority — applies
	// to every member.
	App AppSpec `json:"app"`
}

func (g GangSpec) policy() string {
	if g.Policy == "" {
		return GangSpread
	}
	return g.Policy
}

// member returns the i-th member's concrete spec.
func (g GangSpec) member(i int) AppSpec {
	spec := g.App
	spec.Name = fmt.Sprintf("%s-%d", g.Name, i)
	return spec
}

func (g GangSpec) validate() error {
	if g.Name == "" {
		return fmt.Errorf("fleet: gang needs a name")
	}
	if g.Replicas < 1 {
		return fmt.Errorf("fleet: gang %s: replicas %d, want >= 1", g.Name, g.Replicas)
	}
	if err := checkGangPolicy(g.Policy); err != nil {
		return err
	}
	// The last member carries the longest name.
	return g.member(g.Replicas - 1).Validate()
}

// GangPlacement is one admitted gang member.
type GangPlacement struct {
	// App is the registration as recorded fleet-side.
	App PlacedApp `json:"app"`
	// Member is the hosting machine; Score its marginal aggregate at
	// decision time.
	Member string  `json:"member"`
	Score  float64 `json:"score"`
}

// GangResult is a successful atomic admission.
type GangResult struct {
	Name       string          `json:"name"`
	Policy     string          `json:"policy"`
	Placements []GangPlacement `json:"placements"`
	// Preempted lists the lower-class victims moved to make floor room
	// for the gang (executed before the members registered; they are
	// real placements and are not rolled back on gang failure).
	Preempted []Move `json:"preempted,omitempty"`
}

// gangPlan is the decided-but-unregistered form.
type gangPlan struct {
	members []gangMember
	victims []Move
}

type gangMember struct {
	spec AppSpec
	d    *Decision
}

// PlaceGang admits a gang atomically: plan every member against a
// simulated fleet first (committing each decision so later members see
// earlier ones), then execute — preemption victim moves first, then
// member registrations in order. If any member's registration fails,
// every member registered so far is rolled back, so no partial gang
// survives; a rollback deregistration that itself fails is recorded as
// a stale duplicate for the rebalancer's cleanup pass.
//
// Higher-class gangs preempt: when the best bin for a member would
// over-subscribe its floor capacity, the cheapest lower-class apps
// there are re-homed (see session.evict) before the member lands.
func (p *Placer) PlaceGang(ctx context.Context, g GangSpec) (*GangResult, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	plan, err := p.planGang(g)
	if err != nil {
		return nil, err
	}
	return p.executeGang(ctx, g, plan)
}

// planGang decides every member (and any preemption) in one planning
// session, without touching any machine.
func (p *Placer) planGang(g GangSpec) (*gangPlan, error) {
	policy := g.policy()
	s := openSession(p.Scorer, p.Inv)
	defer s.close()
	if len(s.cands) == 0 {
		return nil, ErrNoCandidate
	}
	rank := ClassRank(g.App.Priority)

	plan := &gangPlan{}
	chosen := make(map[string]bool, g.Replicas) // member IDs hosting the gang
	domUsed := make(map[string]int, g.Replicas) // gang members per domain
	for i := 0; i < g.Replicas; i++ {
		spec := g.member(i)
		var keep func(*candidate) bool
		switch policy {
		case GangPack:
			keep = func(c *candidate) bool { return chosen[c.id] }
		case GangSpread:
			// Prefer untouched domains; once every domain hosts a member,
			// prefer the least-loaded ones.
			minUsed := domUsed[s.cands[0].domain]
			for _, c := range s.cands {
				minUsed = min(minUsed, domUsed[c.domain])
			}
			keep = func(c *candidate) bool { return domUsed[c.domain] == minUsed }
		case GangStrictSpread:
			keep = func(c *candidate) bool { return domUsed[c.domain] == 0 }
		}
		d, c, err := s.pick(spec, keep)
		switch {
		case err != nil && policy == GangPack:
			// Packed bins full (or none yet): spill to the whole fleet.
			d, c, err = s.pick(spec, nil)
		case policy == GangStrictSpread && len(s.pool) == 0:
			return nil, fmt.Errorf("fleet: gang %s: no unused failure domain for member %d of %d (strict-spread)",
				g.Name, i+1, g.Replicas)
		}
		if err != nil {
			return nil, fmt.Errorf("fleet: gang %s: member %d of %d: %w", g.Name, i+1, g.Replicas, err)
		}
		if d.Starved && rank > 0 && !p.cfg.DisablePreemption {
			// Make floor room: evict the cheapest lower-class apps from
			// the chosen bin, then re-take the decision against it.
			need := len(c.demand) + 1 - FloorCapacity(c.topo)
			if len(s.evict(c, rank, need)) > 0 {
				if d2, _, err := s.pick(spec, func(cc *candidate) bool { return cc == c }); err == nil {
					d = d2
				}
			}
		}
		c.commit(spec, "")
		chosen[c.id] = true
		domUsed[c.domain]++
		plan.members = append(plan.members, gangMember{spec: spec, d: d})
	}
	plan.victims = s.moves
	return plan, nil
}

// executeGang applies a plan: victims move first (drain-then-place,
// like the rebalancer), then members register in order, rolling back
// on the first failure.
func (p *Placer) executeGang(ctx context.Context, g GangSpec, plan *gangPlan) (*GangResult, error) {
	res := &GangResult{Name: g.Name, Policy: g.policy()}
	for _, mv := range plan.victims {
		if _, err := p.Inv.relocate(ctx, mv); err != nil {
			// The victim stays put; the gang proceeds (possibly starved)
			// and the rebalancer's repair pass retries next round.
			p.cfg.logf("fleet: gang %s: victim: %v", g.Name, err)
			continue
		}
		res.Preempted = append(res.Preempted, mv)
		p.cfg.logf("fleet: gang %s: preempted %s (%s) %s -> %s", g.Name, mv.AppID, mv.App.Priority, mv.From, mv.To)
	}

	for _, m := range plan.members {
		placed, err := p.Inv.register(ctx, m.d.Member, m.spec, 0, m.d.solved)
		if err != nil {
			return nil, p.rollbackGang(ctx, g, res.Placements,
				fmt.Errorf("registering %q on %s: %w", m.spec.Name, m.d.Member, err))
		}
		res.Placements = append(res.Placements, GangPlacement{App: placed, Member: m.d.Member, Score: m.d.Score})
	}
	for _, gp := range res.Placements {
		p.cfg.logf("fleet: gang %s: %s on %s (marginal %+.1f GFLOPS)", g.Name, gp.App.ID, gp.Member, gp.Score)
	}
	return res, nil
}

// rollbackGang deregisters the members admitted before cause, so no
// partial gang survives.
func (p *Placer) rollbackGang(ctx context.Context, g GangSpec, registered []GangPlacement, cause error) error {
	for _, gp := range registered {
		if err := p.Inv.deregister(ctx, gp.Member, gp.App.ID); err != nil {
			// Unreachable mid-rollback: mark the orphan stale so the
			// rebalancer's duplicate cleanup removes it when the
			// machine answers again.
			p.Inv.noteStale(gp.Member, gp.App.ID)
			p.cfg.logf("fleet: gang %s: rollback of %s on %s failed (marked stale): %v",
				g.Name, gp.App.ID, gp.Member, err)
		}
	}
	return fmt.Errorf("fleet: gang %s: admission failed, rolled back %d registered members: %w",
		g.Name, len(registered), cause)
}
