package fleet

import (
	"context"
	"fmt"

	"repro/internal/ctrlplane"
	"repro/internal/machine"
)

// scoreTieEps is the margin within which two placement scores count as
// tied; ties break, under domain-spread, to the candidate whose failure
// domain hosts fewer of the app's cooperating group, then to the one
// with fewer apps, then to the lower member ID, so repeated placements
// spread instead of piling onto the first machine.
const scoreTieEps = 1e-6

// ErrNoCandidate is returned when no healthy, non-draining member can
// host the app.
var ErrNoCandidate = fmt.Errorf("fleet: no healthy member can host the app")

// Decision is the outcome of scoring one app against the fleet.
type Decision struct {
	// Member is the chosen machine.
	Member string
	// Score is the marginal aggregate GFLOPS of the placement (may be
	// negative: the least-bad bin).
	Score float64
	// After is the chosen machine's predicted aggregate with the app.
	After float64
	// Starved marks a placement that over-subscribes the machine's
	// floor capacity: the solve fell back from the one-thread-per-node
	// no-starvation floor to floor zero, so some apps there will run
	// with zero threads. The preemption pass uses it as the admission
	// signal for higher-class apps and gangs.
	Starved bool

	// solved is the chosen machine's solve with the app on it, which the
	// registration that executes the decision offers to the member so it
	// need not run the same search again.
	solved *ctrlplane.Solved
}

// FloorCapacity is the largest demand-set size the machine can host
// floor-feasibly: floor-1 solves give every app at least one thread on
// every node, so the smallest node's core count is the exact bound —
// one more app and the solve falls back to floor 0 (see
// roofline.Search.Solve).
func FloorCapacity(m *machine.Machine) int {
	c := m.Nodes[0].Cores
	for _, n := range m.Nodes[1:] {
		if n.Cores < c {
			c = n.Cores
		}
	}
	return c
}

// decide scores app against every candidate and picks the best bin.
// Candidates are grouped by equivalence class — (topology hash, demand
// multiset) — and each class is scored once per decision: its marginal
// is identical for every member of the class, so a homogeneous fleet
// costs one solve pair per decision instead of one per machine. The
// class scores themselves come from the Scorer's fleet-wide memo, so
// repeated decisions against an unchanged fleet run solve-free. Under
// domain-spread the class is still (topology, demand): the domain only
// breaks score ties, candidate by candidate (tieBreakBetter). Classes
// and domains are ids in the Scorer's class table (classTable).
//
// The scan is a branch-and-bound across classes, in candidate order.
// Once a best exists, a class is scored against a bar, the best score
// minus 2 × scoreTieEps: a marginal below it can neither replace the
// best (it would need to beat it by scoreTieEps) nor tie it (it would
// need to lie within scoreTieEps), so the class's with-app solve need
// only prove it lies below (Scorer.marginal), and the class is skipped
// as the unbarred scan skips it. The second scoreTieEps absorbs the
// roundoff of moving the bar between score and total units. A tie can
// lower the best score, so a class cut against a higher bar is scored
// again when a later candidate of it meets a lower one. The decision —
// member, score, After and the shipped solve — is the unbarred one bit
// for bit (DESIGN.md §4.1).
//
// Anti-affinity: a numa-bad app avoids machines that already host a
// numa-bad demand set — two such sets on one machine serialize on each
// other's home-node bandwidth (the paper's Section III reversal). The
// rule is soft: if every machine already hosts one, the app still
// places on the best-scoring machine rather than being rejected.
func (sc *Scorer) decide(spec AppSpec, cands []*candidate) (*Decision, *candidate, error) {
	app, err := spec.rooflineApp()
	if err != nil {
		return nil, nil, err
	}
	s := sc.scratch.Get()
	defer sc.scratch.Put(s)
	t := sc.table()
	s.stamp++
	bad := spec.numaBad()
	pool := cands
	if bad {
		if s.clean = keepCands(s.clean[:0], cands, func(c *candidate) bool { return c.bad == 0 }); len(s.clean) > 0 {
			pool = s.clean
		}
	}
	// Domain-spread: count the app's cooperating group per failure
	// domain over cands, the candidates decide was handed — under a
	// session.pick keep filter that is the filtered pool, not the whole
	// fleet — numa-bad hosts included. The counts drive a tie-break
	// only; score always wins first.
	var groups []int
	if sc.DomainSpread {
		group := groupOf(spec.Name)
		for _, c := range cands {
			c.classKey(sc, s, t)
			s.groups = grow(s.groups, c.dom)
			s.groups[c.dom] = 0
		}
		for _, c := range cands {
			s.groups[c.dom] += c.groups[group]
		}
		groups = s.groups
	}
	scored := 0
	var best *candidate
	var bestScore float64
	var bestWith solveOutcome
	bar := noBar
	for _, c := range pool {
		if bad && (spec.HomeNode < 0 || spec.HomeNode >= c.topo.NumNodes()) {
			continue // home node does not exist on this machine
		}
		c.classKey(sc, s, t)
		s.classes = grow(s.classes, c.class)
		r := s.classes[c.class]
		if fresh := r.stamp != s.stamp; fresh || r.with.below && bar < r.bar {
			score, with, err := sc.marginal(c, t, app, bar, s)
			r = classResult{stamp: s.stamp, score: score, with: with, bar: bar, failed: err != nil}
			s.classes[c.class] = r
			if fresh {
				scored++
			}
		}
		if r.failed || r.with.below {
			continue
		}
		switch {
		case best == nil, r.score > bestScore+scoreTieEps:
			best, bestScore, bestWith = c, r.score, r.with
		case r.score > bestScore-scoreTieEps && tieBreakBetter(groups, c, best):
			// Tied score: under domain-spread prefer the domain hosting
			// the fewest of the app's cooperating group, then the emptier
			// machine (candidates arrive in ID order, so equal ties keep
			// the first, lowest ID).
			best, bestScore, bestWith = c, r.score, r.with
		}
		if !sc.barless {
			bar = bestScore - 2*scoreTieEps
		}
	}
	sc.decisions.Add(1)
	sc.scored.Add(uint64(scored))
	if best == nil {
		return nil, nil, ErrNoCandidate
	}
	d := &Decision{
		Member: best.id, Score: bestScore, After: bestWith.total,
		Starved: len(best.demand)+1 > FloorCapacity(best.topo),
		solved:  bestWith.solved,
	}
	return d, best, nil
}

// grow returns xs long enough to index i, new entries zero.
func grow[T any](xs []T, i int32) []T {
	if int(i) < len(xs) {
		return xs
	}
	return append(xs, make([]T, int(i)+1-len(xs))...)
}

// tieBreakBetter decides score ties: under domain-spread (groups, the
// app's group count per domain id, non-nil) the candidate whose failure
// domain hosts fewer of the app's cooperating group wins; the fewer-apps
// rule breaks remaining ties. With groups nil this is exactly the
// pre-spread tie-break.
func tieBreakBetter(groups []int, c, best *candidate) bool {
	if groups != nil {
		if cd, bd := groups[c.dom], groups[best.dom]; cd != bd {
			return cd < bd
		}
	}
	return c.apps < best.apps
}

// Placer assigns incoming apps to fleet members. NewServer builds it;
// its knobs are the server's (see ServerConfig).
type Placer struct {
	Inv    *Inventory
	Scorer *Scorer
	cfg    *ServerConfig
}

// Decide scores the app against the current inventory without
// registering it anywhere (the dry-run behind `coopctl fleet place -n`
// style tooling).
func (p *Placer) Decide(spec AppSpec) (*Decision, error) {
	s := openSession(p.Scorer, p.Inv)
	defer s.close()
	d, _, err := s.pick(spec, nil)
	return d, err
}

// Place decides and registers the app on the chosen member's coopd,
// recording the placement in the inventory so immediately following
// decisions score against it.
func (p *Placer) Place(ctx context.Context, spec AppSpec) (*Decision, PlacedApp, error) {
	d, err := p.Decide(spec)
	if err != nil {
		return nil, PlacedApp{}, err
	}
	placed, err := p.Inv.register(ctx, d.Member, spec, 0, d.solved)
	if err != nil {
		return nil, PlacedApp{}, fmt.Errorf("fleet: registering %q on %s: %w", spec.Name, d.Member, err)
	}
	if p.cfg.Logf != nil { // guarded: boxing the arguments is the hot path's only avoidable allocation
		p.cfg.Logf("fleet: placed %s on %s (marginal %+.1f GFLOPS, machine now %.1f)",
			placed.ID, d.Member, d.Score, d.After)
	}
	return d, placed, nil
}
