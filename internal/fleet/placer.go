package fleet

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/machine"
	"repro/internal/roofline"
)

// scoreTieEps is the margin within which two placement scores count as
// tied; ties break to the candidate with fewer apps, then the lower
// member ID, so repeated placements spread instead of piling onto the
// first machine.
const scoreTieEps = 1e-6

// ErrNoCandidate is returned when no healthy, non-draining member can
// host the app.
var ErrNoCandidate = fmt.Errorf("fleet: no healthy member can host the app")

// candidate is one member's scoring state during a decision. The
// rebalancer reuses candidates across several decisions, appending each
// chosen app so later decisions see earlier simulated moves.
type candidate struct {
	id     string
	topo   *machine.Machine
	demand []roofline.App
	apps   int
	bad    int // numa-bad registrations

	// domain and groups exist only under domain-spread: the member's
	// failure domain and its per-cooperating-group app counts (group =
	// app name with the trailing "-<n>" replica suffix stripped). nil
	// groups means spread is off and the candidate carries zero extra
	// state.
	domain string
	groups map[string]int

	// keyBuf holds the candidate's equivalence-class key (topology hash
	// + sorted demand segments), built lazily into a reused backing
	// array and truncated on commit — the only invalidation the
	// content-addressed scheme needs. Empty means unset (a real key is
	// never shorter than the 8 topology-hash bytes).
	keyBuf []byte
}

// groupOf derives an app's cooperating-group label from its name: one
// trailing "-<digits>" replica suffix is stripped, so web-0..web-9 form
// group "web". A name without the suffix is its own group.
func groupOf(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}

// classKey returns the candidate's equivalence-class key, caching it on
// the candidate until the next commit changes the demand set.
func (c *candidate) classKey(sc *Scorer, s *scoreScratch) []byte {
	if len(c.keyBuf) == 0 {
		c.keyBuf = append(c.keyBuf, sc.demandKey(&s.key, c.topo, c.demand)...)
	}
	return c.keyBuf
}

// candidateSet owns reusable scoring candidates: reset rebuilds the set
// from a member snapshot while keeping the candidate structs and their
// demand backing arrays, so the per-decision (and per-rebalance-round)
// allocation cost is amortized to zero. A candidateSet is not safe for
// concurrent use; the Placer pools them per call and the Rebalancer
// serializes rounds with planMu.
type candidateSet struct {
	all []*candidate // grown monotonically; structs and demand reused
	out []*candidate
}

// reset rebuilds the set from healthy, non-draining members (ID order
// preserved from the snapshot). withDemand=false leaves every
// candidate's demand set empty — the imbalance re-pack's from-scratch
// starting state. spread additionally loads each candidate's failure
// domain and per-group app counts for the domain-spread tie-break;
// with it off the candidates carry no domain state at all.
func (cs *candidateSet) reset(members []Member, withDemand, spread bool) []*candidate {
	cs.out = cs.out[:0]
	n := 0
	for i := range members {
		m := &members[i]
		if !m.Healthy() || m.Draining {
			continue
		}
		var c *candidate
		if n < len(cs.all) {
			c = cs.all[n]
		} else {
			c = &candidate{}
			cs.all = append(cs.all, c)
		}
		n++
		c.id, c.topo = m.ID, m.Topology
		c.demand, c.keyBuf = c.demand[:0], c.keyBuf[:0]
		c.apps, c.bad = 0, 0
		c.domain, c.groups = "", nil
		if spread {
			c.domain = m.Domain
			if c.domain == "" {
				c.domain = m.ID // every machine its own domain by default
			}
			c.groups = map[string]int{}
		}
		if withDemand {
			c.demand = appendDemandSet(c.demand, m.Apps)
			c.apps = len(m.Apps)
			c.bad = m.NUMABadApps()
			if spread {
				for _, a := range m.Apps {
					c.groups[groupOf(a.Name)]++
				}
			}
		}
		cs.out = append(cs.out, c)
	}
	return cs.out
}

// candSets pools candidate sets for the Placer's one-shot decisions.
var candSets = sync.Pool{New: func() any { return new(candidateSet) }}

// candidatesFrom builds scoring candidates from healthy, non-draining
// members. One-shot form of candidateSet.reset, kept for tests.
func candidatesFrom(members []Member) []*candidate {
	var cs candidateSet
	return cs.reset(members, true, false)
}

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
// repeated decisions against an unchanged fleet run solve-free.
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
	pool := cands
	if spec.numaBad() {
		var clean []*candidate
		for _, c := range pool {
			if c.bad == 0 {
				clean = append(clean, c)
			}
		}
		if len(clean) > 0 {
			pool = clean
		}
	}
	s := sc.getScratch()
	defer sc.putScratch(s)
	// Domain-spread: count the app's cooperating group per failure
	// domain across the whole fleet (not just the filtered pool — group
	// members on excluded machines still occupy their domain). The
	// counts drive a tie-break only; score always wins first.
	var domCount map[string]int
	var group string
	if sc.DomainSpread {
		group = groupOf(spec.Name)
		domCount = make(map[string]int, 8)
		for _, c := range cands {
			domCount[c.domain] += c.groups[group]
		}
	}
	var classes map[string]classResult
	var dkey []byte // decision-key scratch, only allocated under spread
	var best *candidate
	var bestScore, bestAfter float64
	for _, c := range pool {
		if spec.numaBad() && (spec.HomeNode < 0 || spec.HomeNode >= c.topo.NumNodes()) {
			continue // home node does not exist on this machine
		}
		key := c.classKey(sc, s)
		if sc.DomainSpread {
			// Under spread the decision-level class includes the domain:
			// two machines with identical (topology, demand) but different
			// domains are no longer interchangeable decisions. The
			// Scorer's solve memo stays domain-free — scores depend only
			// on topology and demand, so the class entries here share the
			// same underlying solves.
			dkey = append(append(dkey[:0], key...), c.domain...)
			key = dkey
		}
		r, ok := classes[string(key)] // byte-to-string map lookup: no alloc
		if !ok {
			score, after, err := sc.marginal(c.topo, c.demand, app, s)
			r = classResult{score: score, after: after, failed: err != nil}
			if classes == nil {
				classes = make(map[string]classResult, 4)
			}
			classes[string(key)] = r // allocates the key once per class
		}
		if r.failed {
			continue
		}
		score, after := r.score, r.after
		switch {
		case best == nil, score > bestScore+scoreTieEps:
			best, bestScore, bestAfter = c, score, after
		case score > bestScore-scoreTieEps && tieBreakBetter(domCount, c, best):
			// Tied score: under domain-spread prefer the domain hosting
			// the fewest of the app's cooperating group, then the emptier
			// machine (candidates arrive in ID order, so equal ties keep
			// the first, lowest ID).
			best, bestScore, bestAfter = c, score, after
		}
	}
	if best == nil {
		return nil, nil, ErrNoCandidate
	}
	d := &Decision{
		Member: best.id, Score: bestScore, After: bestAfter,
		Starved: len(best.demand)+1 > FloorCapacity(best.topo),
	}
	return d, best, nil
}

// tieBreakBetter decides score ties: under domain-spread (domCount
// non-nil) the candidate whose failure domain hosts fewer of the app's
// cooperating group wins; the fewer-apps rule breaks remaining ties.
// With domCount nil this is exactly the pre-spread tie-break.
func tieBreakBetter(domCount map[string]int, c, best *candidate) bool {
	if domCount != nil {
		cd, bd := domCount[c.domain], domCount[best.domain]
		if cd != bd {
			return cd < bd
		}
	}
	return c.apps < best.apps
}

// removeDemandAt is commit's inverse for the preemption pass: it drops
// the demand entry at index i (the spec describes the app backing it)
// so subsequent decisions against the candidate see the simulated
// eviction. The cached class key is dropped like commit does.
func (c *candidate) removeDemandAt(i int, spec AppSpec) {
	c.demand = append(c.demand[:i], c.demand[i+1:]...)
	c.apps--
	if spec.numaBad() {
		c.bad--
	}
	if c.groups != nil {
		g := groupOf(spec.Name)
		if n := c.groups[g]; n > 1 {
			c.groups[g] = n - 1
		} else {
			delete(c.groups, g)
		}
	}
	c.keyBuf = c.keyBuf[:0]
}

// commit folds the decided app into the candidate so subsequent
// decisions against the same candidate set see it. The cached class key
// is dropped: the demand multiset changed, so the candidate naturally
// re-keys into its new equivalence class.
func (c *candidate) commit(spec AppSpec) {
	if app, err := spec.rooflineApp(); err == nil {
		c.demand = append(c.demand, app)
	}
	c.apps++
	if spec.numaBad() {
		c.bad++
	}
	if c.groups != nil {
		c.groups[groupOf(spec.Name)]++
	}
	c.keyBuf = c.keyBuf[:0]
}

// Placer assigns incoming apps to fleet members.
type Placer struct {
	Inv    *Inventory
	Scorer *Scorer
	// DisablePreemption turns gang-admission preemption off (mirrors
	// Rebalancer.DisablePreemption; fleetd sets both from one flag).
	DisablePreemption bool
	// OnMoved, when set, is called with each preemption victim's name
	// after its move executes — fleetd wires it to the rebalancer's
	// cooldown clock so gang-admission evictions damp follow-up churn
	// exactly like rebalance moves do.
	OnMoved func(name string)
	// Logf, when set, receives placement logs.
	Logf func(format string, args ...any)
}

// Decide scores the app against the current inventory without
// registering it anywhere (the dry-run behind `coopctl fleet place -n`
// style tooling and the rebalancer's simulations).
func (p *Placer) Decide(spec AppSpec) (*Decision, error) {
	cs := candSets.Get().(*candidateSet)
	defer candSets.Put(cs)
	d, _, err := p.Scorer.decide(spec, cs.reset(p.Inv.Snapshot(), true, p.Scorer.DomainSpread))
	return d, err
}

// Place decides and registers the app on the chosen member's coopd,
// recording the placement in the inventory so immediately following
// decisions score against it.
func (p *Placer) Place(ctx context.Context, spec AppSpec) (*Decision, PlacedApp, error) {
	cs := candSets.Get().(*candidateSet)
	defer candSets.Put(cs)
	d, _, err := p.Scorer.decide(spec, cs.reset(p.Inv.Snapshot(), true, p.Scorer.DomainSpread))
	if err != nil {
		return nil, PlacedApp{}, err
	}
	cli, err := p.Inv.Client(d.Member)
	if err != nil {
		return nil, PlacedApp{}, err
	}
	resp, err := cli.Register(ctx, spec.registerRequest())
	if err != nil {
		return nil, PlacedApp{}, fmt.Errorf("fleet: registering %q on %s: %w", spec.Name, d.Member, err)
	}
	placed := spec.placed(resp.ID)
	p.Inv.noteRegistered(d.Member, placed)
	if p.Logf != nil {
		p.Logf("fleet: placed %s on %s (marginal %+.1f GFLOPS, machine now %.1f)",
			resp.ID, d.Member, d.Score, d.After)
	}
	return d, placed, nil
}
