package fleet

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/ctrlplane"
	"repro/internal/freelist"
	"repro/internal/machine"
	"repro/internal/roofline"
	"repro/internal/solvecache"
)

// maxSolveCacheEntries bounds the fleet-wide solve memo. 4096 distinct
// (topology, demand multiset) classes is far beyond what a steady fleet
// produces in one planning horizon; the LRU keeps the hot classes
// resident across Placer decisions and Rebalancer rounds.
const maxSolveCacheEntries = 4096

// solveOutcome is one memoized fleet-semantics solve. An exact one is
// the aggregate, and the key's digest with the optimum per-node counts
// per slot of the key (its sorted segment order, whatever order the
// demand arrived in) — the form the solve ships to a member in, and the
// warm-start hint for the +1 neighbour marginal solves next. solved is
// nil for the empty demand set only, and immutable. A below one is what
// a solve against a bar proved when the optimum missed it: the optimum
// lies below total, the bar, and nothing more is known (solved is nil).
// It answers only a question asked with a bar at least as high, and is
// never served as a total (see solveDemand).
type solveOutcome struct {
	total  float64
	solved *ctrlplane.Solved
	below  bool
}

// maxClassIDs bounds a Scorer's class table: the class keys and failure
// domains it has numbered. A decision that finds the table full starts a
// new one, so a table holds at most this many ids plus what one decision
// numbers: room for a 10k-machine fleet of distinct classes and domains.
const maxClassIDs = 1 << 15

// classTable numbers the class keys and failure domains a Scorer's
// decisions read, so decide indexes its per-decision state by small
// integers. A table is never cleared, only replaced (Scorer.table), so
// an id names one key for as long as anything holds it. Candidates are
// pooled across inventories and Scorers, so each remembers the table its
// ids came from (candidate.tab), and a decision in another table numbers
// the candidate again. Safe for concurrent use.
type classTable struct {
	mu      sync.Mutex
	classes map[string]int32
	domains map[string]int32
}

// ids numbers a class key and a failure domain, each on first sight.
func (t *classTable) ids(key []byte, domain string) (class, dom int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	class, ok := t.classes[string(key)] // byte-to-string map lookup: no alloc
	if !ok {
		class = int32(len(t.classes))
		t.classes[string(key)] = class // allocates the key once per class
	}
	if dom, ok = t.domains[domain]; !ok {
		dom = int32(len(t.domains))
		t.domains[domain] = dom
	}
	return class, dom
}

// size is the number of ids the table has handed out.
func (t *classTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.classes) + len(t.domains)
}

// scoreScratch is the per-call reusable state of the scoring hot path,
// pooled so a placement decision allocates nothing for any of it: the
// key builders, the demand+app slice, a miss's demand and hint in slot
// order, and decide's per-decision tables and NUMA-bad candidate filter.
type scoreScratch struct {
	key   solvecache.Key
	ins   solvecache.Key // the with-app key, the class key plus the app
	with  []roofline.App
	slots []roofline.App
	hint  []int

	// stamp numbers decide's decisions: a classes entry is the current
	// decision's when it carries the current stamp. classes and groups
	// are indexed by the ids of the decision's class table.
	stamp   uint64
	classes []classResult // by class id
	groups  []int         // by domain id: the app's cooperating group
	clean   []*candidate
}

// Scorer computes placement scores through the same solve the coopd
// allocator runs (roofline.Search.Solve), so the fleet's predicted
// aggregate matches what the machines actually serve.
//
// Solves are memoized fleet-wide by machine equivalence class — the
// pair (topology hash, sorted demand-key multiset). Two machines with
// identical topologies running interchangeable demand sets share one
// solve, so a homogeneous 10k-machine fleet costs one branch-and-bound
// per *class* per decision, not one per machine. The memo is
// content-addressed: registering or moving an app changes a machine's
// demand multiset and therefore its key, so no explicit invalidation
// exists or is needed — stale classes simply age out of the bounded
// LRU. Every solve runs on the demand in the key's slot order, so its
// cost, its tie-breaks and its stored counts do not depend on arrival
// order or names, and it is the solve a member coopd would run for the
// same key — which is what lets a decision ship it (Decision.solved).
// A marginal's with-app miss warm-starts the branch-and-bound from the
// machine's solved optimum without the app, which cannot change the
// result. One Scorer is safe for concurrent use.
type Scorer struct {
	// DomainSpread enables the failure-domain anti-affinity tie-break:
	// when several machines tie on marginal GFLOPS, the decision prefers
	// the one whose failure domain hosts the fewest members of the app's
	// cooperating group (apps sharing a name prefix), so a whole-rack
	// loss never takes the whole group. Domain never outranks score —
	// with the flag off, decisions are bit-identical to the spread-free
	// path, and both the solve memo below and decide's per-decision class
	// results are domain-free either way (solves depend only on topology
	// and demand). Set before use; not safe to flip concurrently with
	// decisions.
	DomainSpread bool

	// Objective selects the per-machine optimization objective; nil
	// means roofline.ObjTotalGFLOPS, which is bit-identical to the
	// historical total-GFLOPS scorer. Under any other objective every
	// solveOutcome.total — and therefore every marginal, placement
	// score, and Plan aggregate — is in that objective's units, and
	// decisions maximize it instead of raw throughput. The solve memo
	// stays sound because one Scorer has one fixed objective and the
	// demand-key segments include the per-app objective weight. Set
	// before use; not safe to flip concurrently with decisions.
	Objective roofline.ObjectiveSpec

	search  roofline.Search
	cache   *solvecache.Cache[solveOutcome]
	scratch freelist.List[scoreScratch]
	classes atomic.Pointer[classTable]

	// decisions and scored count decide's decisions and the class
	// marginals they scored, ceiling and belowBar the with-app solves a
	// bar answered at the root and after a search (see DecisionMetrics).
	decisions, scored, ceiling, belowBar atomic.Uint64

	// barless decides every class in full, without a bar: the reference
	// the bar's differential tests hold decide to.
	barless bool
}

// NewScorer returns a ready Scorer.
func NewScorer() *Scorer {
	return &Scorer{cache: solvecache.New[solveOutcome](maxSolveCacheEntries)}
}

// CacheStats reports the solve memo's cumulative hit/miss counters.
func (sc *Scorer) CacheStats() (hits, misses uint64) {
	c := sc.cache.Counters()
	return c.Hits, c.Misses
}

// Decisions reports how many decisions the Scorer made, how many class
// marginals they scored and how many of those a bar cut short.
func (sc *Scorer) Decisions() DecisionMetrics {
	return DecisionMetrics{
		Count: sc.decisions.Load(), Classes: sc.scored.Load(),
		Ceiling: sc.ceiling.Load(), BelowBar: sc.belowBar.Load(),
	}
}

// table returns the class table a decision numbers its candidates in:
// the current one, or a new one when the current one is full.
func (sc *Scorer) table() *classTable {
	for {
		t := sc.classes.Load()
		if t != nil && t.size() < maxClassIDs {
			return t
		}
		fresh := &classTable{classes: map[string]int32{}, domains: map[string]int32{}}
		if sc.classes.CompareAndSwap(t, fresh) {
			return fresh
		}
	}
}

// objective is the spec every solve of this Scorer runs under.
func (sc *Scorer) objective() roofline.ObjectiveSpec {
	if sc.Objective == nil {
		return roofline.ObjTotalGFLOPS
	}
	return sc.Objective
}

// demandKey builds the equivalence-class key of (machine, demand) into
// k, tagged with the objective, and returns it with the slot order:
// slot s of the key is demand[perm[s]]. The fleet scores the uncapped
// optimum (see SolveTotal), so every segment carries thread cap 0.
func (sc *Scorer) demandKey(k *solvecache.Key, m *machine.Machine, demand []roofline.App) (key []byte, perm []int) {
	k.Reset(sc.cache.TopologyHash(m), sc.objective().Name())
	for i := range demand {
		k.Add(&demand[i], 0)
	}
	return k.Sort(nil)
}

// solveDemand is the memoized fleet-semantics solve. key, when
// non-nil, is the demand's class key the caller already holds (a
// candidate's cached classKey, or that key with an app inserted): the
// slot order is then sorted only on a miss. without, when non-nil, is the per-slot optimum of demand minus
// its last app; a cache miss warm-starts from it (it cannot change the
// result — see roofline.Search.BestPerNodeCountsFloorSpec). The sort is
// stable, so the other apps keep their relative slot order when the
// last one joins and its slot is the hint's gap.
//
// bar, unless -Inf, is a total the caller can use only if the optimum
// reaches it (a placement's running best, see decide), in one memo
// lookup: an exact entry answers; so does a below entry proven against
// a bar no higher than this one; on a miss the solve runs against the
// bar (roofline.Search.SolveAbove). A miss its root test answers — the
// machine's ceiling with the demand is below the bar — returns below
// without touching the memo; any other solve's outcome, exact or below,
// replaces the key's entry unless the entry answers every bar the
// outcome does (covers), as an exact one that a concurrent solve of the
// key put there meanwhile does. A below outcome's total is the bar.
//
// Without a bar only an exact entry answers, so SolveTotal and the
// before-solves never read a below entry as a total: they solve the key
// again and replace the entry with the exact one. They go through the
// memo's Do, which joins concurrent solves of the key into one, as
// placements, gang rounds and rebalance rounds (under the Placer's
// lock) and /v1/fleet/plan (outside it) can run them; a solve against
// a bar runs on its own.
func (sc *Scorer) solveDemand(m *machine.Machine, demand []roofline.App, key []byte, without []int, bar float64, s *scoreScratch) (solveOutcome, error) {
	if len(demand) == 0 {
		return solveOutcome{}, nil
	}
	var perm []int
	if key == nil {
		key, perm = sc.demandKey(&s.key, m, demand)
	}
	answers := func(o solveOutcome) bool { return o.answers(bar) }
	solve := func() (solveOutcome, error) {
		if perm == nil {
			_, perm = sc.demandKey(&s.key, m, demand)
		}
		s.slots, s.hint = s.slots[:0], s.hint[:0]
		for _, i := range perm {
			s.slots = append(s.slots, demand[i])
		}
		if rest := without; rest != nil {
			for _, i := range perm {
				if i == len(demand)-1 {
					s.hint = append(s.hint, -1)
				} else {
					s.hint, rest = append(s.hint, rest[0]), rest[1:]
				}
			}
		}
		// The score is in the objective's own units: GFLOPS, weighted
		// GFLOPS or min-app GFLOPS.
		counts, total, err := sc.search.SolveAbove(sc.objective(), s.hint, m, s.slots, bar)
		if err != nil {
			return solveOutcome{}, err
		}
		return solveOutcome{total: total, solved: &ctrlplane.Solved{Key: solvecache.Digest(key), Counts: counts}}, nil
	}
	if bar == noBar {
		out, _, err := sc.cache.Do(key, answers, nil, solve)
		return out, err
	}
	if out, hit := sc.cache.Get(key, answers); hit {
		return out, nil
	}
	out, err := solve()
	switch {
	case errors.Is(err, roofline.ErrBelowCeiling):
		sc.ceiling.Add(1)
		return solveOutcome{total: bar, below: true}, nil
	case errors.Is(err, roofline.ErrBelowBar):
		sc.belowBar.Add(1)
		out = solveOutcome{total: bar, below: true}
	case err != nil:
		return solveOutcome{}, err
	}
	sc.put(key, out)
	return out, nil
}

// put stores a solve's outcome under key unless the entry already there
// covers it: a solve against a bar that lost a race to an exact solve of
// the key, or to one against a lower bar, leaves the better entry.
func (sc *Scorer) put(key []byte, out solveOutcome) {
	sc.cache.Put(key, out, func(old solveOutcome) bool { return old.covers(out) })
}

// answers reports whether o answers a question asked with bar (-Inf
// for none): o is exact, or below a bar no higher than this one.
func (o solveOutcome) answers(bar float64) bool { return !o.below || o.total <= bar }

// covers reports whether o answers every question p does: o is exact,
// or both are below and o's bar is no higher than p's.
func (o solveOutcome) covers(p solveOutcome) bool {
	return !o.below || (p.below && o.total <= p.total)
}

// SolveTotal returns the machine's aggregate GFLOPS for the demand set
// under the fleet's solve semantics. An empty demand set scores zero.
// Note MaxThreads caps are not applied here: the cap trims a single
// app's share after the solve on the machine itself, while the fleet
// scores the uncapped optimum — a deliberate simplification documented
// in DESIGN.md (caps are rare and machine-local).
func (sc *Scorer) SolveTotal(m *machine.Machine, demand []roofline.App) (float64, error) {
	s := sc.scratch.Get()
	defer sc.scratch.Put(s)
	out, err := sc.solveDemand(m, demand, nil, nil, noBar, s)
	return out.total, err
}

// marginal returns the placement score of adding app to candidate c,
// its class numbered in t: solved aggregate after minus before. It can
// be negative — a memory-bound app joining a compute-heavy machine drags
// the optimum down — and the Placer uses exactly that to steer the app
// to the bin where it costs the least (or helps the most). decide
// scores one representative per equivalence class through it and keeps
// the with-app solve for the decision to ship. The before-solve is
// looked up under c's class key once and kept on c (candidate.before);
// the with-app key is the class key with the app's segment inserted, so
// a hit sorts nothing. bar, unless -Inf, is the lowest score decide can
// use: the with-app solve runs against bar plus the before total, and
// when it comes back below that (with.below) the marginal is below bar
// and is not computed.
func (sc *Scorer) marginal(c *candidate, t *classTable, app roofline.App, bar float64, s *scoreScratch) (marginal float64, with solveOutcome, err error) {
	key := c.classKey(sc, s, t)
	if c.before.solved == nil {
		if c.before, err = sc.solveDemand(c.topo, c.demand, key, nil, noBar, s); err != nil {
			return 0, solveOutcome{}, err
		}
	}
	var without []int
	if c.before.solved != nil {
		without = c.before.solved.Counts
	}
	s.with = append(append(s.with[:0], c.demand...), app)
	with, err = sc.solveDemand(c.topo, s.with, s.ins.Insert(key, &app, 0), without, bar+c.before.total, s)
	if err != nil || with.below {
		return 0, with, err
	}
	return with.total - c.before.total, with, nil
}

// noBar is the bar of a solve or decision that has none.
var noBar = math.Inf(-1)

// classResult is one equivalence class's scored outcome within the
// decision stamp names: the marginal and the with-app solve; or, with
// with.below, the fact that the marginal is below bar, the decision's
// bar when it was scored; or the fact that the class's solve failed.
// Either way but the first its candidates are skipped, matching the
// per-machine error semantics of the unmemoized path.
type classResult struct {
	stamp  uint64
	score  float64
	with   solveOutcome
	bar    float64
	failed bool
}
