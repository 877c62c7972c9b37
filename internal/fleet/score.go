package fleet

import (
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

// solveOutcome is one memoized fleet-semantics solve: the aggregate and
// the optimum per-node counts, kept as the warm-start hint for the ±1
// neighbour solves marginal runs next.
type solveOutcome struct {
	total  float64
	counts []int
}

// scoreScratch is the per-call reusable state of the scoring hot path:
// the key builder and the demand+app slice, pooled so a placement
// decision allocates nothing for either.
type scoreScratch struct {
	key  solvecache.Key
	with []roofline.App
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
// LRU. Cache misses warm-start the branch-and-bound from the memoized
// optimum of the ±1-app neighbour when one is at hand, which cannot
// change the result. One Scorer is safe for concurrent use.
type Scorer struct {
	// DomainSpread enables the failure-domain anti-affinity tie-break:
	// when several machines tie on marginal GFLOPS, the decision prefers
	// the one whose failure domain hosts the fewest members of the app's
	// cooperating group (apps sharing a name prefix), so a whole-rack
	// loss never takes the whole group. Domain never outranks score —
	// with the flag off, decisions are bit-identical to the spread-free
	// path, and the solve memo below is domain-free either way (solves
	// depend only on topology and demand, so the PR-8 cache stays
	// sound). Set before use; not safe to flip concurrently with
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

// objective is the spec every solve of this Scorer runs under.
func (sc *Scorer) objective() roofline.ObjectiveSpec {
	if sc.Objective == nil {
		return roofline.ObjTotalGFLOPS
	}
	return sc.Objective
}

// demandKey builds the equivalence-class key of (machine, demand) into
// k, tagged with the objective. The fleet scores the uncapped optimum
// (see SolveTotal), so every segment carries thread cap 0.
func (sc *Scorer) demandKey(k *solvecache.Key, m *machine.Machine, demand []roofline.App) []byte {
	k.Reset(sc.cache.TopologyHash(m), sc.objective().Name())
	for i := range demand {
		k.Add(&demand[i], 0)
	}
	key, _ := k.Sort(nil)
	return key
}

// solveDemand is the memoized fleet-semantics solve. hint, when
// non-nil, warm-starts a cache miss from a ±1-app neighbour's optimum
// (it cannot change the result — see
// roofline.Search.BestPerNodeCountsFloorSpec).
func (sc *Scorer) solveDemand(m *machine.Machine, demand []roofline.App, hint []int, s *scoreScratch) (solveOutcome, error) {
	if len(demand) == 0 {
		return solveOutcome{}, nil
	}
	out, _, err := sc.cache.Do(sc.demandKey(&s.key, m, demand), func() (solveOutcome, error) {
		spec := sc.objective()
		counts, _, res, _, err := sc.search.Solve(spec, hint, m, demand)
		if err != nil {
			return solveOutcome{}, err
		}
		total := res.TotalGFLOPS
		if spec != roofline.ObjTotalGFLOPS {
			// Non-default objectives score in their own units (weighted
			// GFLOPS, min-app GFLOPS); the default path never builds the
			// closure.
			total = spec.Objective(demand)(res)
		}
		return solveOutcome{total: total, counts: counts}, nil
	})
	return out, err
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
	out, err := sc.solveDemand(m, demand, nil, s)
	return out.total, err
}

// Marginal returns the placement score of adding app to a machine with
// the given demand set: solved aggregate after minus before. It can be
// negative — a memory-bound app joining a compute-heavy machine drags
// the optimum down — and the Placer uses exactly that to steer the app
// to the bin where it costs the least (or helps the most).
func (sc *Scorer) Marginal(m *machine.Machine, demand []roofline.App, app roofline.App) (marginal, after float64, err error) {
	s := sc.scratch.Get()
	defer sc.scratch.Put(s)
	return sc.marginal(m, demand, app, s)
}

// marginal is Marginal on the caller's scratch; decide scores one
// representative per equivalence class through it.
func (sc *Scorer) marginal(m *machine.Machine, demand []roofline.App, app roofline.App, s *scoreScratch) (marginal, after float64, err error) {
	before, err := sc.solveDemand(m, demand, nil, s)
	if err != nil {
		return 0, 0, err
	}
	s.with = append(append(s.with[:0], demand...), app)
	afterOut, err := sc.solveDemand(m, s.with, before.counts, s)
	if err != nil {
		return 0, 0, err
	}
	return afterOut.total - before.total, afterOut.total, nil
}

// classResult is one equivalence class's scored outcome within a single
// decision: the marginal, the predicted after, or the fact that the
// class's solve failed (its candidates are skipped, matching the
// per-machine error semantics of the unmemoized path).
type classResult struct {
	score  float64
	after  float64
	failed bool
}
