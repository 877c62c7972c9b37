package roofline

import (
	"math/rand"
	"testing"
)

// FuzzEvaluatorEquivalence is the property test behind the fast path:
// for any seeded draw of machine (heterogeneous nodes, optional link
// limits), app mix (including NUMA-bad placements), options ablation,
// and allocation sequence, the incremental Evaluator must be bitwise
// identical to the reference EvaluateOpts. The seed corpus under
// testdata/fuzz is checked in so `go test` replays it on every run;
// `go test -fuzz=FuzzEvaluatorEquivalence ./internal/roofline` explores
// further.
func FuzzEvaluatorEquivalence(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Add(int64(1<<40 + 7))
	f.Add(int64(-12345))
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		differentialRound(t, r)
		// Same seed also drives the floor-search equivalence: NUMA-bad
		// demand under MinPerNode-style floors >= 1 — the scoring path
		// the fleet placer calls for every placement decision.
		floorSearchRound(t, r)
		// And the warm-start equivalence: ±1-app solves seeded from a
		// neighbour's optimum must stay bit-identical to cold solves.
		warmStartRound(t, r)
		// And the objective-spec equivalence: total-GFLOPS through the
		// ObjectiveSpec interface vs the legacy Search, plus pruned vs
		// unpruned solves for every bounded objective (admissibility).
		objectiveRound(t, r)
		// And the leaf-kernel equivalence: every leaf of a draw with
		// shared and singleton node classes, several NUMA-bad homes,
		// weights and zero-thread rows, against the reference model.
		kernelRound(t, r)
		// And symmetry breaking: demand sets made of runs of identical
		// apps, against the naive enumeration with and without the
		// canonical-row restriction.
		orbitRound(t, r)
		// And the range prune of the last app's leaves on a plateau:
		// compute-bound apps whose saturating leaves tie to the ulp.
		plateauRound(t, r)
	})
}
