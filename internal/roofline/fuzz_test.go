package roofline

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzzSeeds are FuzzEvaluatorEquivalence's own seeds; the checked-in
// corpus under testdata/fuzz adds more.
var fuzzSeeds = []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 1<<40 + 7, -12345}

// FuzzEvaluatorEquivalence is the property test behind the fast path:
// for any seeded draw of machine (heterogeneous nodes, optional link
// limits), app mix (including NUMA-bad placements) and allocation
// sequence, the incremental Evaluator must be bitwise identical to the
// reference Evaluate. The seed corpus under testdata/fuzz is checked in
// so `go test` replays it on every run;
// `go test -fuzz=FuzzEvaluatorEquivalence ./internal/roofline` explores
// further.
func FuzzEvaluatorEquivalence(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(evaluatorEquivalenceRound)
}

// evaluatorEquivalenceRound is one FuzzEvaluatorEquivalence input.
func evaluatorEquivalenceRound(t *testing.T, seed int64) {
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
	// And the prune on a plateau: compute-bound apps whose saturating
	// leaves tie to the ulp.
	plateauRound(t, r)
	// And the margin that makes the bound admissible on the grid.
	marginRound(t, r)
	// And the served solve: one Search's pooled tables refitted across
	// growing and shrinking draws, its counts and kernel score against
	// the reference solve's.
	servedRound(t, r)
}

// fuzzCorpus is every input `go test` replays for
// FuzzEvaluatorEquivalence: its own seeds, then the checked-in corpus.
func fuzzCorpus(t *testing.T) []int64 {
	t.Helper()
	seeds := append([]int64(nil), fuzzSeeds...)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzEvaluatorEquivalence", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1" and one "int64(N)" line.
		lines := strings.Fields(string(b))
		v := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "int64("), ")")
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seeds = append(seeds, seed)
	}
	return seeds
}
