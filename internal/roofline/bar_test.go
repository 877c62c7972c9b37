package roofline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/machine"
)

// TestSolveAboveMatchesSolve is SolveAbove's contract over seeded
// draws: where the optimum's grid level reaches the bar's, counts and
// score bits equal Solve's; below it the answer is ErrBelowBar; and no
// bar (-Inf or NaN) is Solve itself, work counts included.
func TestSolveAboveMatchesSolve(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		barRound(t, rand.New(rand.NewSource(seed)))
	}
}

// TestSolveAboveRootTest: a bar above the machine's roofline ceiling is
// answered at the root — ErrBelowCeiling, one bound evaluation, no
// search, no leaf — and a bar at the optimum is not.
func TestSolveAboveRootTest(t *testing.T) {
	m, apps := machine.SkylakeQuad(), tableIIIApps()
	var s Search
	_, score, err := s.Solve(ObjTotalGFLOPS, nil, m, apps)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if _, _, err := s.SolveAbove(ObjTotalGFLOPS, nil, m, apps, m.PeakGFLOPS()+1); !errors.Is(err, ErrBelowCeiling) {
		t.Fatalf("SolveAbove over the peak = %v, want ErrBelowCeiling", err)
	}
	if got := s.Stats(); got.Solves != before.Solves || got.Leaves != before.Leaves || got.Bounds != before.Bounds+1 {
		t.Errorf("root test worked %+v -> %+v, want one bound evaluation and nothing else", before, got)
	}
	if _, got, err := s.SolveAbove(ObjTotalGFLOPS, nil, m, apps, score); err != nil || got != score {
		t.Errorf("SolveAbove at the optimum = %v, %v; want %v", got, err, score)
	}
}

// barRound is one SolveAbove draw: a random machine and demand set,
// every built-in spec, and bars around the optimum — at it, one level
// above and below it, at the level boundary, far below and above, and a
// random one — each with and without the optimum as a warm-start hint.
func barRound(t *testing.T, r *rand.Rand) {
	t.Helper()
	m := randomMachine(r)
	apps := randomApps(r, m)
	for i := range apps {
		if r.Intn(2) == 0 {
			apps[i].Weight = float64(1 + r.Intn(4))
		}
	}
	g := NewScoreGrid(m)
	for _, spec := range []ObjectiveSpec{ObjTotalGFLOPS, ObjWeightedPriority, ObjMaxMinGFLOPS} {
		label := fmt.Sprintf("%s (%d apps, %d nodes)", spec.Name(), len(apps), m.NumNodes())
		var ref Search
		want, score, err := ref.Solve(spec, nil, m, apps)
		if err != nil {
			t.Fatalf("%s: Solve: %v", label, err)
		}
		refStats := ref.Stats()
		for _, none := range []float64{math.Inf(-1), math.NaN()} {
			var s Search
			counts, got, err := s.SolveAbove(spec, nil, m, apps, none)
			if err != nil || got != score || !slices.Equal(counts, want) || s.Stats() != refStats {
				t.Fatalf("%s: SolveAbove(%v) = %v %v %v %+v, want Solve's %v %v %+v", label, none, counts, got, err, s.Stats(), want, score, refStats)
			}
		}
		level := g.Level(score)
		bars := []float64{
			score, (level + 1) * g.Q, level * g.Q, (level - 1) * g.Q,
			score / 2, 2*score + 1, r.Float64() * 2 * score, math.Nextafter(score, math.Inf(1)),
		}
		var s Search
		for _, bar := range bars {
			for _, prev := range [][]int{nil, want} {
				counts, got, err := s.SolveAbove(spec, prev, m, apps, bar)
				if g.Level(bar) > level {
					if !errors.Is(err, ErrBelowBar) {
						t.Fatalf("%s: bar %v above the optimum %v: %v %v %v, want ErrBelowBar", label, bar, score, counts, got, err)
					}
					continue
				}
				if err != nil || got != score || !slices.Equal(counts, want) {
					t.Fatalf("%s: bar %v (optimum %v reaches it), hint %v: %v %v %v, want %v %v",
						label, bar, score, prev, counts, got, err, want, score)
				}
			}
		}
	}
}
