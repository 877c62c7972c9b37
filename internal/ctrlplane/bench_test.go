package ctrlplane

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/roofline"
	"repro/internal/solvecache"
)

// tableIMix is the paper's Table I demand set: three memory-bound apps
// (AI 0.5) and one compute-bound (AI 10).
func tableIMix() []AppState {
	return []AppState{
		{ID: "mem-a-1", Spec: AppSpec{Name: "mem-a", AI: 0.5}},
		{ID: "mem-b-2", Spec: AppSpec{Name: "mem-b", AI: 0.5}},
		{ID: "mem-c-3", Spec: AppSpec{Name: "mem-c", AI: 0.5}},
		{ID: "comp-4", Spec: AppSpec{Name: "comp", AI: 10}},
	}
}

// BenchmarkAllocateCold measures the full roofline solve: every
// iteration uses a fresh solver, so the exhaustive per-node enumeration
// runs each time. Compare with BenchmarkAllocateCached.
func BenchmarkAllocateCold(b *testing.B) {
	m := machine.PaperModel()
	apps := tableIMix()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewSolver(PolicyRoofline)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solve(m, apps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocateCold8Apps is the cold solve at the ISSUE's scale
// target: eight demand slots on the calibrated 4x20-core topology.
func BenchmarkAllocateCold8Apps(b *testing.B) {
	m := machine.SkylakeQuad()
	apps := eightAppStates()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewSolver(PolicyRoofline)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solve(m, apps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveAdopted8Apps is the same fill satisfied by an offered
// solve: digest compare, validation, the leaf kernel on the counts and
// on the even split — what a member pays at register time when fleetd
// shipped the optimum, against BenchmarkAllocateCold8Apps when it did
// not.
func BenchmarkSolveAdopted8Apps(b *testing.B) {
	m := machine.SkylakeQuad()
	apps := eightAppStates()
	s, err := NewSolver(PolicyRoofline)
	if err != nil {
		b.Fatal(err)
	}
	key, order := s.demandKey(&solvecache.Key{}, m, apps)
	counts, _, err := s.search.Solve(roofline.ObjTotalGFLOPS, nil, m, slotApps(apps, order))
	if err != nil {
		b.Fatal(err)
	}
	offer := &Solved{Key: solvecache.Digest(key), Counts: counts}
	sol := &Solution{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSolver(PolicyRoofline)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.solveInto(sol, m, apps, offer); err != nil {
			b.Fatal(err)
		}
		if s.Metrics().Adopted != 1 {
			b.Fatal("the offer was not adopted")
		}
	}
}

// eightAppStates mirrors the roofline package's eight-app benchmark mix
// as registered control-plane applications.
func eightAppStates() []AppState {
	return []AppState{
		{ID: "stream0-1", Spec: AppSpec{Name: "stream0", AI: 1.0 / 32}},
		{ID: "stream1-2", Spec: AppSpec{Name: "stream1", AI: 1.0 / 32}},
		{ID: "stream2-3", Spec: AppSpec{Name: "stream2", AI: 1.0 / 32}},
		{ID: "dgemm0-4", Spec: AppSpec{Name: "dgemm0", AI: 10}},
		{ID: "dgemm1-5", Spec: AppSpec{Name: "dgemm1", AI: 10}},
		{ID: "mixed0-6", Spec: AppSpec{Name: "mixed0", AI: 1}},
		{ID: "mixed1-7", Spec: AppSpec{Name: "mixed1", AI: 1}},
		{ID: "bad0-8", Spec: AppSpec{Name: "bad0", AI: 1.0 / 16, Placement: roofline.NUMABad, HomeNode: 0}},
	}
}

// BenchmarkAllocateCached measures the steady-state serve path: the
// solver has seen the demand mix, so every request is a cache hit plus
// the per-app slot mapping, into a reused Solution — the allocation-free
// path the server's pooled scratch rides.
func BenchmarkAllocateCached(b *testing.B) {
	m := machine.PaperModel()
	apps := tableIMix()
	s, err := NewSolver(PolicyRoofline)
	if err != nil {
		b.Fatal(err)
	}
	sol := &Solution{}
	if err := s.SolveInto(sol, m, apps); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SolveInto(sol, m, apps); err != nil {
			b.Fatal(err)
		}
		if !sol.FromCache {
			b.Fatal("cache miss in the cached benchmark")
		}
	}
}
