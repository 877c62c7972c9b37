package roofline

import (
	"runtime"
	"testing"

	"repro/internal/machine"
)

// eightAppMix is the scaled workload for the solve benchmarks: eight
// applications spanning bandwidth-bound, compute-bound, mixed, and one
// NUMA-bad, on the calibrated 4x20-core Skylake topology.
func eightAppMix() []App {
	return []App{
		{Name: "stream0", AI: 1.0 / 32},
		{Name: "stream1", AI: 1.0 / 32},
		{Name: "stream2", AI: 1.0 / 32},
		{Name: "dgemm0", AI: 10},
		{Name: "dgemm1", AI: 10},
		{Name: "mixed0", AI: 1},
		{Name: "mixed1", AI: 1},
		{Name: "bad0", AI: 1.0 / 16, Placement: NUMABad, HomeNode: 0},
	}
}

// BenchmarkSolveColdTableI is the paper's Table I search (4 apps,
// floor 1) through the pruned Search, worker pool cold.
func BenchmarkSolveColdTableI(b *testing.B) {
	m := machine.PaperModel()
	apps := paperApps()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s Search
		if _, _, _, err := s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, m, apps, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveCold8Apps is the scaled search: 8 apps on 4x20 cores,
// floor 1 — C(12+8,8) = 125970 per-node-counts candidates before
// pruning. This is the ISSUE's >=5x target workload.
func BenchmarkSolveCold8Apps(b *testing.B) {
	m := machine.SkylakeQuad()
	apps := eightAppMix()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s Search
		if _, _, _, err := s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, m, apps, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveColdSkylakeDiverse is the solve place_diverse spends
// most of its search time in: five apps of its generator on SkylakeQuad
// (skylakeDiverseApps), all at core peak, through Solve.
func BenchmarkSolveColdSkylakeDiverse(b *testing.B) {
	m := machine.SkylakeQuad()
	apps := skylakeDiverseApps()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s Search
		if _, _, err := s.Solve(ObjTotalGFLOPS, nil, m, apps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveWarmPoolSkylakeDiverse is the same solve the way the
// fleet Scorer and the control-plane solver run it: through one Search
// they hold for their lifetime, so every solve after the first finds
// its worker, model, kernel and scratch pooled.
func BenchmarkSolveWarmPoolSkylakeDiverse(b *testing.B) {
	m := machine.SkylakeQuad()
	apps := skylakeDiverseApps()
	var s Search
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Solve(ObjTotalGFLOPS, nil, m, apps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveWarmStart8Apps is the incremental path the fleet
// scorer rides: the 8th app arrives on a machine whose 7-app optimum
// is known, and the solve is warm-started from those counts. Compare
// against BenchmarkSolveCold8Apps for the warm-start win.
func BenchmarkSolveWarmStart8Apps(b *testing.B) {
	m := machine.SkylakeQuad()
	apps := eightAppMix()
	var s Search
	prev, _, _, err := s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, m, apps[:7], 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, prev, m, apps, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveNaive8Apps is the pre-PR baseline at the same scale:
// exhaustive enumeration, every candidate through the reference model.
// It runs on one P, where its allocs/op is exact: with several Ps the
// count read around its two or so iterations, each of 600 MB of
// garbage, varies by up to a dozen from run to run (on Go 1.24), and
// BENCH_solver.json could not be the same at every GOMAXPROCS.
func BenchmarkSolveNaive8Apps(b *testing.B) {
	m := machine.SkylakeQuad()
	apps := eightAppMix()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer b.StopTimer() // while still on one P
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := naiveBestPerNodeCountsFloor(m, apps, TotalGFLOPS, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateReference is one reference-model evaluation of the
// Table I allocation: the unit of work of every Evaluator call and of
// every candidate EnumeratePerNodeCounts hands its callback.
func BenchmarkEvaluateReference(b *testing.B) {
	m := machine.PaperModel()
	apps := paperApps()
	al := MustPerNodeCounts(m, []int{1, 1, 1, 5})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(m, apps, al); err != nil {
			b.Fatal(err)
		}
	}
}
