package roofline

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// diffResults compares two model results field by field with exact
// (bitwise) float64 equality — the Evaluator's contract — returning a
// description of the first difference, or "" when identical.
func diffResults(want, got *Result) string {
	if want.TotalGFLOPS != got.TotalGFLOPS {
		return fmt.Sprintf("TotalGFLOPS: want %v, got %v", want.TotalGFLOPS, got.TotalGFLOPS)
	}
	if len(want.AppGFLOPS) != len(got.AppGFLOPS) {
		return fmt.Sprintf("AppGFLOPS length: want %d, got %d", len(want.AppGFLOPS), len(got.AppGFLOPS))
	}
	for i := range want.AppGFLOPS {
		if want.AppGFLOPS[i] != got.AppGFLOPS[i] {
			return fmt.Sprintf("AppGFLOPS[%d]: want %v, got %v", i, want.AppGFLOPS[i], got.AppGFLOPS[i])
		}
	}
	if len(want.PerNode) != len(got.PerNode) {
		return fmt.Sprintf("PerNode length: want %d, got %d", len(want.PerNode), len(got.PerNode))
	}
	for j := range want.PerNode {
		if want.PerNode[j] != got.PerNode[j] {
			return fmt.Sprintf("PerNode[%d]: want %+v, got %+v", j, want.PerNode[j], got.PerNode[j])
		}
	}
	if len(want.PerApp) != len(got.PerApp) {
		return fmt.Sprintf("PerApp length: want %d, got %d", len(want.PerApp), len(got.PerApp))
	}
	for i := range want.PerApp {
		if len(want.PerApp[i]) != len(got.PerApp[i]) {
			return fmt.Sprintf("PerApp[%d] length: want %d, got %d", i, len(want.PerApp[i]), len(got.PerApp[i]))
		}
		for j := range want.PerApp[i] {
			if want.PerApp[i][j] != got.PerApp[i][j] {
				return fmt.Sprintf("PerApp[%d][%d]: want %+v, got %+v", i, j, want.PerApp[i][j], got.PerApp[i][j])
			}
		}
	}
	return ""
}

// checkEvaluatorMatches asserts the evaluator reproduces the reference
// bitwise on al, twice (the second pass exercises the memo-hit path).
func checkEvaluatorMatches(t *testing.T, label string, m *machine.Machine, apps []App, ev *Evaluator, res *Result, al Allocation) {
	t.Helper()
	want, err := Evaluate(m, apps, al)
	if err != nil {
		t.Fatalf("%s: reference Evaluate: %v", label, err)
	}
	for pass := 0; pass < 2; pass++ {
		if err := ev.EvaluateInto(res, al); err != nil {
			t.Fatalf("%s (pass %d): EvaluateInto: %v", label, pass, err)
		}
		if d := diffResults(want, res); d != "" {
			t.Fatalf("%s (pass %d): evaluator diverges from reference: %s", label, pass, d)
		}
	}
}

// TestEvaluatorMatchesPaperTables runs the differential harness over
// the paper's published operating points: the evaluator must reproduce
// Tables I, II, the node-per-app baseline, Fig. 3, and Table III
// bitwise — and those values must still be the paper's numbers.
func TestEvaluatorMatchesPaperTables(t *testing.T) {
	res := &Result{}

	// Tables I/II and node-per-app on the 4x8 model machine.
	m := machine.PaperModel()
	apps := paperApps()
	ev, err := NewEvaluator(m, apps)
	if err != nil {
		t.Fatal(err)
	}
	tableI := MustPerNodeCounts(m, []int{1, 1, 1, 5})
	checkEvaluatorMatches(t, "table I", m, apps, ev, res, tableI)
	almost(t, "table I total (evaluator)", res.TotalGFLOPS, 254, 1e-9)

	checkEvaluatorMatches(t, "table II", m, apps, ev, res, MustPerNodeCounts(m, []int{2, 2, 2, 2}))
	almost(t, "table II total (evaluator)", res.TotalGFLOPS, 140, 1e-9)

	checkEvaluatorMatches(t, "node-per-app", m, apps, ev, res, MustNodePerApp(m, 4, nil))
	almost(t, "node-per-app total (evaluator)", res.TotalGFLOPS, 128, 1e-9)

	hits, misses := ev.MemoStats()
	if hits == 0 || misses == 0 {
		t.Errorf("memo should see both hits and misses on the paper fixtures, got hits=%d misses=%d", hits, misses)
	}

	// Fig. 3: the NUMA-bad mix on the 60 GB/s machine with 10 GB/s links.
	mBad := machine.PaperModelNUMABad()
	badApps := numaBadApps()
	evBad, err := NewEvaluator(mBad, badApps)
	if err != nil {
		t.Fatal(err)
	}
	checkEvaluatorMatches(t, "fig3 even", mBad, badApps, evBad, res, MustPerNodeCounts(mBad, []int{2, 2, 2, 2}))
	almost(t, "fig3 even total (evaluator)", res.TotalGFLOPS, 138.75, 1e-9)
	checkEvaluatorMatches(t, "fig3 node-per-app", mBad, badApps, evBad, res,
		MustNodePerApp(mBad, 4, []machine.NodeID{1, 2, 3, 0}))
	almost(t, "fig3 node-per-app total (evaluator)", res.TotalGFLOPS, 150, 1e-9)

	// Table III rows on the calibrated Skylake machine (tolerance 0.005,
	// matching TestTableIIIModel).
	sky := machine.SkylakeQuad()
	evSky, err := NewEvaluator(sky, tableIIIApps())
	if err != nil {
		t.Fatal(err)
	}
	checkEvaluatorMatches(t, "table III uneven", sky, tableIIIApps(), evSky, res, MustPerNodeCounts(sky, []int{1, 1, 1, 17}))
	almost(t, "table III uneven total (evaluator)", res.TotalGFLOPS, 23.20, 0.005)
	checkEvaluatorMatches(t, "table III even", sky, tableIIIApps(), evSky, res, MustPerNodeCounts(sky, []int{5, 5, 5, 5}))
	almost(t, "table III even total (evaluator)", res.TotalGFLOPS, 18.12, 0.005)
	checkEvaluatorMatches(t, "table III node-per-app", sky, tableIIIApps(), evSky, res, MustNodePerApp(sky, 4, nil))
	almost(t, "table III node-per-app total (evaluator)", res.TotalGFLOPS, 15.18, 0.005)

	evSkyBad, err := NewEvaluator(sky, tableIIIBadApps())
	if err != nil {
		t.Fatal(err)
	}
	checkEvaluatorMatches(t, "table III bad even", sky, tableIIIBadApps(), evSkyBad, res, MustPerNodeCounts(sky, []int{5, 5, 5, 5}))
	almost(t, "table III bad even total (evaluator)", res.TotalGFLOPS, 13.98, 0.005)
	checkEvaluatorMatches(t, "table III bad node-per-app", sky, tableIIIBadApps(), evSkyBad, res,
		MustNodePerApp(sky, 4, []machine.NodeID{1, 2, 3, 0}))
	almost(t, "table III bad node-per-app total (evaluator)", res.TotalGFLOPS, 15.18, 0.005)
}

// randomMachine draws a machine: 1-4 nodes, possibly heterogeneous,
// possibly link-limited.
func randomMachine(r *rand.Rand) *machine.Machine {
	nNodes := 1 + r.Intn(4)
	m := &machine.Machine{Name: "rand"}
	mkNode := func() machine.Node {
		return machine.Node{
			Cores:        1 + r.Intn(8),
			PeakGFLOPS:   0.25 + 20*r.Float64(),
			MemBandwidth: 5 + 100*r.Float64(),
		}
	}
	base := mkNode()
	hetero := r.Intn(2) == 0
	for i := 0; i < nNodes; i++ {
		if hetero {
			m.Nodes = append(m.Nodes, mkNode())
		} else {
			m.Nodes = append(m.Nodes, base)
		}
	}
	if r.Intn(3) > 0 {
		m.LinkBandwidth = make([][]float64, nNodes)
		for i := range m.LinkBandwidth {
			m.LinkBandwidth[i] = make([]float64, nNodes)
			for j := range m.LinkBandwidth[i] {
				if i != j {
					m.LinkBandwidth[i][j] = 1 + 40*r.Float64()
				}
			}
		}
	}
	return m
}

// randomApps draws 1-5 apps with log-uniform AI; roughly a third are
// NUMA-bad with a random home node.
func randomApps(r *rand.Rand, m *machine.Machine) []App {
	nApps := 1 + r.Intn(5)
	apps := make([]App, nApps)
	for i := range apps {
		apps[i] = App{
			Name: fmt.Sprintf("app%d", i),
			// 2^-5 .. 2^5 FLOP/byte.
			AI: pow2(r.Float64()*10 - 5),
		}
		if r.Intn(3) == 0 {
			apps[i].Placement = NUMABad
			apps[i].HomeNode = machine.NodeID(r.Intn(m.NumNodes()))
		}
	}
	return apps
}

func pow2(x float64) float64 {
	v := 1.0
	for x >= 1 {
		v *= 2
		x--
	}
	for x < 0 {
		v /= 2
		x++
	}
	return v * (1 + x) // piecewise-linear approx is fine for test variety
}

// randomAllocation fills each node up to its core count with random
// per-app shares (possibly zero, possibly leaving cores idle).
func randomAllocation(r *rand.Rand, m *machine.Machine, nApps int) Allocation {
	al := NewAllocation(nApps, m.NumNodes())
	for j := 0; j < m.NumNodes(); j++ {
		remaining := m.Nodes[j].Cores
		for i := 0; i < nApps && remaining > 0; i++ {
			c := r.Intn(remaining + 1)
			if r.Intn(2) == 0 && c > 2 {
				c = 2
			}
			al.Threads[i][j] = c
			remaining -= c
		}
	}
	return al
}

// differentialRound drives one (machine, apps) draw: several random
// allocations, each checked twice (memo-hit path included).
func differentialRound(t *testing.T, r *rand.Rand) {
	t.Helper()
	m := randomMachine(r)
	apps := randomApps(r, m)
	// Two draws are discarded so that every seed of the checked-in fuzz
	// corpus still draws the inputs it was found with.
	r.Intn(4)
	r.Intn(4)
	ev, err := NewEvaluator(m, apps)
	if err != nil {
		t.Fatalf("NewEvaluator: %v", err)
	}
	res := &Result{}
	var prev *Allocation
	for k := 0; k < 8; k++ {
		al := randomAllocation(r, m, len(apps))
		checkEvaluatorMatches(t, fmt.Sprintf("random k=%d", k), m, apps, ev, res, al)
		if prev != nil && r.Intn(2) == 0 {
			// Revisit an earlier allocation: pure memo-hit evaluation.
			checkEvaluatorMatches(t, fmt.Sprintf("random k=%d revisit", k), m, apps, ev, res, *prev)
		}
		prev = &al
	}
}

// TestEvaluatorMatchesReferenceRandomized is the randomized limb of the
// differential harness: heterogeneous machines, NUMA-bad placements,
// link limits — all bitwise-identical to the reference model.
func TestEvaluatorMatchesReferenceRandomized(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		differentialRound(t, r)
	}
}

// TestEvaluatorReset checks a pooled evaluator re-targeted at new
// inputs behaves like a fresh one (stale memo entries must not leak
// between incompatible machines or app mixes).
func TestEvaluatorReset(t *testing.T) {
	m := machine.PaperModel()
	apps := paperApps()
	ev, err := NewEvaluator(m, apps)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	checkEvaluatorMatches(t, "before reset", m, apps, ev, res, MustPerNodeCounts(m, []int{1, 1, 1, 5}))

	mBad := machine.PaperModelNUMABad()
	badApps := numaBadApps()
	if err := ev.Reset(mBad, badApps); err != nil {
		t.Fatal(err)
	}
	checkEvaluatorMatches(t, "after reset", mBad, badApps, ev, res, MustPerNodeCounts(mBad, []int{2, 2, 2, 2}))
	almost(t, "after reset total", res.TotalGFLOPS, 138.75, 1e-9)

	if err := ev.Reset(mBad, []App{{Name: "neg", AI: -1}}); err == nil {
		t.Error("Reset should reject non-positive AI")
	}
}

// TestEvaluatorValidation mirrors TestEvaluateErrors for the fast path.
func TestEvaluatorValidation(t *testing.T) {
	m := machine.PaperModel()
	if _, err := NewEvaluator(m, []App{{Name: "bad-home", AI: 1, Placement: NUMABad, HomeNode: 9}}); err == nil {
		t.Error("NewEvaluator should reject out-of-range home node")
	}
	ev, err := NewEvaluator(m, paperApps())
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	if err := ev.EvaluateInto(res, NewAllocation(2, m.NumNodes())); err == nil {
		t.Error("EvaluateInto should reject a wrong-shaped allocation")
	}
	over := NewAllocation(4, m.NumNodes())
	over.Threads[0][0] = m.Nodes[0].Cores + 1
	if err := ev.EvaluateInto(res, over); err == nil {
		t.Error("EvaluateInto should reject over-subscription")
	}
}

// TestEvaluatorSteadyStateAllocs pins the scratch-reuse contract: a
// memo-hit evaluation into a warm Result performs no heap allocations.
func TestEvaluatorSteadyStateAllocs(t *testing.T) {
	m := machine.PaperModel()
	apps := paperApps()
	ev, err := NewEvaluator(m, apps)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	al := MustPerNodeCounts(m, []int{1, 1, 1, 5})
	if err := ev.EvaluateInto(res, al); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := ev.EvaluateInto(res, al); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("memo-hit EvaluateInto allocates %.2f objects/op, want 0", allocs)
	}
}
