package roofline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

// PaperApps are the applications of the paper's Tables I/II: three
// memory-bound apps (AI=0.5) and one compute-bound app (AI=10).
func paperApps() []App {
	return []App{
		{Name: "mem1", AI: 0.5},
		{Name: "mem2", AI: 0.5},
		{Name: "mem3", AI: 0.5},
		{Name: "comp", AI: 10},
	}
}

// numaBadApps are the Fig. 3 applications: three NUMA-perfect
// memory-bound apps (AI=0.5) and one NUMA-bad app (AI=1, home node 0).
func numaBadApps() []App {
	return []App{
		{Name: "mem1", AI: 0.5},
		{Name: "mem2", AI: 0.5},
		{Name: "mem3", AI: 0.5},
		{Name: "bad", AI: 1, Placement: NUMABad, HomeNode: 0},
	}
}

// tableIIIApps returns the calibrated Skylake applications from the
// paper's Section III.B: memory-bound AI=1/32, compute-bound AI=1.
func tableIIIApps() []App {
	return []App{
		{Name: "mem1", AI: 1.0 / 32},
		{Name: "mem2", AI: 1.0 / 32},
		{Name: "mem3", AI: 1.0 / 32},
		{Name: "comp", AI: 1},
	}
}

// tableIIIBadApps returns the NUMA-bad mix for Table III rows 4-5:
// memory-bound AI=1/32, NUMA-bad AI=1/16 with home node 0.
func tableIIIBadApps() []App {
	return []App{
		{Name: "mem1", AI: 1.0 / 32},
		{Name: "mem2", AI: 1.0 / 32},
		{Name: "mem3", AI: 1.0 / 32},
		{Name: "bad", AI: 1.0 / 16, Placement: NUMABad, HomeNode: 0},
	}
}

func almost(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.6f, want %.6f (tol %g)", name, got, want, tol)
	}
}

// TestTableI reproduces the paper's Table I: uneven allocation
// (1,1,1,5) on the 4x8 model machine -> 254 GFLOPS total, with every
// intermediate quantity the paper prints.
func TestTableI(t *testing.T) {
	m := machine.PaperModel()
	apps := paperApps()
	al := MustPerNodeCounts(m, []int{1, 1, 1, 5})
	r := MustEvaluate(m, apps, al)

	almost(t, "total", r.TotalGFLOPS, 254, 1e-9)
	almost(t, "node total", r.PerNode[0].GFLOPS, 63.5, 1e-9)
	for i := 0; i < 3; i++ {
		almost(t, "mem app GFLOPS", r.AppGFLOPS[i], 4*4.5, 1e-9)
		almost(t, "mem bw/thread", r.PerApp[i][0].BWPerThread, 9, 1e-9)
		almost(t, "mem gflops/thread", r.PerApp[i][0].GFLOPSPerThread, 4.5, 1e-9)
		almost(t, "mem demand/thread", r.PerApp[i][0].DemandPerThread, 20, 1e-9)
	}
	almost(t, "comp app GFLOPS", r.AppGFLOPS[3], 4*50, 1e-9)
	almost(t, "comp bw/thread", r.PerApp[3][0].BWPerThread, 1, 1e-9)
	almost(t, "comp gflops/thread", r.PerApp[3][0].GFLOPSPerThread, 10, 1e-9)
	almost(t, "baseline", r.PerNode[0].Baseline, 4, 1e-9)
}

// TestTableII reproduces the paper's Table II: even allocation
// (2,2,2,2) -> 140 GFLOPS total.
func TestTableII(t *testing.T) {
	m := machine.PaperModel()
	apps := paperApps()
	al := MustPerNodeCounts(m, []int{2, 2, 2, 2})
	r := MustEvaluate(m, apps, al)

	almost(t, "total", r.TotalGFLOPS, 140, 1e-9)
	almost(t, "node total", r.PerNode[0].GFLOPS, 35, 1e-9)
	for i := 0; i < 3; i++ {
		almost(t, "mem app/node", r.PerApp[i][0].GFLOPS, 5, 1e-9)
		almost(t, "mem bw/thread", r.PerApp[i][0].BWPerThread, 5, 1e-9)
	}
	almost(t, "comp app/node", r.PerApp[3][0].GFLOPS, 20, 1e-9)
}

// TestNodePerApp reproduces the paper's in-text third scenario: one NUMA
// node per application -> 128 GFLOPS (80 compute + 3x16 memory).
func TestNodePerApp(t *testing.T) {
	m := machine.PaperModel()
	apps := paperApps()
	al := MustNodePerApp(m, 4, nil)
	r := MustEvaluate(m, apps, al)

	almost(t, "total", r.TotalGFLOPS, 128, 1e-9)
	for i := 0; i < 3; i++ {
		almost(t, "mem app", r.AppGFLOPS[i], 16, 1e-9)
	}
	almost(t, "comp app", r.AppGFLOPS[3], 80, 1e-9)
}

// TestFig3 reproduces the paper's NUMA-bad comparison: with three
// NUMA-perfect apps and one NUMA-bad app, the even allocation yields
// ~138 GFLOPS while dedicating one node per app yields 150 GFLOPS — the
// opposite ranking of the NUMA-perfect case.
func TestFig3(t *testing.T) {
	m := machine.PaperModelNUMABad()
	apps := numaBadApps()

	even := MustEvaluate(m, apps, MustPerNodeCounts(m, []int{2, 2, 2, 2}))
	// Paper reports 138; the model rules with 60 GB/s nodes and 10 GB/s
	// links give 138.75.
	almost(t, "even total", even.TotalGFLOPS, 138.75, 1e-9)

	// NUMA-bad app gets its home node; perfect apps get the others.
	nodeOf := []machine.NodeID{1, 2, 3, 0}
	nodePerApp := MustEvaluate(m, apps, MustNodePerApp(m, 4, nodeOf))
	almost(t, "node-per-app total", nodePerApp.TotalGFLOPS, 150, 1e-9)

	if nodePerApp.TotalGFLOPS <= even.TotalGFLOPS {
		t.Error("ranking should reverse: node-per-app must beat even for the NUMA-bad mix")
	}

	// And the reference ranking without the NUMA-bad app (Tables I/II
	// machine): even beats node-per-app.
	ref := machine.PaperModel()
	refApps := paperApps()
	refEven := MustEvaluate(ref, refApps, MustPerNodeCounts(ref, []int{2, 2, 2, 2}))
	refNPA := MustEvaluate(ref, refApps, MustNodePerApp(ref, 4, nil))
	if refEven.TotalGFLOPS <= refNPA.TotalGFLOPS {
		t.Error("reference ranking: even must beat node-per-app for NUMA-perfect apps")
	}
}

// TestTableIIIModel reproduces the model column of the paper's Table III
// on the calibrated Skylake machine.
func TestTableIIIModel(t *testing.T) {
	m := machine.SkylakeQuad()

	// Scenario 1: uneven (1,1,1,17) -> 23.20.
	r1 := MustEvaluate(m, tableIIIApps(), MustPerNodeCounts(m, []int{1, 1, 1, 17}))
	almost(t, "S1 uneven", r1.TotalGFLOPS, 23.20, 0.005)

	// Scenario 2: even (5,5,5,5) -> 18.12.
	r2 := MustEvaluate(m, tableIIIApps(), MustPerNodeCounts(m, []int{5, 5, 5, 5}))
	almost(t, "S2 even", r2.TotalGFLOPS, 18.12, 0.005)

	// Scenario 3: node per app -> 15.18.
	r3 := MustEvaluate(m, tableIIIApps(), MustNodePerApp(m, 4, nil))
	almost(t, "S3 node-per-app", r3.TotalGFLOPS, 15.18, 0.005)

	// Scenario 4: NUMA-bad cross-node, even -> 13.98.
	r4 := MustEvaluate(m, tableIIIBadApps(), MustPerNodeCounts(m, []int{5, 5, 5, 5}))
	almost(t, "S4 cross-node", r4.TotalGFLOPS, 13.98, 0.005)

	// Scenario 5: NUMA-bad on-node, node per app -> 15.18.
	r5 := MustEvaluate(m, tableIIIBadApps(), MustNodePerApp(m, 4, []machine.NodeID{1, 2, 3, 0}))
	almost(t, "S5 on-node", r5.TotalGFLOPS, 15.18, 0.005)
}

func TestEvaluateErrors(t *testing.T) {
	m := machine.PaperModel()
	apps := paperApps()

	// Wrong dimensions.
	if _, err := Evaluate(m, apps, NewAllocation(2, 4)); err == nil {
		t.Error("expected error for app count mismatch")
	}
	if _, err := Evaluate(m, apps, NewAllocation(4, 2)); err == nil {
		t.Error("expected error for node count mismatch")
	}
	// Negative count.
	bad := NewAllocation(4, 4)
	bad.Threads[0][0] = -1
	if _, err := Evaluate(m, apps, bad); err == nil {
		t.Error("expected error for negative count")
	}
	// Over-subscription.
	over := NewAllocation(4, 4)
	over.Threads[0][0] = 9
	if _, err := Evaluate(m, apps, over); err == nil {
		t.Error("expected error for over-subscription")
	}
	// Bad AI.
	if _, err := Evaluate(m, []App{{Name: "x", AI: 0}}, NewAllocation(1, 4)); err == nil {
		t.Error("expected error for zero AI")
	}
	// Bad home node.
	if _, err := Evaluate(m, []App{{Name: "x", AI: 1, Placement: NUMABad, HomeNode: 9}}, NewAllocation(1, 4)); err == nil {
		t.Error("expected error for out-of-range home node")
	}
}

// TestThreadCountsCannotWrap: counts whose sum overflows int are
// refused, not summed to a small number that fits the node.
func TestThreadCountsCannotWrap(t *testing.T) {
	m := machine.PaperModel()
	if al, err := PerNodeCounts(m, []int{math.MaxInt, math.MaxInt, 3}); err == nil {
		t.Errorf("PerNodeCounts({MaxInt, MaxInt, 3}) = %v, want an error", al)
	}
	al := NewAllocation(3, m.NumNodes())
	al.Threads[0][0], al.Threads[1][0], al.Threads[2][0] = math.MaxInt, math.MaxInt, 3
	if err := al.Validate(m, []App{{AI: 1}, {AI: 1}, {AI: 1}}); err == nil {
		t.Errorf("Validate(%v) passed, want an error", al)
	}
}

func TestAllocationHelpers(t *testing.T) {
	m := machine.PaperModel()
	al := MustEven(m, 4)
	for i := 0; i < 4; i++ {
		if al.AppThreads(i) != 8 {
			t.Errorf("even: app %d has %d threads, want 8", i, al.AppThreads(i))
		}
	}
	if al.TotalThreads() != 32 {
		t.Errorf("even: total %d, want 32", al.TotalThreads())
	}
	if _, err := Even(m, 3); err == nil {
		t.Error("Even with 3 apps on 8-core nodes should fail")
	}
	if _, err := PerNodeCounts(m, []int{4, 5}); err == nil {
		t.Error("PerNodeCounts over-subscribing should fail")
	}
	if _, err := PerNodeCounts(m, []int{-1}); err == nil {
		t.Error("PerNodeCounts with negative count should fail")
	}
	if _, err := NodePerApp(m, 5, nil); err == nil {
		t.Error("NodePerApp with more apps than nodes should fail")
	}
	if _, err := NodePerApp(m, 2, []machine.NodeID{1, 1}); err == nil {
		t.Error("NodePerApp with duplicate nodes should fail")
	}
	if _, err := NodePerApp(m, 2, []machine.NodeID{0, 9}); err == nil {
		t.Error("NodePerApp with out-of-range node should fail")
	}

	fs := FairShare(m, 3) // 8 cores / 3 apps: 3+3+2 style
	for j := 0; j < 4; j++ {
		if n := fs.NodeThreads(machine.NodeID(j)); n != 8 {
			t.Errorf("fair share node %d has %d threads, want 8", j, n)
		}
	}
	// Rotation: the app getting the extra cores differs per node.
	if fs.Threads[0][0] == fs.Threads[0][1] && fs.Threads[0][1] == fs.Threads[0][2] && fs.Threads[0][2] == fs.Threads[0][3] {
		t.Log("fair-share rotation degenerate; allocation:", fs)
	}
	if err := fs.Validate(m, []App{{AI: 1}, {AI: 1}, {AI: 1}}); err != nil {
		t.Errorf("fair share should validate: %v", err)
	}
}

func TestWorkedTableI(t *testing.T) {
	m := machine.PaperModel()
	tab, err := Worked(m, paperApps(), []int{1, 1, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "worked total", tab.Total, 254, 1e-9)
	almost(t, "worked per node", tab.TotalPerNode, 63.5, 1e-9)
	// Check key intermediate rows against the paper's printed values.
	find := func(label string) WorkedRow {
		for _, r := range tab.Rows {
			if r.Label == label {
				return r
			}
		}
		t.Fatalf("row %q not found", label)
		return WorkedRow{}
	}
	almost(t, "total required", find("total required bandwidth (GB/s)").Shared, 65, 1e-9)
	almost(t, "baseline", find("baseline GB/s per thread").Shared, 4, 1e-9)
	almost(t, "allocated node", find("allocated node GB/s").Shared, 17, 1e-9)
	almost(t, "remaining node", find("remaining node GB/s").Shared, 15, 1e-9)
	almost(t, "still required", find("still required GB/s").Shared, 48, 1e-9)
	almost(t, "remainder per thread", find("remainder given to a thread (GB/s)").Shared, 5, 1e-9)
	tot := find("total allocated to each thread (GB/s)")
	almost(t, "mem total/thread", tot.Values[0], 9, 1e-9)
	almost(t, "comp total/thread", tot.Values[3], 1, 1e-9)
	if tab.String() == "" {
		t.Error("empty worked table rendering")
	}
}

func TestWorkedTableII(t *testing.T) {
	m := machine.PaperModel()
	tab, err := Worked(m, paperApps(), []int{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "worked total", tab.Total, 140, 1e-9)
	almost(t, "worked per node", tab.TotalPerNode, 35, 1e-9)
}

func TestWorkedErrors(t *testing.T) {
	m := machine.PaperModel()
	if _, err := Worked(m, paperApps(), []int{1, 1}); err == nil {
		t.Error("expected count mismatch error")
	}
	if _, err := Worked(m, numaBadApps(), []int{1, 1, 1, 1}); err == nil {
		t.Error("expected NUMA-bad rejection")
	}
	het := &machine.Machine{Name: "het", Nodes: []machine.Node{
		{Cores: 8, PeakGFLOPS: 10, MemBandwidth: 32},
		{Cores: 4, PeakGFLOPS: 10, MemBandwidth: 32},
	}}
	if _, err := Worked(het, paperApps(), []int{1, 1, 1, 1}); err == nil {
		t.Error("expected uniform machine requirement")
	}
}

func TestOptimizerBeatsEven(t *testing.T) {
	m := machine.PaperModel()
	apps := paperApps()
	_, res, err := Optimize(m, apps, TotalGFLOPS, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Table I shows 254 is achievable; the optimizer must do at least
	// that well.
	if res.TotalGFLOPS < 254-1e-9 {
		t.Errorf("optimizer found %.3f GFLOPS, want >= 254", res.TotalGFLOPS)
	}
}

// TestOptimizeRejectsInvalidInputs: inputs Evaluate refuses come back
// as Evaluate's error, not as "no feasible allocation".
func TestOptimizeRejectsInvalidInputs(t *testing.T) {
	m := machine.PaperModel()
	apps := []App{{Name: "x", AI: 0}}
	_, want := Evaluate(m, apps, NewAllocation(1, m.NumNodes()))
	_, res, err := Optimize(m, apps, TotalGFLOPS, 0)
	if err == nil || errors.Is(err, ErrNoAllocation) || err.Error() != want.Error() {
		t.Fatalf("Optimize on an AI-0 app: %v, %v; want Evaluate's error %q", res, err, want)
	}
}

// TestEnumeratePerNodeCounts: every uniform row within the smallest
// node's cores, once, each with the reference Result; an early stop;
// and inputs Evaluate refuses returned as its error before any
// candidate.
func TestEnumeratePerNodeCounts(t *testing.T) {
	m := machine.PaperModelNUMABad()
	apps := numaBadApps()
	seen := map[string]bool{}
	err := EnumeratePerNodeCounts(m, len(apps), func(counts []int, al Allocation, r *Result) bool {
		key := fmt.Sprint(counts)
		if seen[key] {
			t.Fatalf("%v enumerated twice", counts)
		}
		seen[key] = true
		want, err := Evaluate(m, apps, MustPerNodeCounts(m, counts))
		if err != nil {
			t.Fatal(err)
		}
		if d := diffResults(want, r); d != "" {
			t.Fatalf("%v: %s", counts, d)
		}
		return true
	}, apps)
	if err != nil {
		t.Fatal(err)
	}
	// Rows of 4 non-negative counts summing to at most 8: C(12, 4).
	if len(seen) != 495 {
		t.Errorf("enumerated %d candidates, want 495", len(seen))
	}
	calls := 0
	if err := EnumeratePerNodeCounts(m, len(apps), func([]int, Allocation, *Result) bool {
		calls++
		return calls < 3
	}, apps); err != nil || calls != 3 {
		t.Errorf("stopping at the third candidate: %d calls, %v", calls, err)
	}
	bad := []App{{Name: "x", AI: 0}}
	_, want := Evaluate(m, bad, NewAllocation(1, m.NumNodes()))
	err = EnumeratePerNodeCounts(m, 1, func([]int, Allocation, *Result) bool {
		t.Fatal("a candidate for an AI-0 app")
		return false
	}, bad)
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("EnumeratePerNodeCounts on an AI-0 app: %v; want Evaluate's error %q", err, want)
	}
}

func TestBestPerNodeCounts(t *testing.T) {
	m := machine.PaperModel()
	apps := paperApps()
	counts, _, res, err := new(Search).BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, m, apps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalGFLOPS < 254-1e-9 {
		t.Errorf("exhaustive best %.3f GFLOPS, want >= 254 (counts %v)", res.TotalGFLOPS, counts)
	}
	// The compute-bound app should receive most threads.
	maxIdx := 0
	for i, c := range counts {
		if c > counts[maxIdx] {
			maxIdx = i
		}
		_ = c
	}
	if maxIdx != 3 {
		t.Errorf("best counts %v should favor the compute-bound app", counts)
	}
}

func TestMinAppObjective(t *testing.T) {
	m := machine.PaperModel()
	apps := paperApps()
	r := MustEvaluate(m, apps, MustPerNodeCounts(m, []int{1, 1, 1, 5}))
	if got := MinAppGFLOPS(r); math.Abs(got-18) > 1e-9 {
		t.Errorf("MinAppGFLOPS = %g, want 18", got)
	}
	w := WeightedAppGFLOPS([]float64{0, 0, 0, 1})
	if got := w(r); math.Abs(got-200) > 1e-9 {
		t.Errorf("weighted = %g, want 200", got)
	}
	if MinAppGFLOPS(&Result{}) != 0 {
		t.Error("MinAppGFLOPS of empty result should be 0")
	}
}

// TestAblationNoBaseline: dropping the baseline guarantee starves the
// compute-bound app in the Table I scenario and lowers the total.
func TestAblationNoBaseline(t *testing.T) {
	m := machine.PaperModel()
	apps := paperApps()
	al := MustPerNodeCounts(m, []int{1, 1, 1, 5})
	base := MustEvaluate(m, apps, al)
	nb, err := EvaluateOpts(m, apps, al, Options{NoBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if nb.TotalGFLOPS >= base.TotalGFLOPS {
		t.Errorf("no-baseline total %.3f should be below baseline total %.3f", nb.TotalGFLOPS, base.TotalGFLOPS)
	}
	// The compute-bound app must lose its guaranteed share.
	if nb.AppGFLOPS[3] >= base.AppGFLOPS[3] {
		t.Errorf("compute-bound app should be starved without baseline: %.3f vs %.3f", nb.AppGFLOPS[3], base.AppGFLOPS[3])
	}
}

// TestAblationLocalFirst: serving local accessors first starves the
// NUMA-bad app's remote threads in the Table III scenario 4.
func TestAblationLocalFirst(t *testing.T) {
	m := machine.SkylakeQuad()
	apps := tableIIIBadApps()
	al := MustPerNodeCounts(m, []int{5, 5, 5, 5})
	remoteFirst := MustEvaluate(m, apps, al)
	localFirst, err := EvaluateOpts(m, apps, al, Options{LocalFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if localFirst.AppGFLOPS[3] >= remoteFirst.AppGFLOPS[3] {
		t.Errorf("local-first should starve the NUMA-bad app: %.3f vs %.3f", localFirst.AppGFLOPS[3], remoteFirst.AppGFLOPS[3])
	}
}

// Property: bandwidth conservation and the baseline guarantee hold for
// random machines, apps, and allocations.
func TestBandwidthInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(4)
		cores := 1 + rng.Intn(8)
		m := machine.Uniform("prop", nodes, cores, 0.5+rng.Float64()*20, 1+rng.Float64()*100, 1+rng.Float64()*50)
		nApps := 1 + rng.Intn(4)
		apps := make([]App, nApps)
		for i := range apps {
			apps[i] = App{Name: "a", AI: 0.01 + rng.Float64()*10}
			if rng.Intn(3) == 0 {
				apps[i].Placement = NUMABad
				apps[i].HomeNode = machine.NodeID(rng.Intn(nodes))
			}
		}
		al := NewAllocation(nApps, nodes)
		for j := 0; j < nodes; j++ {
			free := cores
			for i := 0; i < nApps && free > 0; i++ {
				c := rng.Intn(free + 1)
				al.Threads[i][j] = c
				free -= c
			}
		}
		r, err := Evaluate(m, apps, al)
		if err != nil {
			return false
		}
		// Conservation: local + remote served <= node bandwidth.
		for j := 0; j < nodes; j++ {
			if r.PerNode[j].LocalServed+r.PerNode[j].RemoteServed > m.Nodes[j].MemBandwidth*(1+1e-9) {
				return false
			}
		}
		for i := range apps {
			for j := 0; j < nodes; j++ {
				pr := r.PerApp[i][j]
				if pr.Threads == 0 {
					continue
				}
				// Grant never exceeds demand, GFLOPS never exceeds peak.
				if pr.BWPerThread > pr.DemandPerThread*(1+1e-9) {
					return false
				}
				if pr.GFLOPSPerThread > m.Nodes[j].PeakGFLOPS*(1+1e-9) {
					return false
				}
				// Baseline guarantee for local accessors.
				if !pr.Remote {
					guaranteed := min(pr.DemandPerThread, r.PerNode[j].Baseline)
					if pr.BWPerThread < guaranteed-1e-9 {
						return false
					}
				}
			}
		}
		// Totals are sums.
		sum := 0.0
		for _, g := range r.AppGFLOPS {
			sum += g
		}
		return math.Abs(sum-r.TotalGFLOPS) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: adding a thread to an application never reduces its own
// GFLOPS (monotonicity of self-interest) on NUMA-perfect workloads.
func TestMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := machine.Uniform("prop", 2, 8, 1+rng.Float64()*10, 10+rng.Float64()*50, 0)
		apps := []App{
			{Name: "a", AI: 0.05 + rng.Float64()*5},
			{Name: "b", AI: 0.05 + rng.Float64()*5},
		}
		al := NewAllocation(2, 2)
		al.Threads[0][0] = 1 + rng.Intn(3)
		al.Threads[1][0] = 1 + rng.Intn(3)
		r1 := MustEvaluate(m, apps, al)
		al2 := al.Clone()
		al2.Threads[0][0]++
		r2 := MustEvaluate(m, apps, al2)
		return r2.AppGFLOPS[0] >= r1.AppGFLOPS[0]-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAllocationString(t *testing.T) {
	al := NewAllocation(2, 2).Set(0, 0, 3).Set(1, 1, 4)
	if al.String() == "" {
		t.Error("empty allocation string")
	}
	if al.AppThreads(0) != 3 || al.NodeThreads(1) != 4 {
		t.Error("Set did not apply")
	}
}

func TestSummary(t *testing.T) {
	m := machine.PaperModel()
	apps := paperApps()
	r := MustEvaluate(m, apps, MustEven(m, 4))
	if r.Summary(apps) == "" {
		t.Error("empty summary")
	}
}

func TestPlacementString(t *testing.T) {
	if NUMAPerfect.String() != "numa-perfect" || NUMABad.String() != "numa-bad" {
		t.Error("placement names wrong")
	}
	if Placement(99).String() == "" {
		t.Error("unknown placement should still render")
	}
}

// Property: permuting two applications (and their allocation rows)
// permutes their results — the model has no hidden app-order bias.
func TestPermutationSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := machine.Uniform("p", 2+rng.Intn(3), 4+rng.Intn(4), 1+rng.Float64()*10, 10+rng.Float64()*50, 1+rng.Float64()*20)
		apps := []App{
			{Name: "a", AI: 0.05 + rng.Float64()*5},
			{Name: "b", AI: 0.05 + rng.Float64()*5},
			{Name: "c", AI: 0.05 + rng.Float64()*5},
		}
		al := NewAllocation(3, m.NumNodes())
		for j := 0; j < m.NumNodes(); j++ {
			free := m.Nodes[j].Cores
			for i := 0; i < 3 && free > 0; i++ {
				c := rng.Intn(free + 1)
				al.Threads[i][j] = c
				free -= c
			}
		}
		r1 := MustEvaluate(m, apps, al)

		// Swap apps 0 and 2 together with their allocation rows.
		apps2 := []App{apps[2], apps[1], apps[0]}
		al2 := al.Clone()
		al2.Threads[0], al2.Threads[2] = al2.Threads[2], al2.Threads[0]
		r2 := MustEvaluate(m, apps2, al2)

		return math.Abs(r1.AppGFLOPS[0]-r2.AppGFLOPS[2]) < 1e-9 &&
			math.Abs(r1.AppGFLOPS[2]-r2.AppGFLOPS[0]) < 1e-9 &&
			math.Abs(r1.TotalGFLOPS-r2.TotalGFLOPS) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: scaling peak compute and all bandwidths by k scales every
// GFLOPS output by k (the model is homogeneous of degree one in the
// machine's rates).
func TestScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 0.5 + rng.Float64()*4
		peak := 1 + rng.Float64()*10
		bw := 10 + rng.Float64()*50
		link := 1 + rng.Float64()*20
		m1 := machine.Uniform("m1", 3, 6, peak, bw, link)
		m2 := machine.Uniform("m2", 3, 6, peak*k, bw*k, link*k)
		apps := []App{
			{Name: "a", AI: 0.05 + rng.Float64()*5},
			{Name: "bad", AI: 0.05 + rng.Float64()*5, Placement: NUMABad, HomeNode: 1},
		}
		al := NewAllocation(2, 3)
		for j := 0; j < 3; j++ {
			al.Threads[0][j] = 1 + rng.Intn(3)
			al.Threads[1][j] = 1 + rng.Intn(3)
		}
		r1 := MustEvaluate(m1, apps, al)
		r2 := MustEvaluate(m2, apps, al)
		return math.Abs(r2.TotalGFLOPS-k*r1.TotalGFLOPS) < 1e-6*math.Max(1, r2.TotalGFLOPS)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestHeterogeneousMachine: the model handles nodes with different core
// counts, rates and bandwidths.
func TestHeterogeneousMachine(t *testing.T) {
	m := &machine.Machine{Name: "het", Nodes: []machine.Node{
		{Cores: 4, PeakGFLOPS: 10, MemBandwidth: 20},
		{Cores: 8, PeakGFLOPS: 5, MemBandwidth: 60},
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	apps := []App{{Name: "mem", AI: 0.5}, {Name: "comp", AI: 100}}
	al := NewAllocation(2, 2)
	al.Threads[0][0] = 2 // node 0: demand 2*20=40 > 20 -> saturate
	al.Threads[1][1] = 8 // node 1: compute at peak 5 each
	r := MustEvaluate(m, apps, al)
	almost(t, "mem app", r.AppGFLOPS[0], 20*0.5, 1e-9) // 20 GB/s * 0.5
	almost(t, "comp app", r.AppGFLOPS[1], 8*5, 1e-9)
}
