package roofline

import (
	"testing"

	"repro/internal/machine"
)

func TestAnnealReachesTableIOptimum(t *testing.T) {
	m := machine.PaperModel()
	apps := paperApps()
	_, res, err := Anneal(m, apps, TotalGFLOPS, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The unconstrained optimum gives all cores to the compute-bound
	// app (320 GFLOPS); the search must land close.
	if res.TotalGFLOPS < 310 {
		t.Errorf("anneal found %.1f GFLOPS, want >= 310", res.TotalGFLOPS)
	}
}

func TestAnnealFindsAsymmetricOptimum(t *testing.T) {
	// A NUMA-bad app (home node 0) plus one memory-bound app: uniform
	// per-node counts waste the bad app's threads on remote nodes; the
	// annealer should concentrate them on node 0.
	m := machine.SkylakeQuad()
	apps := []App{
		{Name: "mem", AI: 1.0 / 32},
		{Name: "bad", AI: 1.0 / 16, Placement: NUMABad, HomeNode: 0},
	}
	counts, _, uniformRes, err := new(Search).BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, m, apps, 0)
	if err != nil {
		t.Fatal(err)
	}
	al, res, err := Anneal(m, apps, TotalGFLOPS, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalGFLOPS < uniformRes.TotalGFLOPS-1e-9 {
		t.Errorf("anneal %.3f worse than uniform optimum %.3f (counts %v)",
			res.TotalGFLOPS, uniformRes.TotalGFLOPS, counts)
	}
	// The bad app's threads should be concentrated on node 0 (remote
	// threads are link-starved and displace local memory-bound work).
	badRemote := 0
	for j := 1; j < m.NumNodes(); j++ {
		badRemote += al.Threads[1][j]
	}
	if badRemote > al.Threads[1][0] {
		t.Errorf("bad app allocation %v: should concentrate on its home node", al.Threads[1])
	}
}

func TestAnnealDeterministic(t *testing.T) {
	m := machine.PaperModel()
	apps := paperApps()
	run := func() float64 {
		_, res, err := Anneal(m, apps, nil, 42)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalGFLOPS
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic anneal: %v vs %v", a, b)
	}
}

func TestAnnealValidation(t *testing.T) {
	m := machine.PaperModel()
	if _, _, err := Anneal(m, nil, nil, 1); err == nil {
		t.Error("expected error for empty app list")
	}
	_, res, err := Anneal(m, []App{{Name: "a", AI: 1}}, nil, 0)
	if err != nil || res == nil {
		t.Errorf("one app failed: %v", err)
	}
}

func TestAnnealRespectsConstraints(t *testing.T) {
	m := machine.PaperModel()
	apps := paperApps()
	al, _, err := Anneal(m, apps, nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := al.Validate(m, apps); err != nil {
		t.Errorf("anneal produced invalid allocation: %v", err)
	}
}
