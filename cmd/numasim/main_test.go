package main

import (
	"encoding/json"
	"testing"

	"repro/internal/machine"
)

func parse(t *testing.T, s string) fileConfig {
	t.Helper()
	var fc fileConfig
	if err := json.Unmarshal([]byte(s), &fc); err != nil {
		t.Fatal(err)
	}
	return fc
}

func TestExampleConfigParses(t *testing.T) {
	fc := parse(t, exampleConfig)
	m, err := buildMachine(fc)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalCores() != 32 {
		t.Errorf("preset machine cores = %d, want 32", m.TotalCores())
	}
	al, err := buildAllocation(m, fc.Allocation, len(fc.Apps))
	if err != nil {
		t.Fatal(err)
	}
	if al.TotalThreads() != 32 {
		t.Errorf("allocation total = %d, want 32", al.TotalThreads())
	}
}

func TestBuildMachinePresets(t *testing.T) {
	for _, preset := range machine.PresetNames() {
		fc := fileConfig{}
		fc.Machine.Preset = preset
		if _, err := buildMachine(fc); err != nil {
			t.Errorf("preset %q: %v", preset, err)
		}
	}
	fc := fileConfig{}
	fc.Machine.Preset = "bogus"
	if _, err := buildMachine(fc); err == nil {
		t.Error("expected error for unknown preset")
	}
}

func TestBuildMachineCustom(t *testing.T) {
	fc := parse(t, `{"machine":{"nodes":2,"cores_per_node":4,"gflops_per_core":5,"node_bandwidth":20,"link_bandwidth":8}}`)
	m, err := buildMachine(fc)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 2 || m.Nodes[0].PeakGFLOPS != 5 || m.Link(0, 1) != 8 {
		t.Errorf("custom machine wrong: %+v", m)
	}
	// Missing dimensions.
	if _, err := buildMachine(fileConfig{}); err == nil {
		t.Error("expected error for empty machine")
	}
}

func TestBuildAllocationShorthand(t *testing.T) {
	m := machine.PaperModel()
	// Single-value rows expand to all nodes.
	al, err := buildAllocation(m, [][]int{{2}, {3}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		if al.Threads[0][j] != 2 || al.Threads[1][j] != 3 {
			t.Errorf("shorthand expansion wrong at node %d", j)
		}
	}
	// Full rows pass through.
	al, err = buildAllocation(m, [][]int{{1, 2, 3, 2}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if al.Threads[0][2] != 3 {
		t.Error("full row not copied")
	}
}

func TestBuildAllocationErrors(t *testing.T) {
	m := machine.PaperModel()
	if _, err := buildAllocation(m, [][]int{{1}}, 2); err == nil {
		t.Error("expected row-count mismatch error")
	}
	if _, err := buildAllocation(m, [][]int{{1, 2}}, 1); err == nil {
		t.Error("expected row-length error")
	}
}
