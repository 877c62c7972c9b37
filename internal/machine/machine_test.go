package machine

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestValidateOK(t *testing.T) {
	for _, m := range []*Machine{PaperModel(), PaperModelNUMABad(), SkylakeQuad(), KNLFlat(), KNLSNC4()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: unexpected validation error: %v", m.Name, err)
		}
	}
}

// TestPresets: every preset name builds a valid, fresh machine, and an
// unknown name is refused with the list of valid ones.
func TestPresets(t *testing.T) {
	names := PresetNames()
	if len(names) != 5 {
		t.Fatalf("presets %v, want 5", names)
	}
	for _, name := range names {
		a, err := Preset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if b, _ := Preset(name); a == b {
			t.Errorf("%s: two calls returned one machine", name)
		}
	}
	_, err := Preset("paper")
	if err == nil {
		t.Fatal("unknown preset accepted")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		m    Machine
	}{
		{"empty", Machine{}},
		{"zero cores", Machine{Nodes: []Node{{Cores: 0, PeakGFLOPS: 1, MemBandwidth: 1}}}},
		{"zero gflops", Machine{Nodes: []Node{{Cores: 1, PeakGFLOPS: 0, MemBandwidth: 1}}}},
		{"zero bw", Machine{Nodes: []Node{{Cores: 1, PeakGFLOPS: 1, MemBandwidth: 0}}}},
		{"bad matrix rows", Machine{
			Nodes:         []Node{{Cores: 1, PeakGFLOPS: 1, MemBandwidth: 1}},
			LinkBandwidth: [][]float64{{0}, {0}},
		}},
		{"bad matrix cols", Machine{
			Nodes:         []Node{{Cores: 1, PeakGFLOPS: 1, MemBandwidth: 1}, {Cores: 1, PeakGFLOPS: 1, MemBandwidth: 1}},
			LinkBandwidth: [][]float64{{0}, {0}},
		}},
		{"zero link", Machine{
			Nodes:         []Node{{Cores: 1, PeakGFLOPS: 1, MemBandwidth: 1}, {Cores: 1, PeakGFLOPS: 1, MemBandwidth: 1}},
			LinkBandwidth: [][]float64{{0, 0}, {1, 0}},
		}},
	}
	for _, c := range cases {
		if err := c.m.Validate(); err == nil {
			t.Errorf("%s: expected validation error, got nil", c.name)
		}
	}
}

func TestTotals(t *testing.T) {
	m := PaperModel()
	if got := m.NumNodes(); got != 4 {
		t.Errorf("NumNodes = %d, want 4", got)
	}
	if got := m.TotalCores(); got != 32 {
		t.Errorf("TotalCores = %d, want 32", got)
	}
	if got := m.PeakGFLOPS(); got != 320 {
		t.Errorf("PeakGFLOPS = %g, want 320", got)
	}
	if got := m.TotalBandwidth(); got != 128 {
		t.Errorf("TotalBandwidth = %g, want 128", got)
	}
}

func TestNodeOfCore(t *testing.T) {
	m := PaperModel()
	cases := []struct {
		core CoreID
		node NodeID
	}{{0, 0}, {7, 0}, {8, 1}, {15, 1}, {16, 2}, {31, 3}}
	for _, c := range cases {
		if got := m.NodeOfCore(c.core); got != c.node {
			t.Errorf("NodeOfCore(%d) = %d, want %d", c.core, got, c.node)
		}
	}
}

func TestNodeOfCorePanics(t *testing.T) {
	m := PaperModel()
	for _, bad := range []CoreID{-1, 32, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NodeOfCore(%d): expected panic", bad)
				}
			}()
			m.NodeOfCore(bad)
		}()
	}
}

func TestCoresOfNode(t *testing.T) {
	m := PaperModel()
	cores := m.CoresOfNode(2)
	if len(cores) != 8 {
		t.Fatalf("CoresOfNode(2) has %d cores, want 8", len(cores))
	}
	if cores[0] != 16 || cores[7] != 23 {
		t.Errorf("CoresOfNode(2) = %v, want 16..23", cores)
	}
	if got := m.FirstCoreOfNode(3); got != 24 {
		t.Errorf("FirstCoreOfNode(3) = %d, want 24", got)
	}
}

func TestCoresOfNodeHeterogeneous(t *testing.T) {
	m := &Machine{Name: "het", Nodes: []Node{
		{Cores: 2, PeakGFLOPS: 1, MemBandwidth: 1},
		{Cores: 5, PeakGFLOPS: 1, MemBandwidth: 1},
		{Cores: 3, PeakGFLOPS: 1, MemBandwidth: 1},
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.NodeOfCore(6); got != 1 {
		t.Errorf("NodeOfCore(6) = %d, want 1", got)
	}
	if got := m.NodeOfCore(7); got != 2 {
		t.Errorf("NodeOfCore(7) = %d, want 2", got)
	}
	cores := m.CoresOfNode(1)
	if cores[0] != 2 || cores[len(cores)-1] != 6 {
		t.Errorf("CoresOfNode(1) = %v, want 2..6", cores)
	}
}

func TestLink(t *testing.T) {
	m := SkylakeQuad()
	if got := m.Link(0, 1); got != 10 {
		t.Errorf("Link(0,1) = %g, want 10", got)
	}
	if got := m.Link(2, 2); got != NoLinkLimit {
		t.Errorf("Link(2,2) = %g, want NoLinkLimit", got)
	}
	unlimited := PaperModel()
	if got := unlimited.Link(0, 3); got != NoLinkLimit {
		t.Errorf("unconstrained Link(0,3) = %g, want NoLinkLimit", got)
	}
}

func TestClone(t *testing.T) {
	m := SkylakeQuad()
	cp := m.Clone()
	cp.Nodes[0].Cores = 99
	cp.LinkBandwidth[0][1] = 1234
	if m.Nodes[0].Cores == 99 {
		t.Error("Clone shares Nodes slice")
	}
	if m.LinkBandwidth[0][1] == 1234 {
		t.Error("Clone shares LinkBandwidth")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := SkylakeQuad()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Machine
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != m.Name || back.NumNodes() != m.NumNodes() || back.TotalCores() != m.TotalCores() {
		t.Errorf("round trip mismatch: %+v vs %+v", back, m)
	}
	if back.Link(0, 1) != 10 {
		t.Errorf("round trip link = %g, want 10", back.Link(0, 1))
	}
}

func TestJSONUnmarshalValidates(t *testing.T) {
	var m Machine
	if err := json.Unmarshal([]byte(`{"name":"bad","nodes":[]}`), &m); err == nil {
		t.Error("expected validation error for empty nodes")
	}
}

func TestUniformZeroLink(t *testing.T) {
	m := Uniform("u", 2, 4, 1, 10, 0)
	if m.LinkBandwidth != nil {
		t.Error("linkBW<=0 should leave link matrix nil")
	}
}

// Property: every core maps to a node that owns it, and CoresOfNode is
// the inverse of NodeOfCore.
func TestCoreNodeInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(8)
		m := &Machine{Name: "prop"}
		for i := 0; i < nodes; i++ {
			m.Nodes = append(m.Nodes, Node{Cores: 1 + rng.Intn(16), PeakGFLOPS: 1, MemBandwidth: 1})
		}
		for n := NodeID(0); int(n) < nodes; n++ {
			for _, c := range m.CoresOfNode(n) {
				if m.NodeOfCore(c) != n {
					return false
				}
			}
		}
		// Every core appears exactly once across all nodes.
		seen := map[CoreID]bool{}
		for n := NodeID(0); int(n) < nodes; n++ {
			for _, c := range m.CoresOfNode(n) {
				if seen[c] {
					return false
				}
				seen[c] = true
			}
		}
		return len(seen) == m.TotalCores()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	s := PaperModel().String()
	if s == "" {
		t.Error("empty String()")
	}
}
