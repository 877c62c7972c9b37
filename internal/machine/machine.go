// Package machine describes NUMA machine topologies used by both the
// analytic roofline model and the discrete-event simulator.
//
// A Machine is a set of NUMA nodes, each with a number of CPU cores, a
// peak per-core compute rate, and a local memory controller with a peak
// bandwidth. Nodes are connected by point-to-point links with their own
// peak bandwidths; accessing another node's memory is limited by the link
// between the two nodes in addition to the target controller's bandwidth.
package machine

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
)

// NodeID identifies a NUMA node within a Machine.
type NodeID int

// CoreID identifies a CPU core within a Machine. Cores are numbered
// globally: node n owns cores [n*CoresPerNode, (n+1)*CoresPerNode).
type CoreID int

// Node describes one NUMA node.
type Node struct {
	// Cores is the number of CPU cores attached to this node.
	Cores int `json:"cores"`
	// PeakGFLOPS is the peak compute rate of one core (GFLOP/s).
	PeakGFLOPS float64 `json:"peak_gflops"`
	// MemBandwidth is the peak local memory bandwidth (GB/s) of the
	// node's memory controller, shared by all accessors.
	MemBandwidth float64 `json:"mem_bandwidth"`
}

// Machine is a complete NUMA machine description.
type Machine struct {
	// Name labels the machine in reports.
	Name string `json:"name"`
	// Nodes lists the NUMA nodes. Must be non-empty.
	Nodes []Node `json:"nodes"`
	// LinkBandwidth[i][j] is the peak bandwidth (GB/s) of the
	// point-to-point link from node i's cores to node j's memory.
	// The diagonal is ignored (local access is limited only by the
	// controller). A nil matrix means "infinite" links.
	LinkBandwidth [][]float64 `json:"link_bandwidth,omitempty"`
}

// Validate checks internal consistency. It returns a descriptive error
// for the first problem found.
func (m *Machine) Validate() error {
	if len(m.Nodes) == 0 {
		return errors.New("machine: no NUMA nodes")
	}
	for i, n := range m.Nodes {
		if n.Cores <= 0 {
			return fmt.Errorf("machine: node %d has %d cores", i, n.Cores)
		}
		if n.PeakGFLOPS <= 0 {
			return fmt.Errorf("machine: node %d has non-positive peak GFLOPS %g", i, n.PeakGFLOPS)
		}
		if n.MemBandwidth <= 0 {
			return fmt.Errorf("machine: node %d has non-positive bandwidth %g", i, n.MemBandwidth)
		}
	}
	if m.LinkBandwidth != nil {
		if len(m.LinkBandwidth) != len(m.Nodes) {
			return fmt.Errorf("machine: link matrix has %d rows, want %d", len(m.LinkBandwidth), len(m.Nodes))
		}
		for i, row := range m.LinkBandwidth {
			if len(row) != len(m.Nodes) {
				return fmt.Errorf("machine: link matrix row %d has %d entries, want %d", i, len(row), len(m.Nodes))
			}
			for j, bw := range row {
				if i != j && bw <= 0 {
					return fmt.Errorf("machine: link %d->%d has non-positive bandwidth %g", i, j, bw)
				}
			}
		}
	}
	return nil
}

// NumNodes returns the number of NUMA nodes.
func (m *Machine) NumNodes() int { return len(m.Nodes) }

// TotalCores returns the total number of CPU cores across all nodes.
func (m *Machine) TotalCores() int {
	total := 0
	for _, n := range m.Nodes {
		total += n.Cores
	}
	return total
}

// NodeOfCore returns the NUMA node that owns the given global core ID.
// It panics if the core ID is out of range.
func (m *Machine) NodeOfCore(c CoreID) NodeID {
	id := int(c)
	if id < 0 {
		panic(fmt.Sprintf("machine: negative core id %d", id))
	}
	for i, n := range m.Nodes {
		if id < n.Cores {
			return NodeID(i)
		}
		id -= n.Cores
	}
	panic(fmt.Sprintf("machine: core id %d out of range (total %d)", c, m.TotalCores()))
}

// CoresOfNode returns the global core IDs belonging to the given node.
func (m *Machine) CoresOfNode(n NodeID) []CoreID {
	if int(n) < 0 || int(n) >= len(m.Nodes) {
		panic(fmt.Sprintf("machine: node id %d out of range", n))
	}
	start := 0
	for i := 0; i < int(n); i++ {
		start += m.Nodes[i].Cores
	}
	cores := make([]CoreID, m.Nodes[n].Cores)
	for i := range cores {
		cores[i] = CoreID(start + i)
	}
	return cores
}

// FirstCoreOfNode returns the lowest global core ID on the node.
func (m *Machine) FirstCoreOfNode(n NodeID) CoreID {
	start := 0
	for i := 0; i < int(n); i++ {
		start += m.Nodes[i].Cores
	}
	return CoreID(start)
}

// Link returns the peak bandwidth of the link from node i's cores to
// node j's memory. Local access (i == j) and machines without a link
// matrix report +Inf-like "no limit" as a very large number.
func (m *Machine) Link(i, j NodeID) float64 {
	if i == j || m.LinkBandwidth == nil {
		return NoLinkLimit
	}
	return m.LinkBandwidth[i][j]
}

// NoLinkLimit is the bandwidth reported for unconstrained links.
// It is large enough to never be the bottleneck for realistic machines.
const NoLinkLimit = 1e18

// PeakGFLOPS returns the machine's aggregate peak compute rate.
func (m *Machine) PeakGFLOPS() float64 {
	total := 0.0
	for _, n := range m.Nodes {
		total += float64(n.Cores) * n.PeakGFLOPS
	}
	return total
}

// TotalBandwidth returns the machine's aggregate local memory bandwidth.
func (m *Machine) TotalBandwidth() float64 {
	total := 0.0
	for _, n := range m.Nodes {
		total += n.MemBandwidth
	}
	return total
}

// String returns a short human-readable summary.
func (m *Machine) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d nodes", m.Name, len(m.Nodes))
	if len(m.Nodes) > 0 {
		n := m.Nodes[0]
		fmt.Fprintf(&b, " x %d cores, %.3g GFLOPS/core, %.4g GB/s/node", n.Cores, n.PeakGFLOPS, n.MemBandwidth)
	}
	return b.String()
}

// Clone returns a deep copy of the machine.
func (m *Machine) Clone() *Machine {
	cp := &Machine{Name: m.Name, Nodes: append([]Node(nil), m.Nodes...)}
	if m.LinkBandwidth != nil {
		cp.LinkBandwidth = make([][]float64, len(m.LinkBandwidth))
		for i, row := range m.LinkBandwidth {
			cp.LinkBandwidth[i] = append([]float64(nil), row...)
		}
	}
	return cp
}

// MarshalJSON implements json.Marshaler (plain struct encoding; defined
// so the symmetric UnmarshalJSON can validate).
func (m *Machine) MarshalJSON() ([]byte, error) {
	type plain Machine
	return json.Marshal((*plain)(m))
}

// UnmarshalJSON implements json.Unmarshaler and validates the result.
func (m *Machine) UnmarshalJSON(data []byte) error {
	type plain Machine
	if err := json.Unmarshal(data, (*plain)(m)); err != nil {
		return err
	}
	return m.Validate()
}

// Uniform builds a machine with identical nodes and a full link mesh of
// uniform bandwidth. linkBW <= 0 means unconstrained links.
func Uniform(name string, nodes, coresPerNode int, gflopsPerCore, nodeBW, linkBW float64) *Machine {
	m := &Machine{Name: name}
	for i := 0; i < nodes; i++ {
		m.Nodes = append(m.Nodes, Node{Cores: coresPerNode, PeakGFLOPS: gflopsPerCore, MemBandwidth: nodeBW})
	}
	if linkBW > 0 {
		m.LinkBandwidth = make([][]float64, nodes)
		for i := range m.LinkBandwidth {
			m.LinkBandwidth[i] = make([]float64, nodes)
			for j := range m.LinkBandwidth[i] {
				if i != j {
					m.LinkBandwidth[i][j] = linkBW
				}
			}
		}
	}
	return m
}

// PaperModel is the model machine used in the paper's Tables I and II:
// 4 NUMA nodes, 8 cores each, peak 10 GFLOPS per core, 32 GB/s per node,
// unconstrained links (all examples are NUMA-perfect).
func PaperModel() *Machine {
	return Uniform("paper-model-4x8", 4, 8, 10, 32, 0)
}

// PaperModelNUMABad is the machine for the paper's NUMA-bad example
// (Fig. 3): same layout, but a 60 GB/s node bandwidth and 10 GB/s links
// chosen so the in-text numbers (~138 vs 150 GFLOPS) come out.
func PaperModelNUMABad() *Machine {
	return Uniform("paper-model-numabad-4x8", 4, 8, 10, 60, 10)
}

// SkylakeQuad is the calibrated machine from the paper's Section III.B:
// four Xeon Gold 6138 sockets modeled as 4 NUMA nodes x 20 cores,
// 100 GB/s per node, 0.29 GFLOPS per thread. The 10 GB/s link bandwidth
// is inferred from the Table III cross-node model value (13.98 GFLOPS).
func SkylakeQuad() *Machine {
	return Uniform("skylake-quad-4x20", 4, 20, 0.29, 100, 10)
}

// KNLFlat models a Knights Landing style machine in flat/quadrant-like
// mode referenced by the paper's NUMA discussion: a single node with many
// cores (NUMA can be "switched off").
func KNLFlat() *Machine {
	return Uniform("knl-flat-1x64", 1, 64, 3, 400, 0)
}

// KNLSNC4 models KNL with sub-NUMA clustering into 4 nodes.
func KNLSNC4() *Machine {
	return Uniform("knl-snc4-4x16", 4, 16, 3, 100, 25)
}

// presets is the one table of named machine presets: coopd's -machine,
// fleetsim's scenario "model", numasim's "preset" and numabench's
// -machine all resolve through Preset.
var presets = []struct {
	name  string
	build func() *Machine
}{
	{"paper-model", PaperModel},
	{"paper-numabad", PaperModelNUMABad},
	{"skylake", SkylakeQuad},
	{"knl-flat", KNLFlat},
	{"knl-snc4", KNLSNC4},
}

// PresetNames lists the preset names Preset accepts.
func PresetNames() []string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.name
	}
	return names
}

// Preset builds a fresh machine of the named preset (callers may
// modify it); an unknown name is an error listing the valid ones.
func Preset(name string) (*Machine, error) {
	for _, p := range presets {
		if p.name == name {
			return p.build(), nil
		}
	}
	return nil, fmt.Errorf("unknown machine preset %q (want one of %s)", name, strings.Join(PresetNames(), ", "))
}
