package roofline

import (
	"fmt"

	"repro/internal/machine"
)

// Even returns the allocation giving every application the same number
// of threads on every node (the paper's Fig. 2 b). It returns an error
// if the cores of any node cannot be divided evenly.
func Even(m *machine.Machine, nApps int) (Allocation, error) {
	al := NewAllocation(nApps, m.NumNodes())
	for j, n := range m.Nodes {
		if n.Cores%nApps != 0 {
			return Allocation{}, fmt.Errorf("roofline: node %d has %d cores, not divisible by %d apps", j, n.Cores, nApps)
		}
		per := n.Cores / nApps
		for i := 0; i < nApps; i++ {
			al.Threads[i][j] = per
		}
	}
	return al, nil
}

// MustEven is Even but panics on error.
func MustEven(m *machine.Machine, nApps int) Allocation {
	al, err := Even(m, nApps)
	if err != nil {
		panic(err)
	}
	return al
}

// PerNodeCounts returns the allocation giving app i counts[i] threads on
// every node (the paper's Fig. 2 a with counts like 1,1,1,5). It returns
// an error if the counts over-subscribe any node.
func PerNodeCounts(m *machine.Machine, counts []int) (Allocation, error) {
	al := NewAllocation(len(counts), m.NumNodes())
	total, fits := 0, minCores(m)
	for _, c := range counts {
		if c < 0 {
			return Allocation{}, fmt.Errorf("roofline: negative per-node count %d", c)
		}
		if c > fits { // checked before the sum, which it could wrap
			return Allocation{}, fmt.Errorf("roofline: per-node count %d > %d cores of the smallest node", c, fits)
		}
		total += c
	}
	for j, n := range m.Nodes {
		if total > n.Cores {
			return Allocation{}, fmt.Errorf("roofline: node %d over-subscribed: %d threads > %d cores", j, total, n.Cores)
		}
	}
	for i, c := range counts {
		for j := 0; j < m.NumNodes(); j++ {
			al.Threads[i][j] = c
		}
	}
	return al, nil
}

// minCores is the smallest node's core count: the per-node budget a
// uniform per-node-counts allocation must fit.
func minCores(m *machine.Machine) int {
	c := m.Nodes[0].Cores
	for _, n := range m.Nodes[1:] {
		c = min(c, n.Cores)
	}
	return c
}

// MustPerNodeCounts is PerNodeCounts but panics on error.
func MustPerNodeCounts(m *machine.Machine, counts []int) Allocation {
	al, err := PerNodeCounts(m, counts)
	if err != nil {
		panic(err)
	}
	return al
}

// NodePerApp returns the allocation dedicating node i to application i
// (the paper's Fig. 2 c). nodeOf maps each app to its node; pass nil for
// the identity mapping (app i on node i), which requires at least as
// many nodes as apps.
func NodePerApp(m *machine.Machine, nApps int, nodeOf []machine.NodeID) (Allocation, error) {
	if nodeOf == nil {
		if nApps > m.NumNodes() {
			return Allocation{}, fmt.Errorf("roofline: %d apps but only %d nodes", nApps, m.NumNodes())
		}
		nodeOf = make([]machine.NodeID, nApps)
		for i := range nodeOf {
			nodeOf[i] = machine.NodeID(i)
		}
	}
	if len(nodeOf) != nApps {
		return Allocation{}, fmt.Errorf("roofline: nodeOf has %d entries, want %d", len(nodeOf), nApps)
	}
	al := NewAllocation(nApps, m.NumNodes())
	used := make(map[machine.NodeID]int)
	for i, nd := range nodeOf {
		if int(nd) < 0 || int(nd) >= m.NumNodes() {
			return Allocation{}, fmt.Errorf("roofline: app %d mapped to node %d, out of range", i, nd)
		}
		if prev, ok := used[nd]; ok {
			return Allocation{}, fmt.Errorf("roofline: apps %d and %d both mapped to node %d", prev, i, nd)
		}
		used[nd] = i
		al.Threads[i][nd] = m.Nodes[nd].Cores
	}
	return al, nil
}

// MustNodePerApp is NodePerApp but panics on error.
func MustNodePerApp(m *machine.Machine, nApps int, nodeOf []machine.NodeID) Allocation {
	al, err := NodePerApp(m, nApps, nodeOf)
	if err != nil {
		panic(err)
	}
	return al
}

// FairShare returns an allocation splitting every node's cores as evenly
// as possible among the apps, distributing remainders round-robin with a
// per-node rotating offset so no single app systematically gets the
// extra core on every node.
func FairShare(m *machine.Machine, nApps int) Allocation {
	al := NewAllocation(nApps, m.NumNodes())
	for j, n := range m.Nodes {
		base := n.Cores / nApps
		extra := n.Cores % nApps
		for i := 0; i < nApps; i++ {
			al.Threads[i][j] = base
		}
		for k := 0; k < extra; k++ {
			al.Threads[(j+k)%nApps][j]++
		}
	}
	return al
}

// FairShareFirst is FairShare without the rotation: on every node the
// remainder cores go one each to the first apps. This is the split the
// agent's per-node fair-share policy and coopd's fairshare policy serve
// (the paper's option 3).
func FairShareFirst(m *machine.Machine, nApps int) Allocation {
	al := NewAllocation(nApps, m.NumNodes())
	for j, n := range m.Nodes {
		for i := 0; i < nApps; i++ {
			al.Threads[i][j] = n.Cores / nApps
			if i < n.Cores%nApps {
				al.Threads[i][j]++
			}
		}
	}
	return al
}
