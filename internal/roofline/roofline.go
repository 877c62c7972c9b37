// Package roofline implements the paper's analytic performance model
// (Section III.A) for multiple applications sharing a NUMA machine under
// per-NUMA-node thread allocations.
//
// The model follows the roofline idea: every thread of an application
// with arithmetic intensity AI running on a core with peak rate P GFLOPS
// demands P/AI GB/s of memory bandwidth. Bandwidth on each node is split
// by two rules:
//
//  1. baseline guarantee — each core can get at least its equal share
//     (node bandwidth divided by the number of cores on the node), and
//  2. proportional remainder — bandwidth left after the baselines is
//     split among still-unsatisfied threads proportionally to their
//     residual demand (water-filling, so no thread receives more than
//     it asked for).
//
// The NUMA-bad extension: an application may store all of its data on a
// single home node. Its threads on other nodes access that memory over
// the inter-node link. A node's memory controller serves remote requests
// first (each capped by the link bandwidth from the requesting node) and
// splits the remaining bandwidth among local accessors as above.
package roofline

import (
	"errors"
	"fmt"

	"repro/internal/machine"
)

// Placement describes how an application lays out its data.
type Placement int

const (
	// NUMAPerfect applications keep every thread's data on the thread's
	// own node; all accesses are local.
	NUMAPerfect Placement = iota
	// NUMABad applications store all data on a single home node; threads
	// running elsewhere access it remotely over the inter-node links.
	NUMABad
)

// String returns the placement name.
func (p Placement) String() string {
	switch p {
	case NUMAPerfect:
		return "numa-perfect"
	case NUMABad:
		return "numa-bad"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// App is one application in the model.
type App struct {
	// Name labels the application in reports.
	Name string
	// AI is the arithmetic intensity: FLOPs per byte moved to/from
	// memory. Must be positive.
	AI float64
	// Placement selects the data layout (NUMAPerfect or NUMABad).
	Placement Placement
	// HomeNode is the node holding all data of a NUMABad application.
	// Ignored for NUMAPerfect.
	HomeNode machine.NodeID
	// Weight scales this app's contribution under weighted objectives
	// (ObjWeightedPriority). Zero means 1; the analytic model itself
	// ignores it, so evaluation results never depend on Weight.
	Weight float64
}

// demandPerThread returns the bandwidth one thread tries to use when its
// core has the given peak compute rate.
func (a App) demandPerThread(peakGFLOPS float64) float64 {
	return peakGFLOPS / a.AI
}

// Allocation assigns worker threads to applications per NUMA node:
// Threads[app][node] is the number of threads application app runs on
// node. This is the paper's blocking option 3 ("number of threads per
// NUMA node") expressed declaratively.
type Allocation struct {
	Threads [][]int
}

// NewAllocation returns an all-zero allocation for the given number of
// applications and nodes.
func NewAllocation(apps, nodes int) Allocation {
	t := make([][]int, apps)
	for i := range t {
		t[i] = make([]int, nodes)
	}
	return Allocation{Threads: t}
}

// Clone returns a deep copy.
func (al Allocation) Clone() Allocation {
	if len(al.Threads) == 0 {
		return Allocation{Threads: [][]int{}}
	}
	cp := NewAllocation(len(al.Threads), len(al.Threads[0]))
	for i := range al.Threads {
		copy(cp.Threads[i], al.Threads[i])
	}
	return cp
}

// Set assigns count threads of app on node and returns the allocation
// for chaining.
func (al Allocation) Set(app int, node machine.NodeID, count int) Allocation {
	al.Threads[app][node] = count
	return al
}

// AppThreads returns the total threads of one application.
func (al Allocation) AppThreads(app int) int {
	total := 0
	for _, c := range al.Threads[app] {
		total += c
	}
	return total
}

// NodeThreads returns the total threads on one node across applications.
func (al Allocation) NodeThreads(node machine.NodeID) int {
	total := 0
	for _, row := range al.Threads {
		total += row[node]
	}
	return total
}

// TotalThreads returns the overall thread count.
func (al Allocation) TotalThreads() int {
	total := 0
	for i := range al.Threads {
		total += al.AppThreads(i)
	}
	return total
}

// Validate checks the allocation against a machine and application list:
// matching dimensions, non-negative counts, and the paper's
// no-over-subscription assumption (threads per node <= cores per node).
func (al Allocation) Validate(m *machine.Machine, apps []App) error {
	if len(al.Threads) != len(apps) {
		return fmt.Errorf("roofline: allocation has %d apps, want %d", len(al.Threads), len(apps))
	}
	for i, row := range al.Threads {
		if len(row) != m.NumNodes() {
			return fmt.Errorf("roofline: app %d allocation has %d nodes, want %d", i, len(row), m.NumNodes())
		}
		for j, c := range row {
			if c < 0 {
				return fmt.Errorf("roofline: app %d node %d has negative thread count %d", i, j, c)
			}
			if c > m.Nodes[j].Cores { // checked before the node's sum, which it could wrap
				return fmt.Errorf("roofline: node %d over-subscribed: app %d alone has %d threads > %d cores", j, i, c, m.Nodes[j].Cores)
			}
		}
	}
	for j := 0; j < m.NumNodes(); j++ {
		if n := al.NodeThreads(machine.NodeID(j)); n > m.Nodes[j].Cores {
			return fmt.Errorf("roofline: node %d over-subscribed: %d threads > %d cores", j, n, m.Nodes[j].Cores)
		}
	}
	return nil
}

// String renders the allocation as a compact matrix.
func (al Allocation) String() string {
	s := ""
	for i, row := range al.Threads {
		if i > 0 {
			s += "; "
		}
		s += fmt.Sprintf("app%d:%v", i, row)
	}
	return s
}

// AppNodeResult is the model outcome for one application on one node.
type AppNodeResult struct {
	// Threads running there.
	Threads int
	// DemandPerThread is the bandwidth (GB/s) each thread asked for.
	DemandPerThread float64
	// BWPerThread is the bandwidth (GB/s) each thread received.
	BWPerThread float64
	// GFLOPSPerThread is min(peak, BWPerThread*AI).
	GFLOPSPerThread float64
	// GFLOPS is the application's total on this node.
	GFLOPS float64
	// Remote reports whether the bandwidth was served by a remote
	// node's memory (NUMA-bad threads off their home node).
	Remote bool
}

// NodeResult aggregates one memory node's bandwidth accounting.
type NodeResult struct {
	// Baseline is the per-core guaranteed share (bandwidth remaining
	// after remote service divided by core count).
	Baseline float64
	// RemoteServed is bandwidth this node's memory spent serving
	// threads running on other nodes.
	RemoteServed float64
	// LocalServed is bandwidth handed to threads running on this node
	// (including NUMA-bad threads whose home is this node).
	LocalServed float64
	// GFLOPS is the total compute rate of threads running on this node.
	GFLOPS float64
}

// Result is the full model outcome.
type Result struct {
	// PerApp[i][j] describes app i's threads running on node j.
	PerApp [][]AppNodeResult
	// PerNode[j] describes memory node j's accounting.
	PerNode []NodeResult
	// AppGFLOPS[i] is app i's machine-wide total.
	AppGFLOPS []float64
	// TotalGFLOPS is the machine-wide total.
	TotalGFLOPS float64
}

// Options tweaks the model's bandwidth-split rules. The zero value is
// the paper's model; the flags exist for the ablation studies in
// DESIGN.md.
type Options struct {
	// NoBaseline drops the per-core baseline guarantee and splits the
	// whole node bandwidth proportionally to demand.
	NoBaseline bool
	// LocalFirst serves local accessors before remote ones, inverting
	// the paper's remote-first rule.
	LocalFirst bool
}

// Evaluate runs the model with default options. It returns an error if
// the inputs are inconsistent (dimensions, negative counts,
// over-subscription, non-positive AI, out-of-range home node).
func Evaluate(m *machine.Machine, apps []App, al Allocation) (*Result, error) {
	return EvaluateOpts(m, apps, al, Options{})
}

// EvaluateOpts runs the model with explicit options.
func EvaluateOpts(m *machine.Machine, apps []App, al Allocation, opt Options) (*Result, error) {
	res := &Result{}
	if err := evaluateInto(res, m, apps, al, opt); err != nil {
		return nil, err
	}
	return res, nil
}

// evaluateInto is the reference model: it validates the inputs and
// overwrites res, reusing its backing arrays.
func evaluateInto(res *Result, m *machine.Machine, apps []App, al Allocation, opt Options) error {
	if err := checkInputs(m, apps); err != nil {
		return err
	}
	if err := al.Validate(m, apps); err != nil {
		return err
	}

	nNodes := m.NumNodes()
	prepareResult(res, len(apps), nNodes)

	// For each memory node h: serve remote accessors (NUMA-bad apps
	// with home h whose threads run elsewhere, each capped by the
	// requesting link) and local accessors (NUMA-perfect threads on h
	// plus NUMA-bad threads on their home node). The paper's rule is
	// remote first; opt.LocalFirst inverts the order for ablation.
	type remoteClaim struct {
		app, node int // app index, node its threads run on
		demand    float64
		granted   float64
	}
	remoteClaims := make([][]remoteClaim, nNodes) // indexed by memory node

	// serveRemote grants remote demand against avail bandwidth and
	// returns the total served.
	serveRemote := func(h int, avail float64) float64 {
		perLink := make([]float64, nNodes) // demand grouped by requesting node
		var claims []remoteClaim
		for i, a := range apps {
			if a.Placement != NUMABad || int(a.HomeNode) != h {
				continue
			}
			for j := 0; j < nNodes; j++ {
				if j == h {
					continue
				}
				th := al.Threads[i][j]
				if th == 0 {
					continue
				}
				d := float64(th) * a.demandPerThread(m.Nodes[j].PeakGFLOPS)
				perLink[j] += d
				claims = append(claims, remoteClaim{app: i, node: j, demand: d})
			}
		}
		// Cap per link, splitting a saturated link proportionally to
		// demand across the apps sharing it.
		served := 0.0
		for idx := range claims {
			c := &claims[idx]
			link := m.Link(machine.NodeID(c.node), machine.NodeID(h))
			if perLink[c.node] <= link {
				c.granted = c.demand
			} else {
				c.granted = c.demand * link / perLink[c.node]
			}
			served += c.granted
		}
		// The memory controller cannot serve more than avail in total.
		if served > avail {
			scale := 0.0
			if served > 0 {
				scale = avail / served
			}
			for idx := range claims {
				claims[idx].granted *= scale
			}
			served = avail
		}
		remoteClaims[h] = claims
		return served
	}

	// serveLocal splits avail bandwidth among local accessors of node h
	// (baseline guarantee + proportional remainder) and returns the
	// total handed out.
	serveLocal := func(h int, avail float64) float64 {
		cores := m.Nodes[h].Cores
		baseline := avail / float64(cores)
		if opt.NoBaseline {
			baseline = 0
		}
		res.PerNode[h].Baseline = baseline

		type localClaim struct {
			app       int
			threads   int
			perThread float64 // demand per thread
			granted   float64 // granted per thread
		}
		var claims []localClaim
		for i, a := range apps {
			th := al.Threads[i][h]
			if th == 0 {
				continue
			}
			if a.Placement == NUMABad && int(a.HomeNode) != h {
				continue // served remotely
			}
			claims = append(claims, localClaim{
				app:       i,
				threads:   th,
				perThread: a.demandPerThread(m.Nodes[h].PeakGFLOPS),
			})
		}
		allocated := 0.0
		for idx := range claims {
			c := &claims[idx]
			c.granted = min(c.perThread, baseline)
			allocated += c.granted * float64(c.threads)
		}
		// Split the remainder proportionally to residual demand. A
		// share proportional to the residual never overshoots any
		// thread's demand, so a single round settles it: either the
		// remainder covers all residuals (share capped at 1) or it is
		// consumed exactly.
		remaining := avail - allocated
		residualTotal := 0.0
		for idx := range claims {
			c := &claims[idx]
			residualTotal += (c.perThread - c.granted) * float64(c.threads)
		}
		if remaining > 1e-12 && residualTotal > 1e-12 {
			share := remaining / residualTotal
			if share > 1 {
				share = 1
			}
			for idx := range claims {
				c := &claims[idx]
				c.granted += (c.perThread - c.granted) * share
			}
		}
		localServed := 0.0
		for _, c := range claims {
			a := apps[c.app]
			gPerThread := min(m.Nodes[h].PeakGFLOPS, c.granted*a.AI)
			r := &res.PerApp[c.app][h]
			r.Threads = c.threads
			r.DemandPerThread = c.perThread
			r.BWPerThread = c.granted
			r.GFLOPSPerThread = gPerThread
			r.GFLOPS = gPerThread * float64(c.threads)
			localServed += c.granted * float64(c.threads)
		}
		res.PerNode[h].LocalServed = localServed
		return localServed
	}

	for h := 0; h < nNodes; h++ {
		bw := m.Nodes[h].MemBandwidth
		if opt.LocalFirst {
			local := serveLocal(h, bw)
			res.PerNode[h].RemoteServed = serveRemote(h, bw-local)
		} else {
			remote := serveRemote(h, bw)
			res.PerNode[h].RemoteServed = remote
			serveLocal(h, bw-remote)
		}
	}

	// Pass 3: fold remote grants into per-app results. A NUMA-bad app's
	// threads on node j (home h) compute at the rate allowed by the
	// bandwidth granted by node h.
	for h := 0; h < nNodes; h++ {
		for _, c := range remoteClaims[h] {
			i, j := c.app, c.node
			th := al.Threads[i][j]
			a := apps[i]
			bwPerThread := c.granted / float64(th)
			gPerThread := min(m.Nodes[j].PeakGFLOPS, bwPerThread*a.AI)
			r := &res.PerApp[i][j]
			r.Threads = th
			r.DemandPerThread = c.demand / float64(th)
			r.BWPerThread = bwPerThread
			r.GFLOPSPerThread = gPerThread
			r.GFLOPS = gPerThread * float64(th)
			r.Remote = true
		}
	}

	// Totals.
	for i := range apps {
		for j := 0; j < nNodes; j++ {
			g := res.PerApp[i][j].GFLOPS
			res.AppGFLOPS[i] += g
			res.PerNode[j].GFLOPS += g
		}
		res.TotalGFLOPS += res.AppGFLOPS[i]
	}
	return nil
}

// MustEvaluate is Evaluate but panics on error; for tests and examples
// with known-good inputs.
func MustEvaluate(m *machine.Machine, apps []App, al Allocation) *Result {
	r, err := Evaluate(m, apps, al)
	if err != nil {
		panic(err)
	}
	return r
}

// ErrNoAllocation is returned by optimizers when no feasible allocation
// exists.
var ErrNoAllocation = errors.New("roofline: no feasible allocation")
