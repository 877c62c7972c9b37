package roofline

import (
	"fmt"
	"slices"

	"repro/internal/machine"
)

// nodeModel is the model of Evaluate specialised to one (machine, apps)
// pair: the validated inputs, the tables the per-node arithmetic reads,
// and the grouping of nodes into classes.
//
// It exploits the model's per-node independence: memory node h's
// bandwidth split depends only on
//
//   - the thread counts on h of its local accessors (NUMA-perfect apps
//     plus NUMA-bad apps homed at h), and
//   - the full thread rows of NUMA-bad apps homed at h (their threads
//     elsewhere are h's remote accessors);
//
// NUMA-bad apps homed at other nodes are invisible to h. Nodes that are
// nobody's home node and have identical hardware therefore evaluate to
// the same outcome whenever their local accessors' counts agree: they
// share one class. Home nodes are singleton classes.
//
// A nodeModel is read-only between fits: the Evaluator fits one of its
// own, and a solve fits the one its pooled worker owns.
type nodeModel struct {
	m    *machine.Machine
	apps []App

	nApps, nNodes int

	// demand[i*nNodes+j] is apps[i].demandPerThread(Nodes[j].PeakGFLOPS),
	// precomputed so the hot path never divides by AI.
	demand []float64

	// localApps[h] lists (in app order) the apps whose threads on h are
	// served by h's local split; homeApps[h] lists the NUMA-bad apps
	// homed at h (their threads elsewhere are h's remote accessors).
	localApps [][]int32
	homeApps  [][]int32

	// classOf maps a node to its class; classRep maps a class back to
	// its first node.
	classOf  []int
	classRep []int
}

// fit validates the inputs exactly as Evaluate does and refits the
// tables to them in place, reusing their backing arrays. On an error
// it leaves the model as it was.
func (md *nodeModel) fit(m *machine.Machine, apps []App) error {
	if err := m.Validate(); err != nil {
		return err
	}
	for i, a := range apps {
		if a.AI <= 0 {
			return fmt.Errorf("roofline: app %d (%s) has non-positive AI %g", i, a.Name, a.AI)
		}
		if a.Placement == NUMABad {
			if int(a.HomeNode) < 0 || int(a.HomeNode) >= m.NumNodes() {
				return fmt.Errorf("roofline: app %d (%s) home node %d out of range", i, a.Name, a.HomeNode)
			}
		}
	}
	nApps, nNodes := len(apps), m.NumNodes()
	md.m, md.apps = m, append(md.apps[:0], apps...)
	md.nApps, md.nNodes = nApps, nNodes
	md.demand = slices.Grow(md.demand[:0], nApps*nNodes)[:nApps*nNodes]
	md.localApps = slices.Grow(md.localApps[:0], nNodes)[:nNodes]
	md.homeApps = slices.Grow(md.homeApps[:0], nNodes)[:nNodes]
	md.classOf = slices.Grow(md.classOf[:0], nNodes)[:nNodes]
	md.classRep = md.classRep[:0]
	for h := range md.homeApps {
		md.homeApps[h] = md.homeApps[h][:0]
	}
	for i, a := range apps {
		for j := 0; j < nNodes; j++ {
			md.demand[i*nNodes+j] = a.demandPerThread(m.Nodes[j].PeakGFLOPS)
		}
		if a.Placement == NUMABad {
			md.homeApps[a.HomeNode] = append(md.homeApps[a.HomeNode], int32(i))
		}
	}
	for h := 0; h < nNodes; h++ {
		md.localApps[h] = slices.Grow(md.localApps[h][:0], nApps)
		for i, a := range apps {
			if a.Placement != NUMABad || int(a.HomeNode) == h {
				md.localApps[h] = append(md.localApps[h], int32(i))
			}
		}
		// A home node's outcome embeds absolute remote coordinates and
		// link bandwidths; any other node's depends only on (cores, peak,
		// bandwidth) and the perfect apps' counts on it.
		c := len(md.classRep)
		if len(md.homeApps[h]) == 0 {
			for c2, h2 := range md.classRep {
				if len(md.homeApps[h2]) == 0 && m.Nodes[h2] == m.Nodes[h] {
					c = c2
					break
				}
			}
		}
		if c == len(md.classRep) {
			md.classRep = append(md.classRep, h)
		}
		md.classOf[h] = c
	}
	return nil
}

// nodeEval is one memory node's evaluation. The caller gathers the
// node's claims — app, node and thread count, zero-thread cells skipped,
// in the reference order (apps in index order, then nodes) — and
// nodeModel.compute fills in everything else.
type nodeEval struct {
	local  []localClaim
	remote []remoteClaim

	baseline     float64
	remoteServed float64
	localServed  float64
	computed     bool // compute has run over the claims
}

// localClaim is one app's threads on the node being evaluated, served
// by its local split.
type localClaim struct {
	app        int32
	threads    int
	perThread  float64 // demand per thread
	granted    float64 // bandwidth per thread
	gPerThread float64
	gflops     float64
}

// remoteClaim is a homed NUMA-bad app's threads on another node, served
// by the evaluated node over the link from there.
type remoteClaim struct {
	app, node   int32
	threads     int
	demand      float64 // over all the claim's threads
	granted     float64
	bwPerThread float64
	gPerThread  float64
	gflops      float64
}

func (ev *nodeEval) reset() {
	ev.local, ev.remote = ev.local[:0], ev.remote[:0]
}

func (c *localClaim) cell() AppNodeResult {
	return AppNodeResult{
		Threads:         c.threads,
		DemandPerThread: c.perThread,
		BWPerThread:     c.granted,
		GFLOPSPerThread: c.gPerThread,
		GFLOPS:          c.gflops,
	}
}

func (c *remoteClaim) cell() AppNodeResult {
	return AppNodeResult{
		Threads:         c.threads,
		DemandPerThread: c.demand / float64(c.threads),
		BWPerThread:     c.bwPerThread,
		GFLOPSPerThread: c.gPerThread,
		GFLOPS:          c.gflops,
		Remote:          true,
	}
}

// compute runs Evaluate's pipeline for memory node h over the claims
// gathered in ev — remote-first service, local baseline + one-round
// proportional remainder, remote fold — with the reference's operation
// order, so every float it produces is bit-identical to the
// reference's. This is the only copy of the per-node arithmetic outside
// the reference itself. perLink is nNodes of zeroed scratch, returned
// zeroed.
func (md *nodeModel) compute(ev *nodeEval, perLink []float64, h int) {
	ev.computed = true
	bw := md.m.Nodes[h].MemBandwidth
	ev.remoteServed = md.serveRemote(ev, perLink, h, bw)
	md.serveLocal(ev, h, bw-ev.remoteServed)
	for idx := range ev.remote {
		c := &ev.remote[idx]
		c.bwPerThread = c.granted / float64(c.threads)
		c.gPerThread = min(md.m.Nodes[c.node].PeakGFLOPS, c.bwPerThread*md.apps[c.app].AI)
		c.gflops = c.gPerThread * float64(c.threads)
	}
}

func (md *nodeModel) serveRemote(ev *nodeEval, perLink []float64, h int, avail float64) float64 {
	claims := ev.remote
	for idx := range claims {
		c := &claims[idx]
		c.demand = float64(c.threads) * md.demand[int(c.app)*md.nNodes+int(c.node)]
		perLink[c.node] += c.demand
	}
	served := 0.0
	for idx := range claims {
		c := &claims[idx]
		link := md.m.Link(machine.NodeID(c.node), machine.NodeID(h))
		if perLink[c.node] <= link {
			c.granted = c.demand
		} else {
			c.granted = c.demand * link / perLink[c.node]
		}
		served += c.granted
	}
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
	for idx := range claims {
		perLink[claims[idx].node] = 0
	}
	return served
}

func (md *nodeModel) serveLocal(ev *nodeEval, h int, avail float64) float64 {
	baseline := avail / float64(md.m.Nodes[h].Cores)
	ev.baseline = baseline

	claims := ev.local
	allocated := 0.0
	for idx := range claims {
		c := &claims[idx]
		c.perThread = md.demand[int(c.app)*md.nNodes+h]
		c.granted = min(c.perThread, baseline)
		allocated += c.granted * float64(c.threads)
	}
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
	peak := md.m.Nodes[h].PeakGFLOPS
	localServed := 0.0
	for idx := range claims {
		c := &claims[idx]
		c.gPerThread = min(peak, c.granted*md.apps[c.app].AI)
		c.gflops = c.gPerThread * float64(c.threads)
		localServed += c.granted * float64(c.threads)
	}
	ev.localServed = localServed
	return localServed
}

// Evaluator is a scratch-reusing implementation of the model in
// Evaluate for optimizer loops that evaluate many allocations over
// one (machine, apps) pair. Every node remembers its last evaluation
// and reuses it while its claims stay the same — a hill-climb move
// recomputes only the nodes it touches — and a node whose claims equal
// those of its class's first node (see nodeModel) reuses that node's,
// so a symmetric allocation on a uniform machine computes one node.
//
// Results are bit-identical to Evaluate: the arithmetic (including
// operation order) is replicated exactly, and reused outcomes are the
// float64 values previously computed. The differential tests in
// evaluator_test.go and the FuzzEvaluatorEquivalence corpus enforce
// this with exact == comparisons.
//
// An Evaluator is NOT safe for concurrent use.
type Evaluator struct {
	md *nodeModel

	last    []nodeEval // per node: its last evaluation
	perLink []float64

	hits, misses uint64
}

// NewEvaluator builds an evaluator for the machine and apps.
func NewEvaluator(m *machine.Machine, apps []App) (*Evaluator, error) {
	e := &Evaluator{}
	if err := e.Reset(m, apps); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-targets the evaluator at a new (machine, apps) pair,
// forgetting every remembered evaluation. The input validation matches
// Evaluate.
func (e *Evaluator) Reset(m *machine.Machine, apps []App) error {
	md := &nodeModel{}
	if err := md.fit(m, apps); err != nil {
		return err
	}
	*e = Evaluator{
		md:      md,
		last:    make([]nodeEval, md.nNodes),
		perLink: make([]float64, md.nNodes),
	}
	return nil
}

// MemoStats returns how many node evaluations since the last Reset
// were reused from the node's class (hits) and how many were computed
// (misses).
func (e *Evaluator) MemoStats() (hits, misses uint64) {
	return e.hits, e.misses
}

// EvaluateInto runs the model into a caller-owned Result, resizing and
// zeroing its slices as needed. The Result is fully overwritten and
// owned by the caller; repeated calls with the same Result allocate
// nothing in steady state.
func (e *Evaluator) EvaluateInto(res *Result, al Allocation) error {
	md := e.md
	if err := al.Validate(md.m, md.apps); err != nil {
		return err
	}
	prepareResult(res, md.nApps, md.nNodes)

	for h := 0; h < md.nNodes; h++ {
		ev := e.node(h, al)
		res.PerNode[h].Baseline = ev.baseline
		res.PerNode[h].RemoteServed = ev.remoteServed
		res.PerNode[h].LocalServed = ev.localServed
		for idx := range ev.local {
			c := &ev.local[idx]
			res.PerApp[c.app][h] = c.cell()
		}
		for idx := range ev.remote {
			c := &ev.remote[idx]
			res.PerApp[c.app][c.node] = c.cell()
		}
	}

	// Totals in the reference order: per app, nodes in index order, then
	// the app total folded into the machine total.
	for i := 0; i < md.nApps; i++ {
		for j := 0; j < md.nNodes; j++ {
			g := res.PerApp[i][j].GFLOPS
			res.AppGFLOPS[i] += g
			res.PerNode[j].GFLOPS += g
		}
		res.TotalGFLOPS += res.AppGFLOPS[i]
	}
	return nil
}

// node returns memory node h's evaluation under al: its own last one,
// or the one its class's first node holds (EvaluateInto visits that
// node before h), when al puts the same claims on h; a fresh one
// otherwise.
func (e *Evaluator) node(h int, al Allocation) *nodeEval {
	md := e.md
	if md.sameClaims(&e.last[h], h, al) {
		e.hits++
		return &e.last[h]
	}
	if rep := md.classRep[md.classOf[h]]; rep != h && md.sameClaims(&e.last[rep], h, al) {
		e.hits++
		return &e.last[rep]
	}
	e.misses++
	last := &e.last[h]
	last.reset()
	for _, i := range md.localApps[h] {
		if th := al.Threads[i][h]; th != 0 {
			last.local = append(last.local, localClaim{app: i, threads: th})
		}
	}
	for _, i := range md.homeApps[h] {
		for j, th := range al.Threads[i] {
			if j != h && th != 0 {
				last.remote = append(last.remote, remoteClaim{app: i, node: int32(j), threads: th})
			}
		}
	}
	md.compute(last, e.perLink, h)
	return last
}

// sameClaims reports whether gathering node h's claims from al would
// reproduce ev's: the same apps, nodes and thread counts — everything a
// node's outcome depends on within one class.
func (md *nodeModel) sameClaims(ev *nodeEval, h int, al Allocation) bool {
	if !ev.computed {
		return false
	}
	n := 0
	for _, i := range md.localApps[h] {
		if th := al.Threads[i][h]; th != 0 {
			if n == len(ev.local) || ev.local[n].app != i || ev.local[n].threads != th {
				return false
			}
			n++
		}
	}
	if n != len(ev.local) {
		return false
	}
	n = 0
	for _, i := range md.homeApps[h] {
		for j, th := range al.Threads[i] {
			if j != h && th != 0 {
				if n == len(ev.remote) || ev.remote[n].app != i || int(ev.remote[n].node) != j || ev.remote[n].threads != th {
					return false
				}
				n++
			}
		}
	}
	return n == len(ev.remote)
}

func prepareResult(res *Result, nApps, nNodes int) {
	res.PerApp = slices.Grow(res.PerApp[:0], nApps)[:nApps]
	for i, row := range res.PerApp {
		res.PerApp[i] = slices.Grow(row[:0], nNodes)[:nNodes]
		clear(res.PerApp[i])
	}
	res.PerNode = slices.Grow(res.PerNode[:0], nNodes)[:nNodes]
	clear(res.PerNode)
	res.AppGFLOPS = slices.Grow(res.AppGFLOPS[:0], nApps)[:nApps]
	clear(res.AppGFLOPS)
	res.TotalGFLOPS = 0
}
