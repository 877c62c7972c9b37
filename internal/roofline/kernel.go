package roofline

import (
	"fmt"
	"slices"

	"repro/internal/freelist"
	"repro/internal/machine"
)

// leafKernel scores one leaf of the search: a uniform per-node counts
// vector (every app i runs counts[i] threads on every node). It is the
// model of Evaluate specialised to one (machine, apps) pair — the
// validated inputs, the tables the per-node arithmetic reads, the
// grouping of nodes into classes — and the scratch it evaluates into.
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
// share one class. Home nodes are singleton classes. Under uniform
// counts every node of a class sees the same claims, so eval computes
// one node per class and sums the per-app and machine totals in the
// reference order, which is all an Objective reads. No Allocation, no
// Result grid, no allocation per leaf.
//
// A solve fits the kernel its pooled worker owns; EvaluateCounts fits
// one of kernels.
type leafKernel struct {
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

	// classRep maps a class to its first node.
	classRep []int
	// src[i*nNodes+j] indexes rate for app i's threads on node j: the
	// (i, j) remote cell when i is NUMA-bad and homed elsewhere, the
	// (class of j, i) local cell when j serves them.
	src []int32

	// The claims of the node being computed: app, node and thread count,
	// zero-thread cells skipped, in the reference order (apps in index
	// order, then nodes); compute fills in everything else.
	local   []localClaim
	remote  []remoteClaim
	perLink []float64
	// rate holds GFLOPS cells: nApps×nNodes remote cells, then
	// nClasses×nApps local cells.
	rate []float64
	res  Result // AppGFLOPS and TotalGFLOPS only
}

// localClaim is one app's threads on the node being evaluated, served
// by its local split.
type localClaim struct {
	app       int32
	threads   int
	perThread float64 // demand per thread
	granted   float64 // bandwidth per thread
	gflops    float64
}

// remoteClaim is a homed NUMA-bad app's threads on another node, served
// by the evaluated node over the link from there.
type remoteClaim struct {
	app, node int32
	threads   int
	demand    float64 // over all the claim's threads
	granted   float64
	gflops    float64
}

// fit refits the tables and scratch in place to inputs the caller has
// validated as Evaluate does (checkInputs), reusing their backing
// arrays.
func (k *leafKernel) fit(m *machine.Machine, apps []App) {
	nApps, nNodes := len(apps), m.NumNodes()
	k.m, k.apps = m, append(k.apps[:0], apps...)
	k.nApps, k.nNodes = nApps, nNodes
	k.demand = slices.Grow(k.demand[:0], nApps*nNodes)[:nApps*nNodes]
	k.localApps = slices.Grow(k.localApps[:0], nNodes)[:nNodes]
	k.homeApps = slices.Grow(k.homeApps[:0], nNodes)[:nNodes]
	k.classRep = k.classRep[:0]
	k.src = slices.Grow(k.src[:0], nApps*nNodes)[:nApps*nNodes]
	for h := range k.homeApps {
		k.homeApps[h] = k.homeApps[h][:0]
	}
	for i, a := range apps {
		for j := 0; j < nNodes; j++ {
			k.demand[i*nNodes+j] = a.demandPerThread(m.Nodes[j].PeakGFLOPS)
		}
		if a.Placement == NUMABad {
			k.homeApps[a.HomeNode] = append(k.homeApps[a.HomeNode], int32(i))
		}
	}
	for h := 0; h < nNodes; h++ {
		// A home node's outcome embeds absolute remote coordinates and
		// link bandwidths; any other node's depends only on (cores, peak,
		// bandwidth) and the perfect apps' counts on it.
		c := len(k.classRep)
		if len(k.homeApps[h]) == 0 {
			for c2, h2 := range k.classRep {
				if len(k.homeApps[h2]) == 0 && m.Nodes[h2] == m.Nodes[h] {
					c = c2
					break
				}
			}
		}
		if c == len(k.classRep) {
			k.classRep = append(k.classRep, h)
		}
		k.localApps[h] = slices.Grow(k.localApps[h][:0], nApps)
		for i, a := range apps {
			if a.Placement != NUMABad || int(a.HomeNode) == h {
				k.localApps[h] = append(k.localApps[h], int32(i))
				k.src[i*nNodes+h] = int32(nApps*nNodes + c*nApps + i)
			} else {
				k.src[i*nNodes+h] = int32(i*nNodes + h)
			}
		}
	}
	k.perLink = slices.Grow(k.perLink[:0], nNodes)[:nNodes]
	clear(k.perLink)
	n := (len(k.classRep) + nNodes) * nApps
	k.rate = slices.Grow(k.rate[:0], n)[:n]
	k.res.AppGFLOPS = slices.Grow(k.res.AppGFLOPS[:0], nApps)[:nApps]
	// A node's claims at most: every app locally, and every homed app's
	// threads on every other node.
	k.local = slices.Grow(k.local[:0], nApps)
	k.remote = slices.Grow(k.remote[:0], nApps*(nNodes-1))
}

// unfit drops the fitted machine and apps, so an idle kernel holds
// scratch only.
func (k *leafKernel) unfit() {
	clear(k.apps)
	k.m, k.apps = nil, k.apps[:0]
}

// kernels holds EvaluateCounts' idle kernels for the whole process, so
// a process keeps at most freelist's idle cap of them however many
// solvers it runs, not one per solver.
var kernels freelist.List[leafKernel]

// EvaluateCounts scores the uniform per-node allocation PerNodeCounts(m,
// counts) with the leaf kernel: each app's GFLOPS and the machine
// total, bit-identical to the AppGFLOPS and TotalGFLOPS of Evaluate(m,
// apps, PerNodeCounts(m, counts)). It refuses invalid (machine, apps)
// inputs (checkInputs), a count vector whose length is not the app
// count, a negative count and counts whose sum exceeds the smallest
// node's cores. It is no search: no Search's Stats count it.
func EvaluateCounts(m *machine.Machine, apps []App, counts []int) (rates []float64, total float64, err error) {
	if err := checkInputs(m, apps); err != nil {
		return nil, 0, err
	}
	if len(counts) != len(apps) {
		return nil, 0, fmt.Errorf("roofline: %d counts for %d apps", len(counts), len(apps))
	}
	least, sum := minCores(m), 0
	for _, c := range counts {
		if c < 0 || c > least-sum { // not sum+c > least, which may overflow
			return nil, 0, fmt.Errorf("roofline: per-node counts %v are negative or exceed the smallest node's %d cores", counts, least)
		}
		sum += c
	}
	k := kernels.Get()
	k.fit(m, apps)
	res := k.eval(counts)
	rates, total = slices.Clone(res.AppGFLOPS), res.TotalGFLOPS
	k.unfit()
	kernels.Put(k)
	return rates, total, nil
}

// eval returns the totals of the allocation PerNodeCounts(m, counts),
// bit-identical to the reference Evaluate's AppGFLOPS and TotalGFLOPS;
// PerApp and PerNode stay nil. The caller guarantees what
// Allocation.Validate would check: len(counts) == nApps, every count
// >= 0, and their sum within the smallest node's cores.
func (k *leafKernel) eval(counts []int) *Result {
	for c, h := range k.classRep {
		// The claim arrays were sized by fit; only the fields compute reads
		// are written, it overwrites the rest.
		local, remote := k.local[:cap(k.local)], k.remote[:cap(k.remote)]
		nl, nr := 0, 0
		for _, i := range k.localApps[h] {
			if th := counts[i]; th != 0 {
				local[nl].app, local[nl].threads = i, th
				nl++
			}
		}
		for _, i := range k.homeApps[h] {
			if th := counts[i]; th != 0 {
				for j := 0; j < k.nNodes; j++ {
					if j != h {
						remote[nr].app, remote[nr].node, remote[nr].threads = i, int32(j), th
						nr++
					}
				}
			}
		}
		k.local, k.remote = local[:nl], remote[:nr]
		k.compute(h)
		for idx := range k.remote {
			cl := &k.remote[idx]
			k.rate[int(cl.app)*k.nNodes+int(cl.node)] = cl.gflops
		}
		rate := k.rate[(k.nNodes+c)*k.nApps:]
		for idx := range k.local {
			rate[k.local[idx].app] = k.local[idx].gflops
		}
	}
	// Totals in the reference order: per app, nodes in index order, then
	// the app total folded into the machine total. An app with threads
	// has a freshly written cell on every node; one without has none, and
	// the reference sums its zero cells to zero.
	total := 0.0
	for i := range k.res.AppGFLOPS {
		g := 0.0
		if counts[i] != 0 {
			for _, ix := range k.src[i*k.nNodes : (i+1)*k.nNodes] {
				g += k.rate[ix]
			}
		}
		k.res.AppGFLOPS[i] = g
		total += g
	}
	k.res.TotalGFLOPS = total
	return &k.res
}

// compute runs Evaluate's pipeline for memory node h over the claims
// gathered in k.local and k.remote — remote-first service, local
// baseline + one-round proportional remainder, remote fold — with the
// reference's operation order, so every rate it produces is
// bit-identical to the reference's. This is the only copy of the
// per-node arithmetic outside the reference itself. perLink is nNodes
// of zeroed scratch, left zeroed.
func (k *leafKernel) compute(h int) {
	bw := k.m.Nodes[h].MemBandwidth
	k.serveLocal(h, bw-k.serveRemote(h, bw))
	for idx := range k.remote {
		c := &k.remote[idx]
		bwPerThread := c.granted / float64(c.threads)
		gPerThread := min(k.m.Nodes[c.node].PeakGFLOPS, bwPerThread*k.apps[c.app].AI)
		c.gflops = gPerThread * float64(c.threads)
	}
}

func (k *leafKernel) serveRemote(h int, avail float64) float64 {
	claims, perLink := k.remote, k.perLink
	for idx := range claims {
		c := &claims[idx]
		c.demand = float64(c.threads) * k.demand[int(c.app)*k.nNodes+int(c.node)]
		perLink[c.node] += c.demand
	}
	served := 0.0
	for idx := range claims {
		c := &claims[idx]
		link := k.m.Link(machine.NodeID(c.node), machine.NodeID(h))
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

func (k *leafKernel) serveLocal(h int, avail float64) {
	baseline := avail / float64(k.m.Nodes[h].Cores)
	claims := k.local
	allocated := 0.0
	for idx := range claims {
		c := &claims[idx]
		c.perThread = k.demand[int(c.app)*k.nNodes+h]
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
	peak := k.m.Nodes[h].PeakGFLOPS
	for idx := range claims {
		c := &claims[idx]
		gPerThread := min(peak, c.granted*k.apps[c.app].AI)
		c.gflops = gPerThread * float64(c.threads)
	}
}
