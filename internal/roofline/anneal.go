package roofline

import (
	"math"
	"math/rand"

	"repro/internal/machine"
)

const (
	// annealIters is the number of proposal steps.
	annealIters = 20000
	// annealStartTemp and annealEndTemp bound the geometric cooling
	// schedule, in objective units.
	annealStartTemp, annealEndTemp = 10, 0.01
)

// Anneal searches the full space of (non-uniform) allocations with
// simulated annealing: random single-thread moves — shifting one
// thread of one application between nodes, reassigning a core to
// another application, adding a thread on a free core, or removing one
// — accepted when they improve the objective or probabilistically when
// they do not. Unlike BestPerNodeCounts it can express asymmetric
// optima (e.g. giving a NUMA-bad application threads only on its home
// node), and unlike Optimize's hill climbing it escapes local optima.
// seed drives the deterministic random walk.
func Anneal(m *machine.Machine, apps []App, obj Objective, seed int64) (Allocation, *Result, error) {
	if obj == nil {
		obj = TotalGFLOPS
	}
	rng := rand.New(rand.NewSource(seed))
	nApps, nNodes := len(apps), m.NumNodes()
	if nApps == 0 {
		return Allocation{}, nil, ErrNoAllocation
	}

	cur := FairShare(m, nApps)
	res, err := Evaluate(m, apps, cur)
	if err != nil {
		return Allocation{}, nil, err
	}
	curScore := obj(res)
	best := cur.Clone()
	bestRes := res
	bestScore := curScore

	cooling := math.Pow(annealEndTemp/annealStartTemp, 1/float64(annealIters))
	temp := float64(annealStartTemp)

	for it := 0; it < annealIters; it++ {
		temp *= cooling
		// Propose a random single-thread move.
		i := rng.Intn(nApps)
		j := rng.Intn(nNodes)
		undo := func() {}
		switch rng.Intn(4) {
		case 0: // move a thread of app i from node j to node k
			if cur.Threads[i][j] == 0 {
				continue
			}
			k := rng.Intn(nNodes)
			if k == j || cur.NodeThreads(machine.NodeID(k)) >= m.Nodes[k].Cores {
				continue
			}
			cur.Threads[i][j]--
			cur.Threads[i][k]++
			undo = func() { cur.Threads[i][j]++; cur.Threads[i][k]-- }
		case 1: // reassign a core on node j from app i to app i2
			if cur.Threads[i][j] == 0 || nApps < 2 {
				continue
			}
			i2 := rng.Intn(nApps)
			if i2 == i {
				continue
			}
			cur.Threads[i][j]--
			cur.Threads[i2][j]++
			undo = func() { cur.Threads[i][j]++; cur.Threads[i2][j]-- }
		case 2: // grow onto a free core
			if cur.NodeThreads(machine.NodeID(j)) >= m.Nodes[j].Cores {
				continue
			}
			cur.Threads[i][j]++
			undo = func() { cur.Threads[i][j]-- }
		default: // shrink
			if cur.Threads[i][j] == 0 {
				continue
			}
			cur.Threads[i][j]--
			undo = func() { cur.Threads[i][j]++ }
		}
		r2, err := Evaluate(m, apps, cur)
		if err != nil {
			undo()
			continue
		}
		s2 := obj(r2)
		if s2 >= curScore || rng.Float64() < math.Exp((s2-curScore)/temp) {
			curScore, res = s2, r2
			if s2 > bestScore {
				bestScore = s2
				best = cur.Clone()
				bestRes = r2
			}
		} else {
			undo()
		}
	}
	return best, bestRes, nil
}
