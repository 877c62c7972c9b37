package roofline

import (
	"math"

	"repro/internal/machine"
)

// CurvePoint is one sample of a roofline curve.
type CurvePoint struct {
	// AI is the arithmetic intensity sampled.
	AI float64
	// GFLOPS is the achieved rate at that intensity.
	GFLOPS float64
}

// Curve samples the classic roofline of a machine's node: one thread
// per core of a single application, arithmetic intensity swept
// log-uniformly over [minAI, maxAI] with the given number of points.
// The result shows the bandwidth-limited ramp and the compute plateau,
// with the ridge at peak/bandwidth-per-core.
func Curve(m *machine.Machine, minAI, maxAI float64, points int) []CurvePoint {
	if points < 2 {
		points = 2
	}
	if minAI <= 0 {
		minAI = 1e-3
	}
	if maxAI <= minAI {
		maxAI = minAI * 1000
	}
	out := make([]CurvePoint, points)
	for i := 0; i < points; i++ {
		ai := minAI * math.Pow(maxAI/minAI, float64(i)/float64(points-1))
		app := []App{{Name: "sweep", AI: ai}}
		al := NewAllocation(1, m.NumNodes())
		for j := 0; j < m.NumNodes(); j++ {
			al.Threads[0][j] = m.Nodes[j].Cores
		}
		r := MustEvaluate(m, app, al)
		out[i] = CurvePoint{AI: ai, GFLOPS: r.TotalGFLOPS}
	}
	return out
}

// Ridge returns the machine's ridge point: the arithmetic intensity at
// which a fully-occupied node transitions from bandwidth-bound to
// compute-bound (per-core peak divided by the per-core bandwidth
// share).
func Ridge(m *machine.Machine) float64 {
	n := m.Nodes[0]
	return n.PeakGFLOPS / (n.MemBandwidth / float64(n.Cores))
}
