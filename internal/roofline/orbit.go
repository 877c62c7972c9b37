package roofline

import "math"

// Interchangeable reports whether the model and every Symmetric
// objective treat a and b alike: the same AI (bit for bit), placement,
// home node when NUMA-bad, and effective weight. Swapping the count rows
// of two such apps swaps their AppGFLOPS and moves a symmetric
// objective by float summation order at most. Names do not matter.
func Interchangeable(a, b App) bool {
	return math.Float64bits(a.AI) == math.Float64bits(b.AI) &&
		a.Placement == b.Placement &&
		(a.Placement != NUMABad || a.HomeNode == b.HomeNode) &&
		appWeight(a) == appWeight(b)
}

// prevInterchangeable is the nearest app before i that is
// Interchangeable with it, or -1. Interchangeability is an equivalence,
// so these links chain every run of interchangeable apps in index
// order, wherever its members sit.
func prevInterchangeable(apps []App, i int) int {
	for q := i - 1; q >= 0; q-- {
		if Interchangeable(apps[q], apps[i]) {
			return q
		}
	}
	return -1
}

// Canonical reports whether counts (one per app) is the row Search
// enumerates for its orbit under spec: non-decreasing along every run of
// Interchangeable apps — the orbit's first row in enumeration order.
// Under a spec that is not Symmetric every row is its own orbit.
func Canonical(spec ObjectiveSpec, apps []App, counts []int) bool {
	if !spec.Symmetric() {
		return true
	}
	for i := range apps {
		if q := prevInterchangeable(apps, i); q >= 0 && counts[q] > counts[i] {
			return false
		}
	}
	return true
}

// linkRuns fills the search's run table for apps: prevSame[i] is
// prevInterchangeable(apps, i) and runLeft[i] the number of apps of i's
// run at index i or later. Without symmetry every app is a run of one.
func linkRuns(symmetric bool, apps []App, prevSame, runLeft []int) {
	for i := range apps {
		prevSame[i], runLeft[i] = -1, 1
		if symmetric {
			prevSame[i] = prevInterchangeable(apps, i)
		}
	}
	for i := len(apps) - 1; i > 0; i-- {
		if q := prevSame[i]; q >= 0 {
			runLeft[q] = runLeft[i] + 1
		}
	}
}
