package roofline

import (
	"fmt"
	"slices"

	"repro/internal/machine"
)

// BoundFunc is an admissible upper bound for the branch-and-bound
// search: given the partial assignment counts[0..pos-1] with rem
// per-node cores left for apps pos..n-1, it must return a value no
// smaller than the objective of any completion. Soundness is the
// caller's proof obligation — an inadmissible bound silently prunes
// optima.
type BoundFunc func(counts []int, pos, rem int) float64

// ObjectiveSpec couples an objective with the search machinery it
// needs. Objective returns the scoring function for a concrete demand
// set (specs like weighted-priority read per-app fields such as
// App.Weight). Bound returns an admissible branch-and-bound upper bound
// for the (machine, demand) pair, or nil to declare the spec
// bound-free: the search then falls back to the unpruned enumeration,
// which is exact for any objective.
//
// Search scores candidates on their totals alone: the Result it hands
// the objective carries AppGFLOPS and TotalGFLOPS (bit-identical to
// Evaluate's) and nil PerApp and PerNode. An objective used with Search
// must be a function of those two fields. A solve calls a spec's
// Objective and Bound, and the functions they return, from the solving
// goroutine only, so a returned function needs no synchronisation;
// concurrent solves that share a spec call its methods concurrently.
//
// For the built-in specs ObjTotalGFLOPS and ObjWeightedPriority, Search
// does not call Objective or Bound: it fits the same objective and bound
// (builtinFit) into its pooled worker in place. A spec wrapping a
// built-in one is not built-in itself, so its solves do call them.
//
// Symmetric declares that swapping the count rows of two Interchangeable
// apps cannot change the objective beyond float summation order: the
// objective treats the AppGFLOPS entries of such apps alike. Search then
// enumerates one leaf per orbit of interchangeable apps (see
// BestPerNodeCountsFloorSpec). An objective that tells such apps apart —
// WeightedAppGFLOPS{3,1,1,1} over three identical streams — must return
// false, and a spec wrapping another must forward the wrapped answer.
type ObjectiveSpec interface {
	Name() string
	Objective(apps []App) Objective
	Bound(m *machine.Machine, apps []App) BoundFunc
	Symmetric() bool
}

// Built-in objective specs.
var (
	// ObjTotalGFLOPS maximizes machine-wide throughput. Its bound is
	// the greedy fractional relaxation of the bandwidth pool (see
	// greedyBound); solves through it are bit-identical to the
	// exhaustive enumeration (search_test.go pins this differentially).
	ObjTotalGFLOPS ObjectiveSpec = totalGFLOPSSpec{}
	// ObjWeightedPriority maximizes Σ wᵢ·gᵢ with wᵢ = App.Weight
	// (0 or negative means 1). The bound generalizes the greedy
	// relaxation: apps are granted bandwidth in descending wᵢ·AIᵢ
	// order, each capped at wᵢ·countsᵢ·Σpeak.
	ObjWeightedPriority ObjectiveSpec = weightedPrioritySpec{}
	// ObjMaxMinGFLOPS maximizes the slowest app's rate (a fairness
	// floor). It is bound-free: the max-min value of a subtree is not
	// bounded by any per-app bandwidth relaxation we can prove
	// admissible, so the search enumerates unpruned.
	ObjMaxMinGFLOPS ObjectiveSpec = maxMinSpec{}
)

// ObjectiveSpecByName resolves a wire/CLI objective name.
func ObjectiveSpecByName(name string) (ObjectiveSpec, error) {
	switch name {
	case "", ObjTotalGFLOPS.Name():
		return ObjTotalGFLOPS, nil
	case ObjWeightedPriority.Name():
		return ObjWeightedPriority, nil
	case ObjMaxMinGFLOPS.Name():
		return ObjMaxMinGFLOPS, nil
	}
	return nil, fmt.Errorf("roofline: unknown objective %q (have %s, %s, %s)",
		name, ObjTotalGFLOPS.Name(), ObjWeightedPriority.Name(), ObjMaxMinGFLOPS.Name())
}

type totalGFLOPSSpec struct{}

func (totalGFLOPSSpec) Name() string                     { return "total-gflops" }
func (s totalGFLOPSSpec) Objective(apps []App) Objective { return builtinObjective(s, apps) }
func (s totalGFLOPSSpec) Bound(m *machine.Machine, apps []App) BoundFunc {
	return builtinBound(s, m, apps)
}
func (totalGFLOPSSpec) Symmetric() bool { return true }
func (totalGFLOPSSpec) weighted() bool  { return false }

type weightedPrioritySpec struct{}

func (weightedPrioritySpec) Name() string                     { return "weighted-priority" }
func (s weightedPrioritySpec) Objective(apps []App) Objective { return builtinObjective(s, apps) }
func (s weightedPrioritySpec) Bound(m *machine.Machine, apps []App) BoundFunc {
	return builtinBound(s, m, apps)
}

// Symmetric: the weights are App.Weight, which Interchangeable apps share.
func (weightedPrioritySpec) Symmetric() bool { return true }
func (weightedPrioritySpec) weighted() bool  { return true }

// greedySpec is a built-in spec: its objective is the total, or the
// weighted sum under appendWeights when weighted, and its bound the
// greedy relaxation under the same weights, both defined once, by
// builtinFit. Its Objective and Bound fit a new builtinFit; a Search
// does not call them but refits the builtinFit of its pooled worker in
// place (bnbWorker.fit), which allocates nothing.
type greedySpec interface {
	ObjectiveSpec
	weighted() bool
}

// builtinObjective and builtinBound are a greedySpec's Objective and
// Bound: those of a new builtinFit. An unweighted objective is
// TotalGFLOPS whatever the apps (builtinFit.objective), so none is
// allocated for it.
func builtinObjective(g greedySpec, apps []App) Objective {
	if !g.weighted() {
		return TotalGFLOPS
	}
	return new(builtinFit).fitObjective(g, apps).objective()
}

func builtinBound(g greedySpec, m *machine.Machine, apps []App) BoundFunc {
	return new(builtinFit).fitObjective(g, apps).fitBound(m, apps).bound()
}

// builtinFit is a greedySpec's objective and bound fitted to one demand
// set, reusing its backing arrays across fits. The function values it
// hands out are made once per builtinFit and read its current fit.
type builtinFit struct {
	weighted bool
	weights  []float64
	greedy   greedyBound

	weightedFn Objective
	boundFn    BoundFunc
}

// fitObjective refits f's objective to spec g over apps.
func (f *builtinFit) fitObjective(g greedySpec, apps []App) *builtinFit {
	f.weighted = g.weighted()
	if f.weighted {
		f.weights = appendWeights(f.weights[:0], apps)
	}
	return f
}

// fitBound refits f's bound to (m, apps) under the weights fitObjective
// fitted: the greedy relaxation, weighted by them when f is.
func (f *builtinFit) fitBound(m *machine.Machine, apps []App) *builtinFit {
	var weights []float64
	if f.weighted {
		weights = f.weights
	}
	f.greedy.fit(m, apps, weights)
	return f
}

// objective is the fitted objective: TotalGFLOPS, or the weighted sum
// of the app rates under f's weights.
func (f *builtinFit) objective() Objective {
	if !f.weighted {
		return TotalGFLOPS
	}
	if f.weightedFn == nil {
		f.weightedFn = func(r *Result) float64 { return weightedSum(f.weights, r) }
	}
	return f.weightedFn
}

// bound is the fitted greedy bound.
func (f *builtinFit) bound() BoundFunc {
	if f.boundFn == nil {
		f.boundFn = f.greedy.bound
	}
	return f.boundFn
}

// appendWeights appends the effective weight of every app to dst.
func appendWeights(dst []float64, apps []App) []float64 {
	for i := range apps {
		dst = append(dst, appWeight(apps[i]))
	}
	return dst
}

// appWeight maps App.Weight to an effective weight: unset (zero) and
// nonsensical negative weights score as 1, so demand sets that never
// set Weight behave exactly like plain per-app GFLOPS sums.
func appWeight(a App) float64 {
	if a.Weight <= 0 {
		return 1
	}
	return a.Weight
}

type maxMinSpec struct{}

func (maxMinSpec) Name() string                            { return "max-min" }
func (maxMinSpec) Objective([]App) Objective               { return MinAppGFLOPS }
func (maxMinSpec) Bound(*machine.Machine, []App) BoundFunc { return nil }
func (maxMinSpec) Symmetric() bool                         { return true }

// BoundFree adapts a bare Objective into a bound-free spec that claims
// no symmetry either: Search enumerates every leaf under it, which is
// exact for any objective.
func BoundFree(obj Objective) ObjectiveSpec { return boundFreeSpec{obj} }

type boundFreeSpec struct{ obj Objective }

func (boundFreeSpec) Name() string                            { return "custom" }
func (s boundFreeSpec) Objective([]App) Objective             { return s.obj }
func (boundFreeSpec) Bound(*machine.Machine, []App) BoundFunc { return nil }
func (boundFreeSpec) Symmetric() bool                         { return false }

// greedyBound is the admissible upper bound shared by the total-GFLOPS
// and weighted-priority objectives (see DESIGN.md): every thread
// computes at most min(peak, granted·AI), nodes hand out at most their
// bandwidth in total (remote service included), so the weighted sum of
// app GFLOPS is at most the greedy fractional assignment of the
// machine's bandwidth pool to apps in descending value-density order
// (wᵢ·AIᵢ GFLOPS-value per GB/s), each app capped at wᵢ·countsᵢ·Σpeak.
// Unassigned apps pos..n-1 collapse into one pseudo-app holding the
// whole remaining core budget rem at the suffix-maximum density, capped
// at (suffix-max weight)·rem·Σpeak: any real completion spends suffix
// bandwidth at no better density and attains no more value, so the
// pseudo-app dominates it. The total-GFLOPS spec passes nil weights,
// which computes the same floats as weights all 1.
type greedyBound struct {
	byDensDesc []int     // app indices sorted by density descending
	dens       []float64 // value density per app: w·AI (AI when unweighted)
	capPer     []float64 // value cap per granted core: w·Σpeak
	sufDens    []float64 // suffix maxima of dens in enumeration order
	sufCapPer  []float64 // suffix maxima of capPer in enumeration order
	totalBW    float64
}

// fit refits b to (m, apps, weights) in place, reusing its backing
// arrays.
func (b *greedyBound) fit(m *machine.Machine, apps []App, weights []float64) {
	nApps := len(apps)
	b.dens = slices.Grow(b.dens[:0], nApps)[:nApps]
	b.capPer = slices.Grow(b.capPer[:0], nApps)[:nApps]
	b.byDensDesc = slices.Grow(b.byDensDesc[:0], nApps)[:nApps]
	b.sufDens = slices.Grow(b.sufDens[:0], nApps+1)[:nApps+1]
	b.sufCapPer = slices.Grow(b.sufCapPer[:0], nApps+1)[:nApps+1]
	b.sufDens[nApps], b.sufCapPer[nApps], b.totalBW = 0, 0, 0
	sumPeak := 0.0
	for _, n := range m.Nodes {
		sumPeak += n.PeakGFLOPS
		b.totalBW += n.MemBandwidth
	}
	for i, a := range apps {
		if weights == nil {
			b.dens[i] = a.AI
			b.capPer[i] = sumPeak
		} else {
			b.dens[i] = weights[i] * a.AI
			b.capPer[i] = weights[i] * sumPeak
		}
	}
	for i := range b.byDensDesc {
		b.byDensDesc[i] = i
	}
	// Insertion sort by density descending (index tie-break for
	// determinism).
	for a := 1; a < nApps; a++ {
		x := b.byDensDesc[a]
		j := a
		for j > 0 && b.dens[b.byDensDesc[j-1]] < b.dens[x] {
			b.byDensDesc[j] = b.byDensDesc[j-1]
			j--
		}
		b.byDensDesc[j] = x
	}
	for i := nApps - 1; i >= 0; i-- {
		b.sufDens[i] = max(b.sufDens[i+1], b.dens[i])
		b.sufCapPer[i] = max(b.sufCapPer[i+1], b.capPer[i])
	}
}

func (b *greedyBound) bound(counts []int, pos, rem int) float64 {
	pool := b.totalBW
	ub := 0.0
	pseudoDens := b.sufDens[pos]
	pseudoCap := float64(rem) * b.sufCapPer[pos]
	pseudoDone := pseudoCap <= 0 || pseudoDens <= 0
	grant := func(cap, dens float64) float64 {
		need := cap / dens
		if need <= pool {
			pool -= need
			return cap
		}
		g := pool * dens
		pool = 0
		return g
	}
	for _, i := range b.byDensDesc {
		if pool <= 0 {
			break
		}
		if !pseudoDone && pseudoDens >= b.dens[i] {
			ub += grant(pseudoCap, pseudoDens)
			pseudoDone = true
			if pool <= 0 {
				break
			}
		}
		if i >= pos {
			continue // part of the pseudo-app
		}
		if cap := float64(counts[i]) * b.capPer[i]; cap > 0 {
			ub += grant(cap, b.dens[i])
		}
	}
	if !pseudoDone && pool > 0 {
		ub += grant(pseudoCap, pseudoDens)
	}
	return ub
}
