package fleet

import "repro/internal/ctrlplane"

// Priority classes, ordered system > latency > batch: the ctrlplane
// vocabulary, which a member coopd checks at registration and keeps on
// the app's record. The class rides on AppSpec/PlacedApp — a poll reads
// it back like any other registered field — and drives two things: the
// preemption pass (a higher-class app that cannot be admitted
// floor-feasibly evicts the cheapest lower-class victims) and the
// per-app weight under the weighted-priority objective.
const (
	// PrioritySystem is fleet-critical work that outranks everything.
	PrioritySystem = ctrlplane.PrioritySystem
	// PriorityLatency is latency-sensitive serving work: it outranks
	// batch and must not be starved while batch holds floor capacity
	// (the no-priority-inversion property fleetsim checks).
	PriorityLatency = ctrlplane.PriorityLatency
	// PriorityBatch is throughput work, the default: preemptible by
	// the classes above, never preempting anything itself.
	PriorityBatch = ctrlplane.PriorityBatch
)

// ClassRank orders priority classes for preemption decisions; the empty
// class means batch. Higher outranks lower.
func ClassRank(p string) int {
	switch p {
	case PrioritySystem:
		return 2
	case PriorityLatency:
		return 1
	default:
		return 0
	}
}

// classWeight maps a priority class to the roofline App.Weight used by
// the weighted-priority objective. Batch (and the empty default) maps
// to zero — the "unset" weight, scored as 1 — so priority-free fleets
// produce demand sets, cache keys, and decisions bit-identical to the
// pre-priority code under the default objective.
func classWeight(p string) float64 { return [...]float64{0, 4, 16}[ClassRank(p)] }
