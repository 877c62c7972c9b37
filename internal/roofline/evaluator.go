package roofline

import (
	"fmt"
	"slices"

	"repro/internal/machine"
)

// checkInputs is the one validation of a (machine, apps) pair: a valid
// machine, every AI positive, and every NUMA-bad app's home node on it.
func checkInputs(m *machine.Machine, apps []App) error {
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
	return nil
}

// Evaluator runs the reference model in Evaluate over one (machine,
// apps) pair into caller-owned Results, for loops that evaluate many
// allocations of one pair: NewEvaluator refuses a pair Evaluate would
// refuse, and a Result reused across calls keeps its backing arrays.
// Results are the reference's own, so they are bit-identical to
// Evaluate; the differential tests in evaluator_test.go and the
// FuzzEvaluatorEquivalence corpus check it with exact == comparisons.
//
// An Evaluator is NOT safe for concurrent use.
type Evaluator struct {
	m    *machine.Machine
	apps []App
}

// NewEvaluator builds an evaluator for the machine and apps. The input
// validation matches Evaluate.
func NewEvaluator(m *machine.Machine, apps []App) (*Evaluator, error) {
	if err := checkInputs(m, apps); err != nil {
		return nil, err
	}
	return &Evaluator{m: m, apps: slices.Clone(apps)}, nil
}

// EvaluateInto runs the model into a caller-owned Result, resizing and
// zeroing its slices as needed. The Result is fully overwritten and
// owned by the caller.
func (e *Evaluator) EvaluateInto(res *Result, al Allocation) error {
	return evaluateInto(res, e.m, e.apps, al, Options{})
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
