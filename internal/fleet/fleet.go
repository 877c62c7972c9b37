// Package fleet is the placement layer above many coopd machines: it
// decides *which machine* each cooperating application lands on, using
// the same roofline model coopd uses to decide per-node thread counts
// within one machine.
//
// The paper's model (Section III.A) optimizes a single NUMA machine.
// At fleet scale the objective lifts naturally: the fleet's aggregate
// GFLOPS is the sum of each machine's solved optimum over its local
// demand set, so the placement score of (app, machine) is the marginal
// aggregate GFLOPS of adding the app to that machine's demand set under
// roofline.Search.Solve. Three cooperating pieces implement it:
//
//   - Inventory polls member machines' coopd endpoints (one conditional
//     GET /v1/state each: registered apps, solved aggregate, topology —
//     or a bodyless 304 while the fleet's copy is current, as its own
//     acknowledged registers keep it) and tracks health; a member that
//     fails several consecutive polls is declared dead. It also
//     holds the fleet's own soft state (stale re-homed IDs, the
//     round clock) and the executor — register, deregister,
//     relocate — the only code that changes what is registered where.
//   - Placer scores an incoming app against every healthy member and
//     registers it on the best bin, with anti-affinity for NUMA-bad
//     apps (two all-data-on-one-node demand sets on one machine fight
//     over home-node bandwidth — the Section III ranking reversal).
//   - Rebalancer turns inventory drift into bounded move plans:
//     machine loss re-places the dead member's apps, draining empties
//     a member, and an imbalance pass compares the fleet's current
//     aggregate against a greedy re-pack and moves apps when the gap
//     exceeds a threshold. Moves per round are capped so a rebalance
//     never storms the fleet.
//
// All planning — a placement, a gang, each rebalancer pass — runs in a
// session (session.go): built from one inventory snapshot, it owns the
// candidates, the filtered-decision primitive (pick), and the ledger
// every Move is recorded and budgeted through; it does no I/O. The
// executor applies what a session planned.
//
// On top of single-app placement sit gangs — all-or-nothing replica
// sets with pack/spread/strict-spread policies (gang.go) — and
// priority classes (system > latency > batch, priority.go; each app's
// class lives on its member registry record, like its AI): a higher
// class that cannot be admitted floor-feasibly preempts the cheapest
// lower-class apps (session.evict), and the placement objective itself
// is pluggable (Scorer.Objective, roofline.ObjectiveSpec).
//
// cmd/fleetd serves the subsystem over HTTP (/v1/fleet/place,
// /v1/fleet/gang, /v1/fleet/machines, /v1/fleet/plan, /v1/fleet/drain)
// and `coopctl fleet` is the CLI.
package fleet

import (
	"fmt"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/machine"
	"repro/internal/roofline"
)

// AppSpec describes an application the fleet should place: the
// roofline profile coopd needs, plus the registration knobs passed
// through to the chosen machine.
type AppSpec struct {
	// Name labels the application (coopd derives the app ID from it).
	Name string `json:"name"`
	// AI is the arithmetic intensity (FLOP/byte). Must be positive.
	AI float64 `json:"ai"`
	// Placement is "numa-perfect" (default) or "numa-bad".
	Placement string `json:"placement,omitempty"`
	// HomeNode holds all data of a numa-bad application.
	HomeNode int `json:"home_node,omitempty"`
	// MaxThreads caps the app's threads on its machine (0: uncapped).
	MaxThreads int `json:"max_threads,omitempty"`
	// TTLMillis overrides the machine's heartbeat deadline (0: its
	// default).
	TTLMillis int64 `json:"ttl_ms,omitempty"`
	// Priority is the app's scheduling class: "system", "latency", or
	// "batch" (the default). Higher classes preempt lower ones when
	// they cannot be admitted floor-feasibly, and weigh more under the
	// weighted-priority objective.
	Priority string `json:"priority,omitempty"`
}

// rooflineApp converts the spec for scoring. The placement string uses
// the ctrlplane wire names.
func (s AppSpec) rooflineApp() (roofline.App, error) {
	app := roofline.App{Name: s.Name, AI: s.AI}
	switch s.Placement {
	case "", ctrlplane.PlacementPerfect:
		app.Placement = roofline.NUMAPerfect
	case ctrlplane.PlacementBad:
		app.Placement = roofline.NUMABad
		app.HomeNode = machine.NodeID(s.HomeNode)
	default:
		return roofline.App{}, fmt.Errorf("fleet: unknown placement %q", s.Placement)
	}
	if s.AI <= 0 {
		return roofline.App{}, fmt.Errorf("fleet: app %q has non-positive AI %g", s.Name, s.AI)
	}
	// Batch maps to weight zero (scored as 1), so priority-free demand
	// sets stay byte-identical to the pre-priority encoding.
	app.Weight = classWeight(s.Priority)
	return app, nil
}

// Validate refuses, before anything is decided, a spec every member
// coopd would refuse: coopd's own check (ctrlplane.RegisterRequest.Spec)
// for all but the numa-bad home node, whose range depends on the
// machine and which decide filters per member.
func (s AppSpec) Validate() error {
	req := s.RegisterRequest()
	req.HomeNode = 0
	if _, err := req.Spec(1); err != nil {
		return fmt.Errorf("fleet: app %q: %w", s.Name, err)
	}
	return nil
}

// numaBad reports whether the spec pins all data to one home node.
func (s AppSpec) numaBad() bool { return s.Placement == ctrlplane.PlacementBad }

// RegisterRequest converts the spec to the coopd wire form.
func (s AppSpec) RegisterRequest() ctrlplane.RegisterRequest {
	return ctrlplane.RegisterRequest{
		Name: s.Name, AI: s.AI, Placement: s.Placement, HomeNode: s.HomeNode,
		MaxThreads: s.MaxThreads, TTLMillis: s.TTLMillis, Priority: s.Priority,
	}
}

// PlacedApp is one application as placed on a member machine: the spec
// plus the ID the machine's coopd assigned. Every field, the priority
// class included, is what the member's registry holds for that ID.
type PlacedApp struct {
	ID string `json:"id"`
	AppSpec
	// MovedRound is the round of the app's last drift, rebalance or
	// preempt move (0: never), which its cooldown counts from.
	MovedRound uint64 `json:"moved_round,omitempty"`
	// FittedAI and Drifted mirror the member coopd's adaptive loop: when
	// Drifted, FittedAI is the online-recalibrated demand currently
	// replacing the declared AI on that machine. Fleet scoring and
	// re-placement use the fitted value — decisions should track what the
	// app does, not what it said.
	FittedAI float64 `json:"fitted_ai,omitempty"`
	Drifted  bool    `json:"drifted,omitempty"`
}

// EffectiveSpec is the spec with the fitted AI substituted when the app
// has drifted — what re-registration on another machine should declare
// so the destination solves for measured behaviour.
func (a PlacedApp) EffectiveSpec() AppSpec {
	s := a.AppSpec
	if a.Drifted && a.FittedAI > 0 {
		s.AI = a.FittedAI
	}
	return s
}

// placedFromView converts a coopd registry record.
func placedFromView(v ctrlplane.AppView) PlacedApp {
	p := PlacedApp{
		ID: v.ID,
		AppSpec: AppSpec{
			Name: v.Name, AI: v.AI, HomeNode: v.HomeNode,
			MaxThreads: v.MaxThreads, TTLMillis: v.TTLMillis, Priority: v.Priority,
		},
		MovedRound: v.MovedRound, FittedAI: v.FittedAI, Drifted: v.Drifted,
	}
	if v.Placement != ctrlplane.PlacementPerfect {
		p.Placement = v.Placement
	}
	return p
}

// Member is a read-only snapshot of one fleet machine.
type Member struct {
	// ID names the machine in plans and views.
	ID string
	// Domain is the machine's failure domain (rack/zone); machines
	// sharing a domain are expected to fail together. Defaults to the
	// member's own ID.
	Domain string
	// Endpoints are the machine's coopd base URLs (several for an HA
	// pair); the inventory fails over between them.
	Endpoints []string
	// Topology is the machine's NUMA layout (nil until the first
	// successful poll).
	Topology *machine.Machine
	// Apps is the machine's registered demand set, sorted by ID.
	Apps []PlacedApp
	// TotalGFLOPS and Generation are those of the machine's last full
	// read or acknowledged register: the solved aggregate of the demand
	// set it held then, which any other fleet-side edit of Apps since does
	// not refresh.
	TotalGFLOPS float64
	Generation  uint64
	// Failures counts consecutive failed polls; Dead is set once
	// Failures reaches the inventory's FailAfter.
	Failures int
	Dead     bool
	// Draining marks a member that should be emptied by the rebalancer
	// and receive no new placements.
	Draining bool
	// LastSeen is the time of the last successful poll.
	LastSeen time.Time
	// Stale lists app IDs that were re-homed to other machines while
	// this member was dead; if it revives, those registrations are
	// duplicates the rebalancer must clean up.
	Stale []string
	// Quarantined marks a member the flap detector benched: it is not a
	// placement target and its apps are evacuated, even while it answers
	// polls. QuarantineUntil is the earliest re-admission time;
	// Quarantines counts consecutive quarantines (the backoff exponent).
	Quarantined     bool
	QuarantineUntil time.Time
	Quarantines     int

	// version and record are the member's demand and record versions
	// when the snapshot was taken (see versions); 0 for a Member the
	// inventory did not make, and version 0 for a member whose apps and
	// topology nothing has changed yet.
	version, record uint64
}

// Healthy reports whether the member can accept placements: alive,
// not quarantined, and with a known topology.
func (m *Member) Healthy() bool { return !m.Dead && !m.Quarantined && m.Topology != nil }

// Alive reports whether the member answers polls (its coopd is
// reachable), regardless of quarantine — the gate for control calls
// like stale-duplicate cleanup and drain-style deregistration.
func (m *Member) Alive() bool { return !m.Dead && m.Topology != nil }

// status is the member's one-word health, as /v1/fleet/machines and
// /healthz report it.
func (m *Member) status() string {
	switch {
	case m.Quarantined:
		return StatusQuarantined
	case m.Dead:
		return StatusDead
	case m.Topology == nil:
		return StatusUnknown
	case m.Failures > 0:
		return StatusSuspect
	}
	return StatusHealthy
}

// NUMABadApps counts the member's numa-bad registrations — the
// anti-affinity input.
func (m *Member) NUMABadApps() int {
	n := 0
	for _, a := range m.Apps {
		if a.Placement == ctrlplane.PlacementBad {
			n++
		}
	}
	return n
}
