package fleet

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ctrlplane/client"
)

// The fleet's defaults: what a zero knob selects (fleetd's flag help
// prints them).
const (
	DefaultPollInterval      = 2 * time.Second
	DefaultRebalanceInterval = 10 * time.Second
	DefaultMaxMovesPerRound  = 4
	DefaultThreshold         = 0.9
	DefaultStormFraction     = 0.25
	DefaultAdmissionCap      = 2
	DefaultCooldownRounds    = 2

	DefaultFailAfter         = 3
	DefaultFlapCount         = 4
	DefaultFlapWindow        = time.Minute
	DefaultQuarantineBackoff = 30 * time.Second
)

// quarantineMaxBackoff caps the doubling quarantine backoff.
const quarantineMaxBackoff = 10 * time.Minute

// DefaultPollTimeout bounds one member's poll (all endpoint attempts
// combined) so a single hung coopd cannot stall the whole fleet
// refresh; polling is sequential, so without it one member dripping
// bytes delays every member after it in ID order.
const DefaultPollTimeout = 5 * time.Second

// ServerConfig is the fleet's configuration: every knob of the server,
// its Placer and its Rebalancer; the inventory's are in InventoryConfig.
// Both are resolved once, knob by knob, by one rule: zero selects the
// knob's Default* constant, a value in its range is used as given, and
// anything else makes NewServer fail with an error naming the knob.
type ServerConfig struct {
	// Inventory is the member tracker. Required; add members before or
	// after construction.
	Inventory *Inventory
	// PollInterval is the background inventory refresh period between
	// rebalance rounds; RebalanceInterval is the control-loop period.
	PollInterval      time.Duration
	RebalanceInterval time.Duration
	// MaxMovesPerRound bounds churn per round. The bound is global:
	// urgent evacuation, preemption, drift re-placement, and the
	// imbalance re-pack all draw from the same per-round ledger.
	MaxMovesPerRound int
	// Threshold, in (0, 1], triggers the imbalance pass when the current
	// aggregate falls below Threshold x the greedy re-pack.
	Threshold float64
	// DomainSpread enables the failure-domain anti-affinity tie-break in
	// placement decisions (see Scorer.DomainSpread).
	DomainSpread bool
	// Objective names the placement objective ("" or "total-gflops" for
	// the default aggregate, "weighted-priority", "max-min"; see
	// roofline.ObjectiveSpecByName).
	Objective string
	// StormFraction, in (0, 1], arms the storm brake: when the fraction
	// of members that are down (dead or quarantined) while still carrying
	// un-evacuated apps exceeds it, the round runs in degraded mode —
	// urgent moves are triaged by the aggregate GFLOPS their re-placement
	// recovers, rate-limited to StormBudget, and no survivor admits more
	// than AdmissionCap storm moves per round. Degraded mode is detected
	// statelessly from the snapshot (Plan stays a side-effect-free dry
	// run) and therefore persists until the evacuation backlog drains.
	StormFraction float64
	// StormBudget caps urgent moves per degraded round. It can only
	// tighten MaxMovesPerRound, which is also what zero selects.
	StormBudget int
	// AdmissionCap bounds how many storm evacuations a single surviving
	// member admits per round, so a mass failure cannot crush the
	// remaining machines under simultaneous re-registrations.
	AdmissionCap int
	// CooldownRounds is the anti-thrash guard: an app moved by the
	// preempt, drift or imbalance pass may not be moved by those passes
	// again for this many following rounds (the clock lives in the
	// Inventory). Urgent evacuation (machine lost, drain) is never
	// blocked. -1 turns the guard off.
	CooldownRounds int
	// DisablePreemption turns priority preemption off fleet-wide: the
	// rebalancer's inversion-repair pass and gang-admission eviction.
	// DisableStormBrake turns mass-failure triage off: urgent evacuation
	// behaves as if the fleet were losing one machine. Both, like
	// CooldownRounds -1, exist for A/B resilience experiments such as the
	// fleetsim regressions, never for production use.
	DisablePreemption bool
	DisableStormBrake bool
	// Logf, when set, receives placement and rebalance logs.
	Logf func(format string, args ...any)
}

// InventoryConfig tunes an Inventory: polling and the flap detector.
// Its knobs follow ServerConfig's rule; NewInventory has no error
// return, so an out-of-range one fails the NewServer it is handed to.
type InventoryConfig struct {
	// NewClient builds the coopd client for one endpoint. Tests inject
	// fault-injecting transports here. Default: client.New with 2
	// attempts and a 2s request timeout (the inventory poll loop is the
	// retry mechanism; per-request persistence just delays detection).
	NewClient func(endpoint string) *client.Client
	// FailAfter is how many consecutive failed polls declare a member
	// dead.
	FailAfter int
	// Clock stamps LastSeen (default time.Now); tests pin it.
	Clock func() time.Time
	// FlapCount is the flap detector's trigger: this many alive<->dead
	// transitions within FlapWindow quarantine the member instead of
	// letting it oscillate against the rebalancer. -1 turns quarantining
	// off (A/B regression experiments only).
	FlapCount  int
	FlapWindow time.Duration
	// QuarantineBackoff is the first quarantine's re-admission backoff;
	// each consecutive quarantine doubles it, up to 10 minutes.
	QuarantineBackoff time.Duration
	// Logf, when set, receives state-transition logs.
	Logf func(format string, args ...any)
}

// resolve is the server's half of the configuration table.
func (c *ServerConfig) resolve() error {
	err := errors.Join(
		knob("PollInterval", &c.PollInterval, DefaultPollInterval, positive),
		knob("RebalanceInterval", &c.RebalanceInterval, DefaultRebalanceInterval, positive),
		knob("MaxMovesPerRound", &c.MaxMovesPerRound, DefaultMaxMovesPerRound, positive),
		knob("Threshold", &c.Threshold, DefaultThreshold, fraction),
		knob("StormFraction", &c.StormFraction, DefaultStormFraction, fraction),
		knob("AdmissionCap", &c.AdmissionCap, DefaultAdmissionCap, positive),
		knob("CooldownRounds", &c.CooldownRounds, DefaultCooldownRounds, positiveOrOff),
	)
	// The one row whose default is another knob, so it runs after it.
	return errors.Join(err, knob("StormBudget", &c.StormBudget, c.MaxMovesPerRound, positive))
}

// resolve is the inventory's half of the configuration table.
func (c *InventoryConfig) resolve() error {
	return errors.Join(
		knob("FailAfter", &c.FailAfter, DefaultFailAfter, positive),
		knob("FlapCount", &c.FlapCount, DefaultFlapCount, positiveOrOff),
		knob("FlapWindow", &c.FlapWindow, DefaultFlapWindow, positive),
		knob("QuarantineBackoff", &c.QuarantineBackoff, DefaultQuarantineBackoff, positive),
	)
}

// knobRange is the set of non-zero values a knob takes as given.
type knobRange int

const (
	positive      knobRange = iota // > 0
	fraction                       // (0, 1]
	positiveOrOff                  // > 0, or -1: the mechanism is off
)

var rangeText = [...]string{positive: "> 0", fraction: "in (0, 1]", positiveOrOff: "> 0 or -1 for off"}

// knob applies the configuration rule to one value: zero selects def, a
// value in rng is kept, anything else is an error naming the knob.
func knob[T int | float64 | time.Duration](name string, v *T, def T, rng knobRange) error {
	switch x := *v; {
	case x == 0:
		*v = def
	case x > 0 && (rng != fraction || x <= 1), rng == positiveOrOff && x == -1:
	default:
		return fmt.Errorf("fleet: %s is %v, want %s (or 0 for the default %v)", name, x, rangeText[rng], def)
	}
	return nil
}

func (c *ServerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}
