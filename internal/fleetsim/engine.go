package fleetsim

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/faultinject"
	"repro/internal/fleet"
)

// Engine runs one scenario against a live in-process fleet: real
// coopd member daemons (plain or HA replica pairs) behind a
// faultinject partition fabric, the fleet.Server wiring fleetd serves
// (Inventory, Placer, Rebalancer, Upgrader) on top, driven round by
// round, and the invariant checker after every round.
type Engine struct {
	sc   *Scenario
	logf func(format string, args ...any)

	part    *faultinject.Partition
	inv     *fleet.Inventory
	placer  *fleet.Placer
	reb     *fleet.Rebalancer
	upg     *fleet.Upgrader
	members map[string]*simMember
	groups  map[string]*client.Group // member ID -> its endpoints, as the inventory reaches them

	trueAI map[string]float64 // app name -> measured intensity (0: honest)
	pools  map[string][]string

	check          *checker
	verdict        *Verdict
	lastPerturb    int
	lastActive     int
	driftConfirmed map[string]float64
	fittedSeen     map[string]float64

	// Simulated clock: the inventory's flap/quarantine timing runs on
	// epoch + simRound seconds, one tick per round, so backoff expiry is
	// a property of the trace, not of how fast the host ran the rounds.
	epoch    time.Time
	simRound int
}

// EngineConfig tunes a scenario run.
type EngineConfig struct {
	// Logf receives progress logs (nil: silent).
	Logf func(format string, args ...any)
}

// NewEngine validates the scenario and boots its initial machines.
// Close must be called to tear the member daemons down.
func NewEngine(sc *Scenario, cfg EngineConfig) (*Engine, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		sc:             sc,
		logf:           cfg.Logf,
		part:           faultinject.NewPartition(),
		members:        map[string]*simMember{},
		groups:         map[string]*client.Group{},
		trueAI:         map[string]float64{},
		pools:          map[string][]string{},
		lastPerturb:    -1,
		lastActive:     -1,
		driftConfirmed: map[string]float64{},
		fittedSeen:     map[string]float64{},
		epoch:          time.Now(),
	}
	e.verdict = &Verdict{
		Scenario:      sc.Name,
		Seed:          sc.Seed,
		Rounds:        sc.Rounds,
		MovesByReason: map[string]int{},
	}
	e.inv = fleet.NewInventory(fleet.InventoryConfig{
		NewClient:         e.newClient,
		FailAfter:         sc.failAfter(),
		Clock:             func() time.Time { return e.epoch.Add(time.Duration(e.simRound) * time.Second) },
		FlapCount:         sc.FlapCount,
		FlapWindow:        time.Duration(sc.FlapWindowSeconds) * time.Second,
		QuarantineBackoff: time.Duration(sc.QuarantineBackoffSeconds) * time.Second,
		Logf:              e.log,
	})
	srv, err := fleet.NewServer(fleet.ServerConfig{
		Inventory:         e.inv,
		MaxMovesPerRound:  sc.MaxMovesPerRound,
		Threshold:         sc.Threshold,
		DomainSpread:      sc.DomainSpread,
		Objective:         sc.Objective,
		StormFraction:     sc.StormFraction,
		StormBudget:       sc.StormBudget,
		AdmissionCap:      sc.AdmissionCap,
		CooldownRounds:    sc.CooldownRounds,
		DisablePreemption: sc.DisablePreemption,
		DisableStormBrake: sc.DisableStormBrake,
		Logf:              e.log,
	})
	if err != nil {
		return nil, fmt.Errorf("fleetsim: scenario %s: %w", sc.Name, err)
	}
	e.placer, e.reb, e.upg = srv.Placer(), srv.Rebalancer(), srv.Upgrader()
	e.check = newChecker(sc, srv.Config().CooldownRounds)
	for _, ms := range sc.Machines {
		if err := e.addMachine(ms); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

func (e *Engine) log(format string, args ...any) {
	if e.logf != nil {
		e.logf(format, args...)
	}
}

// newClient builds a partition-fabric client for one endpoint: every
// call — inventory polls, placements, moves, telemetry — crosses the
// same injectable network.
func (e *Engine) newClient(endpoint string) *client.Client {
	return client.New(endpoint, client.Config{
		HTTPClient:  &http.Client{Transport: e.part.Transport(nil)},
		MaxAttempts: 1,
		// A short deadline keeps rounds brisk: a partitioned member's poll
		// fails on connect, not on a long timeout.
		RequestTimeout: 2 * time.Second,
	})
}

func (e *Engine) addMachine(ms MachineSpec) error {
	m, err := startMember(ms)
	if err != nil {
		return fmt.Errorf("fleetsim: starting member %s: %w", ms.ID, err)
	}
	e.members[ms.ID] = m
	clis := make([]*client.Client, 0, len(m.procs))
	for _, ep := range m.endpoints() {
		clis = append(clis, e.newClient(ep))
	}
	e.groups[ms.ID] = client.NewGroup(clis...)
	if err := e.inv.AddDomain(ms.ID, ms.Domain, m.endpoints()...); err != nil {
		return err
	}
	return nil
}

// Close tears down every member daemon and their state dirs.
func (e *Engine) Close() {
	for _, m := range e.members {
		m.close()
	}
}

// perturb marks a round as externally perturbed for the convergence
// invariant.
func (e *Engine) perturb(round int, format string, args ...any) {
	e.lastPerturb = round
	e.log("fleetsim[%s] round %d: %s", e.sc.Name, round, fmt.Sprintf(format, args...))
}

// register places an app: through the Placer (the fleet's front door)
// or, when machineID is set, directly on that member's coopd — an app
// arriving behind the fleet's back, picked up by the next poll.
func (e *Engine) register(ctx context.Context, def AppDef, machineID string) error {
	if def.TrueAI > 0 {
		e.trueAI[def.Name] = def.TrueAI
	} else {
		delete(e.trueAI, def.Name)
	}
	if machineID == "" {
		_, _, err := e.placer.Place(ctx, def.AppSpec)
		return err
	}
	if _, err := e.groups[machineID].Register(ctx, def.RegisterRequest()); err != nil {
		return fmt.Errorf("fleetsim: registering %s on %s: %w", def.Name, machineID, err)
	}
	return nil
}

// deregister removes an app by name wherever the inventory sees it
// (stale duplicates excluded — the rebalancer owns those).
func (e *Engine) deregister(ctx context.Context, name string) error {
	for _, m := range e.inv.Snapshot() {
		stale := map[string]bool{}
		for _, id := range m.Stale {
			stale[id] = true
		}
		for _, a := range m.Apps {
			if a.Name != name || stale[a.ID] {
				continue
			}
			if err := e.groups[m.ID].Deregister(ctx, a.ID); err != nil {
				return fmt.Errorf("fleetsim: deregistering %s from %s: %w", name, m.ID, err)
			}
			return nil
		}
	}
	return fmt.Errorf("fleetsim: deregistering %s: not found on any member", name)
}

// applyArrivals drives each arrival process toward its target
// population for the round.
func (e *Engine) applyArrivals(ctx context.Context, round int) error {
	for i := range e.sc.Arrivals {
		a := &e.sc.Arrivals[i]
		pool := e.pools[a.Prefix]
		target := a.populationAt(round)
		for len(pool) < target {
			def := a.app(len(pool))
			if err := e.register(ctx, def, ""); err != nil {
				return err
			}
			pool = append(pool, def.Name)
			e.perturb(round, "arrival %s: +%s (%d/%d)", a.Prefix, def.Name, len(pool), target)
		}
		for len(pool) > target {
			name := pool[len(pool)-1]
			if err := e.deregister(ctx, name); err != nil {
				return err
			}
			pool = pool[:len(pool)-1]
			e.perturb(round, "arrival %s: -%s (%d/%d)", a.Prefix, name, len(pool), target)
		}
		e.pools[a.Prefix] = pool
	}
	return nil
}

// applyEvents runs the round's scripted perturbations.
func (e *Engine) applyEvents(ctx context.Context, round int) error {
	for _, ev := range e.sc.Events {
		if ev.Round != round {
			continue
		}
		switch ev.Action {
		case "register":
			if err := e.register(ctx, *ev.App, ev.Machine); err != nil {
				return err
			}
			e.perturb(round, "register %s (machine=%q)", ev.App.Name, ev.Machine)
		case "deregister":
			if err := e.deregister(ctx, ev.AppName); err != nil {
				return err
			}
			e.perturb(round, "deregister %s", ev.AppName)
		case "kill":
			for _, h := range e.members[ev.Machine].hosts {
				e.part.Isolate(h)
			}
			e.perturb(round, "kill %s (partitioned)", ev.Machine)
		case "revive":
			for _, h := range e.members[ev.Machine].hosts {
				e.part.Heal(h)
			}
			e.perturb(round, "revive %s (healed)", ev.Machine)
		case "drain":
			if err := e.inv.SetDraining(ev.Machine, true); err != nil {
				return fmt.Errorf("fleetsim: drain at round %d: %w", round, err)
			}
			e.perturb(round, "drain %s", ev.Machine)
		case "undrain":
			if err := e.inv.SetDraining(ev.Machine, false); err != nil {
				return fmt.Errorf("fleetsim: undrain at round %d: %w", round, err)
			}
			e.perturb(round, "undrain %s", ev.Machine)
		case "join":
			if err := e.addMachine(*ev.Join); err != nil {
				return err
			}
			e.perturb(round, "join %s (model=%s)", ev.Join.ID, ev.Join.Model)
		case "kill_leader":
			m := e.members[ev.Machine]
			leader := m.leader()
			if leader == nil {
				return fmt.Errorf("fleetsim: kill_leader at round %d: member %s has no live leader", round, ev.Machine)
			}
			// Controlled-failover drill: let the async pull loop catch the
			// follower up first, so the kill tests durability of replicated
			// state instead of racing the replication interval.
			if err := m.waitReplicated(ctx, 10*time.Second); err != nil {
				return err
			}
			leader.kill()
			if err := m.waitLeader(10 * time.Second); err != nil {
				return err
			}
			e.verdict.LeaderKills++
			e.perturb(round, "kill_leader %s: killed %s, survivor promoted", ev.Machine, leader.url)
		case "set_true_ai":
			e.trueAI[ev.AppName] = ev.TrueAI
			e.perturb(round, "set_true_ai %s -> %g", ev.AppName, ev.TrueAI)
		case "upgrade":
			if ev.Parallel {
				// The naive variant: drain the whole fleet at once, no
				// controller. Exists to demonstrate the capacity-floor
				// invariant failing without rolling orchestration.
				for _, m := range e.inv.Snapshot() {
					if err := e.inv.SetDraining(m.ID, true); err != nil {
						return fmt.Errorf("fleetsim: parallel upgrade at round %d: %w", round, err)
					}
				}
				e.perturb(round, "upgrade (parallel: whole fleet draining)")
				continue
			}
			if _, err := e.upg.Start(nil, ev.HealthFloor); err != nil {
				return fmt.Errorf("fleetsim: upgrade at round %d: %w", round, err)
			}
			e.perturb(round, "upgrade started (health floor %g)", ev.HealthFloor)
		}
	}
	return nil
}

// streamTelemetry re-simulates every recalibrating healthy member's
// apps with taskrt/memsim and reports the observed rates, then reads
// back the members' drift views to fold confirmations into the verdict
// (a confirmed drift re-solves the member — a model perturbation the
// convergence clock must account for).
func (e *Engine) streamTelemetry(ctx context.Context, round int) {
	trueAI := func(name string) float64 { return e.trueAI[name] }
	for idx, m := range e.inv.Snapshot() {
		sm := e.members[m.ID]
		if sm == nil || !sm.spec.Recalibrate || !m.Healthy() || len(m.Apps) == 0 {
			continue
		}
		grp := e.groups[m.ID]
		alloc, err := grp.Allocations(ctx)
		if err != nil {
			continue
		}
		seed := e.sc.Seed*1_000_003 + int64(round)*101 + int64(idx)
		rates := simulateMember(m, alloc, trueAI, seed, e.sc.simSeconds())
		if err := reportRates(ctx, grp, rates); err != nil {
			e.log("fleetsim[%s] round %d: telemetry to %s: %v", e.sc.Name, round, m.ID, err)
		}
		st, err := grp.State(ctx, ctrlplane.StateQuery{})
		if err != nil {
			continue
		}
		for _, v := range st.Apps {
			if !v.Drifted || v.FittedAI <= 0 {
				continue
			}
			prev, seen := e.fittedSeen[v.Name]
			if !seen || math.Abs(prev-v.FittedAI) > 0.01*prev {
				e.fittedSeen[v.Name] = v.FittedAI
				e.driftConfirmed[v.Name] = v.FittedAI
				e.perturb(round, "drift confirmed: %s fitted AI %.3g", v.Name, v.FittedAI)
			}
		}
	}
}

func memberAppsBrief(m fleet.Member) []string {
	out := make([]string, 0, len(m.Apps))
	for _, a := range m.Apps {
		s := fmt.Sprintf("%s@%.2g", a.Name, a.AI)
		if a.Drifted {
			s += fmt.Sprintf("(fit %.2g)", a.FittedAI)
		}
		out = append(out, s)
	}
	return out
}

// Run drives the scenario to completion and returns its verdict. An
// error means the harness itself failed (a member would not boot, an
// event was impossible); invariant failures land in the verdict.
func (e *Engine) Run(ctx context.Context) (*Verdict, error) {
	sc := e.sc
	// Prime the inventory before round 0: the Placer routes arrivals by
	// the latest snapshots, which otherwise would not exist yet.
	e.inv.Poll(ctx)
	for round := 0; round < sc.Rounds; round++ {
		e.simRound = round
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := e.applyArrivals(ctx, round); err != nil {
			return nil, err
		}
		if err := e.applyEvents(ctx, round); err != nil {
			return nil, err
		}

		plan, err := e.reb.Round(ctx)
		if err != nil {
			// Execute errors (e.g. a move raced a kill) are part of the
			// stress: the next round re-plans. Log and carry on.
			e.log("fleetsim[%s] round %d: rebalance: %v", sc.Name, round, err)
		}
		if plan == nil {
			continue
		}

		e.check.checkBudget(round, plan)
		e.check.recordMoves(round, plan)
		e.check.checkExactlyOnce(round, e.inv.Snapshot())
		e.check.checkStorm(round, plan)
		e.check.checkCapacityFloor(round, e.inv.Snapshot())
		if e.check.checkPriorityInversion(round, e.inv.Snapshot()) {
			e.verdict.InversionRounds++
		}

		e.verdict.TotalMoves += len(plan.Moves)
		e.verdict.Deferred += plan.Deferred
		if plan.StormActive {
			e.verdict.StormRounds++
		}
		if msg := e.upg.Step(ctx); msg != "" {
			e.perturb(round, "%s", msg)
		}
		if len(plan.Moves) > e.verdict.MaxRoundMoves {
			e.verdict.MaxRoundMoves = len(plan.Moves)
		}
		for _, mv := range plan.Moves {
			e.verdict.MovesByReason[mv.Reason]++
		}
		if len(plan.Moves) > 0 || len(plan.StaleDeregs) > 0 || plan.Deferred > 0 {
			e.lastActive = round
			e.log("fleetsim[%s] round %d: %d moves, %d stale cleanups, %d deferred (budget %d)",
				sc.Name, round, len(plan.Moves), len(plan.StaleDeregs), plan.Deferred, plan.Budget)
		}
		e.log("fleetsim[%s] round %d: current %.1f GFLOPS vs repack %.1f",
			sc.Name, round, plan.CurrentGFLOPS, plan.RepackGFLOPS)
		for _, m := range e.inv.Snapshot() {
			e.log("fleetsim[%s] round %d:   member %s dead=%v fail=%d apps=%d total=%.1f %v",
				sc.Name, round, m.ID, m.Dead, m.Failures, len(m.Apps), m.TotalGFLOPS, memberAppsBrief(m))
		}

		if sc.Telemetry {
			e.streamTelemetry(ctx, round)
		}
	}
	e.simRound = sc.Rounds
	e.inv.Poll(ctx)
	total := 0.0
	for _, m := range e.inv.Snapshot() {
		if m.Healthy() && !m.Draining {
			total += m.TotalGFLOPS
		}
	}
	e.verdict.FinalAggregateGFLOPS = total

	e.check.checkConvergence(e.lastPerturb, e.lastActive)
	e.check.checkReadmission(e.inv.Snapshot())
	e.verdict.LastPerturbRound = e.lastPerturb
	e.verdict.LastActiveRound = e.lastActive
	if st := e.upg.Status(); st.State != fleet.UpgradeIdle {
		e.verdict.UpgradeState = st.State
		e.verdict.Upgraded = len(st.Done)
	}
	if len(e.driftConfirmed) > 0 {
		e.verdict.DriftConfirmed = e.driftConfirmed
	}
	e.verdict.Violations = e.check.violations
	e.verdict.Passed = len(e.check.violations) == 0
	return e.verdict, nil
}

// RunScenario is the one-call form: boot, run, tear down.
func RunScenario(ctx context.Context, sc *Scenario, cfg EngineConfig) (*Verdict, error) {
	e, err := NewEngine(sc, cfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.Run(ctx)
}

// Inventory exposes the engine's inventory for test assertions.
func (e *Engine) Inventory() *fleet.Inventory { return e.inv }

// Rebalancer exposes the engine's rebalancer for test assertions.
func (e *Engine) Rebalancer() *fleet.Rebalancer { return e.reb }
