package fleetsim

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/machine"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func corpusScenario(t *testing.T, name string) *Scenario {
	t.Helper()
	corpus, err := Corpus()
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	for _, sc := range corpus {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("scenario %q not in corpus", name)
	return nil
}

// corpusRuns holds one run per unmodified corpus scenario for the whole
// test binary: the harness is deterministic (TestFlappingDeterministic
// asserts it), so the corpus test and the hardened half of every A/B
// regression below can share a verdict instead of re-solving the
// scenario. Verdicts are shared: read them, never write them.
var corpusRuns sync.Map // scenario name -> *corpusRun

type corpusRun struct {
	once sync.Once
	v    *Verdict
	err  error
}

// corpusVerdict runs the named corpus scenario as checked in, at most
// once per test binary.
func corpusVerdict(t *testing.T, name string) *Verdict {
	t.Helper()
	sc := corpusScenario(t, name)
	r, _ := corpusRuns.LoadOrStore(name, new(corpusRun))
	run := r.(*corpusRun)
	run.once.Do(func() { run.v, run.err = RunScenario(testCtx(t), sc, EngineConfig{Logf: t.Logf}) })
	if run.err != nil {
		t.Fatalf("RunScenario(%s): %v", name, run.err)
	}
	return run.v
}

// sameVerdict holds a run's verdict against its committed entry: every
// field, floats to 1e-9 relative.
func sameVerdict(t *testing.T, run *Verdict, want Verdict) {
	t.Helper()
	// Through JSON like the committed one, so omitted-when-empty fields
	// compare equal.
	var got Verdict
	if data, err := json.Marshal(run); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	same := near(got.FinalAggregateGFLOPS, want.FinalAggregateGFLOPS) && len(got.DriftConfirmed) == len(want.DriftConfirmed)
	for name, ai := range want.DriftConfirmed {
		fitted, ok := got.DriftConfirmed[name]
		same = same && ok && near(fitted, ai)
	}
	exact := got
	exact.FinalAggregateGFLOPS, exact.DriftConfirmed = want.FinalAggregateGFLOPS, want.DriftConfirmed
	if !same || !reflect.DeepEqual(exact, want) {
		t.Errorf("verdict differs from fleet-sim-verdicts.json:\n  got  %+v\n  want %+v", got, want)
	}
}

func TestCorpusLoadsAndValidates(t *testing.T) {
	corpus, err := Corpus()
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	want := map[string]bool{
		"diurnal":                false,
		"flash_crowd":            false,
		"autoscale_churn":        false,
		"misdeclared_drift":      false,
		"flapping":               false,
		"scale_out":              false,
		"correlated_failure":     false,
		"partition_flap":         false,
		"rolling_upgrade":        false,
		"drift_storm":            false,
		"priority_inversion":     false,
		"quarantine_readmission": false,
		"upgrade_failure_race":   false,
	}
	for _, sc := range corpus {
		if err := sc.Validate(); err != nil {
			t.Errorf("scenario %q invalid: %v", sc.Name, err)
		}
		if _, ok := want[sc.Name]; !ok {
			t.Errorf("unexpected scenario %q in corpus", sc.Name)
			continue
		}
		want[sc.Name] = true
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("scenario %q missing from corpus", name)
		}
	}
}

// TestCorpusModelsArePresets: every machine model the corpus names —
// members and mid-scenario joins — is a machine preset by its one name.
func TestCorpusModelsArePresets(t *testing.T) {
	corpus, err := Corpus()
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	for _, sc := range corpus {
		specs := append([]MachineSpec{}, sc.Machines...)
		for _, e := range sc.Events {
			if e.Join != nil {
				specs = append(specs, *e.Join)
			}
		}
		for _, m := range specs {
			if _, err := machine.Preset(m.Model); err != nil {
				t.Errorf("scenario %s machine %s: %v", sc.Name, m.ID, err)
			}
		}
	}
}

// TestCorpusScenariosPassInvariants is the headline acceptance check: every
// checked-in trace runs against the live fleet stack, every stability
// invariant holds, and the verdict is the one committed in
// fleet-sim-verdicts.json — the envelope every refactor is held to.
func TestCorpusScenariosPassInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus run boots live coopd members; skipped in -short")
	}
	corpus, err := Corpus()
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	data, err := os.ReadFile("../../fleet-sim-verdicts.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed []Verdict
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatalf("fleet-sim-verdicts.json: %v", err)
	}
	want := map[string]Verdict{}
	for _, v := range committed {
		want[v.Scenario] = v
	}
	if len(want) != len(corpus) {
		t.Errorf("fleet-sim-verdicts.json holds %d verdicts for a corpus of %d", len(want), len(corpus))
	}
	for _, sc := range corpus {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			v := corpusVerdict(t, sc.Name)
			sameVerdict(t, v, want[sc.Name])
			if !v.Passed {
				for _, viol := range v.Violations {
					t.Errorf("round %d [%s]: %s", viol.Round, viol.Invariant, viol.Detail)
				}
				t.Fatalf("scenario %s failed %d invariant(s)", sc.Name, len(v.Violations))
			}
			if v.TotalMoves > 0 && v.MaxRoundMoves > maxMovesFor(sc) {
				t.Errorf("max round moves %d exceeds budget %d", v.MaxRoundMoves, maxMovesFor(sc))
			}
			t.Logf("verdict: moves=%d deferred=%d byReason=%v lastPerturb=%d lastActive=%d aggGFLOPS=%.1f",
				v.TotalMoves, v.Deferred, v.MovesByReason, v.LastPerturbRound, v.LastActiveRound, v.FinalAggregateGFLOPS)
		})
	}
}

func maxMovesFor(sc *Scenario) int {
	if sc.MaxMovesPerRound > 0 {
		return sc.MaxMovesPerRound
	}
	return fleet.DefaultMaxMovesPerRound
}

// TestOutOfRangeKnobFailsEngine: a scenario knob the fleet would refuse
// fails NewEngine with the fleet's error naming it, instead of running
// on the default.
func TestOutOfRangeKnobFailsEngine(t *testing.T) {
	for _, tc := range []struct {
		doc, knob string
	}{
		{`"threshold": 1.5`, "Threshold is 1.5"},
		{`"flap_window_seconds": -5`, "FlapWindow is -5s"},
		{`"cooldown_rounds": -2`, "CooldownRounds is -2"},
	} {
		sc, err := ParseScenario([]byte(`{"name": "bad", "rounds": 1, "machines": [{"id": "m"}], ` + tc.doc + `}`))
		if err != nil {
			t.Fatalf("%s: %v", tc.doc, err)
		}
		if e, err := NewEngine(sc, EngineConfig{}); err == nil {
			e.Close()
			t.Errorf("%s: NewEngine accepted it", tc.doc)
		} else if !strings.Contains(err.Error(), tc.knob) {
			t.Errorf("%s: error %q does not name %q", tc.doc, err, tc.knob)
		}
	}
}

// TestFlappingDeterministic runs the same scenario twice and demands
// bit-identical verdicts: the harness is seeded and deterministic.
func TestFlappingDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	sc := corpusScenario(t, "flapping")
	var got [2][]byte
	for i := range got {
		v, err := RunScenario(testCtx(t), sc, EngineConfig{})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		got[i] = b
	}
	if string(got[0]) != string(got[1]) {
		t.Fatalf("verdicts differ across identical runs:\n  run0: %s\n  run1: %s", got[0], got[1])
	}
}

// TestOscillationRegressionWithoutAntiThrash demonstrates the pre-hardening
// rebalancer failing the oscillation invariant on the flapping trace, and the
// cooldown-hardened rebalancer passing the same trace. This is the regression
// that keeps the anti-thrash guard honest.
func TestOscillationRegressionWithoutAntiThrash(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	base := corpusScenario(t, "flapping")

	unguarded := *base
	unguarded.Name = "flapping-unguarded"
	unguarded.CooldownRounds = -1
	// The convergence clock is not the point of this regression (a
	// thrashing rebalancer may or may not settle); give it slack so the
	// only expected failure is the oscillation invariant.
	unguarded.ConvergeWithin = base.Rounds

	v, err := RunScenario(testCtx(t), &unguarded, EngineConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("RunScenario(unguarded): %v", err)
	}
	if v.Passed {
		t.Fatalf("pre-hardening rebalancer unexpectedly passed the flapping trace (moves=%d)", v.TotalMoves)
	}
	sawOscillation := false
	for _, viol := range v.Violations {
		t.Logf("unguarded violation: round %d [%s]: %s", viol.Round, viol.Invariant, viol.Detail)
		if viol.Invariant == "no-oscillation" {
			sawOscillation = true
		}
	}
	if !sawOscillation {
		t.Fatalf("expected a no-oscillation violation from the unguarded rebalancer, got %v", v.Violations)
	}

	guarded := corpusVerdict(t, base.Name)
	if !guarded.Passed {
		t.Fatalf("hardened rebalancer failed the same trace: %v", guarded.Violations)
	}
	if guarded.TotalMoves >= v.TotalMoves {
		t.Errorf("hardening should damp churn: guarded=%d moves, unguarded=%d", guarded.TotalMoves, v.TotalMoves)
	}
}

// TestCorrelatedFailureStormRegression is the A/B pair for the storm
// brake: the hardened rebalancer triages the rack death under the storm
// budget and admission cap; the same trace with the brake disabled
// evacuates everything at once and violates both bounds.
func TestCorrelatedFailureStormRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	base := corpusScenario(t, "correlated_failure")

	hardened := corpusVerdict(t, base.Name)
	if !hardened.Passed {
		for _, viol := range hardened.Violations {
			t.Errorf("round %d [%s]: %s", viol.Round, viol.Invariant, viol.Detail)
		}
		t.Fatalf("hardened rebalancer failed the correlated-failure trace")
	}
	if hardened.StormRounds < 1 {
		t.Errorf("storm brake never engaged: StormRounds=%d", hardened.StormRounds)
	}
	if hardened.Deferred == 0 {
		t.Errorf("triage should defer evacuations past the storm budget; Deferred=0")
	}

	unbraked := *base
	unbraked.Name = "correlated_failure-unbraked"
	unbraked.DisableStormBrake = true
	v, err := RunScenario(testCtx(t), &unbraked, EngineConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("RunScenario(unbraked): %v", err)
	}
	if v.Passed {
		t.Fatalf("unbraked rebalancer unexpectedly passed the correlated-failure trace (moves=%d)", v.TotalMoves)
	}
	saw := map[string]bool{}
	for _, viol := range v.Violations {
		t.Logf("unbraked violation: round %d [%s]: %s", viol.Round, viol.Invariant, viol.Detail)
		saw[viol.Invariant] = true
	}
	if !saw["bounded-churn"] {
		t.Errorf("expected a bounded-churn violation without the storm brake, got %v", v.Violations)
	}
	if !saw["survivor-admission"] {
		t.Errorf("expected a survivor-admission violation without the storm brake, got %v", v.Violations)
	}
	if v.StormRounds != 0 {
		t.Errorf("disabled brake still reported %d storm rounds", v.StormRounds)
	}
}

// TestPartitionFlapQuarantineRegression is the A/B pair for the flap
// detector: with quarantine on, the flapping member is benched after
// its third transition and the churn stops; with quarantine off, every
// flap cycle keeps evacuating — individually legitimate urgent legs
// that only the flap-churn invariant catches.
func TestPartitionFlapQuarantineRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	base := corpusScenario(t, "partition_flap")

	hardened := corpusVerdict(t, base.Name)
	if !hardened.Passed {
		for _, viol := range hardened.Violations {
			t.Errorf("round %d [%s]: %s", viol.Round, viol.Invariant, viol.Detail)
		}
		t.Fatalf("quarantine-hardened fleet failed the partition-flap trace")
	}
	if hardened.MovesByReason[fleet.ReasonMachineLost]+hardened.MovesByReason[fleet.ReasonQuarantine] > base.MaxMachineLostPerMember {
		t.Errorf("hardened run exceeded the urgent-evacuation cap: byReason=%v", hardened.MovesByReason)
	}

	unquarantined := *base
	unquarantined.Name = "partition_flap-unquarantined"
	unquarantined.FlapCount = -1
	v, err := RunScenario(testCtx(t), &unquarantined, EngineConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("RunScenario(unquarantined): %v", err)
	}
	if v.Passed {
		t.Fatalf("unquarantined fleet unexpectedly passed the partition-flap trace (moves=%d)", v.TotalMoves)
	}
	sawFlapChurn := false
	for _, viol := range v.Violations {
		t.Logf("unquarantined violation: round %d [%s]: %s", viol.Round, viol.Invariant, viol.Detail)
		if viol.Invariant == "flap-churn" {
			sawFlapChurn = true
		}
	}
	if !sawFlapChurn {
		t.Fatalf("expected a flap-churn violation without quarantine, got %v", v.Violations)
	}
	if v.TotalMoves <= hardened.TotalMoves {
		t.Errorf("quarantine should damp churn: hardened=%d moves, unquarantined=%d", hardened.TotalMoves, v.TotalMoves)
	}
}

// TestRollingUpgradeParallelRegression is the A/B pair for the upgrade
// controller: the rolling drain completes all four machines while the
// placeable fraction never dips below the capacity floor; the naive
// all-at-once variant drains the whole fleet and fails the floor
// immediately.
func TestRollingUpgradeParallelRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	base := corpusScenario(t, "rolling_upgrade")

	rolling := corpusVerdict(t, base.Name)
	if !rolling.Passed {
		for _, viol := range rolling.Violations {
			t.Errorf("round %d [%s]: %s", viol.Round, viol.Invariant, viol.Detail)
		}
		t.Fatalf("rolling upgrade failed invariants")
	}
	if rolling.UpgradeState != "done" {
		t.Errorf("upgrade state %q; want done", rolling.UpgradeState)
	}
	if rolling.Upgraded != len(base.Machines) {
		t.Errorf("upgraded %d machines; want %d", rolling.Upgraded, len(base.Machines))
	}

	parallel := *base
	parallel.Name = "rolling_upgrade-parallel"
	parallel.Events = append([]Event(nil), base.Events...)
	for i := range parallel.Events {
		if parallel.Events[i].Action == "upgrade" {
			parallel.Events[i].Parallel = true
		}
	}
	// A fleet drained whole never converges or re-homes anything; the
	// capacity floor is the one invariant this regression is about.
	parallel.ConvergeWithin = parallel.Rounds
	v, err := RunScenario(testCtx(t), &parallel, EngineConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("RunScenario(parallel): %v", err)
	}
	if v.Passed {
		t.Fatalf("all-at-once upgrade unexpectedly passed the trace")
	}
	sawFloor := false
	for _, viol := range v.Violations {
		if viol.Invariant == "capacity-floor" {
			sawFloor = true
			break
		}
	}
	if !sawFloor {
		t.Fatalf("expected a capacity-floor violation from the parallel upgrade, got %v", v.Violations)
	}
}

// TestDriftStormBudget runs the correlated-misdeclaration trace: four
// wolves confirm drift at once, and the re-solve must be rationed to
// the 1-move round budget — corrections spread over rounds, the rest
// deferred, never a burst.
func TestDriftStormBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	v := corpusVerdict(t, "drift_storm")
	if !v.Passed {
		for _, viol := range v.Violations {
			t.Errorf("round %d [%s]: %s", viol.Round, viol.Invariant, viol.Detail)
		}
		t.Fatalf("drift storm failed invariants")
	}
	if v.MaxRoundMoves > 1 {
		t.Errorf("budget 1 but a round executed %d moves", v.MaxRoundMoves)
	}
	if v.MovesByReason[fleet.ReasonDrift] < 2 {
		t.Errorf("expected at least 2 drift corrections, byReason=%v", v.MovesByReason)
	}
	if v.Deferred == 0 {
		t.Errorf("a 1-move budget against 4 simultaneous drift confirmations should defer work; Deferred=0")
	}
	if len(v.DriftConfirmed) < 2 {
		t.Errorf("expected multiple wolves confirmed, DriftConfirmed=%v", v.DriftConfirmed)
	}
}

// TestPriorityInversionPreemptionRegression is the A/B pair for the
// preemption pass: machine loss on a full fleet strands the latency app
// over a survivor's floor, preemption evicts batch work until the host
// is floor-feasible again, and the inversion clears inside the
// tolerance. The same trace with preemption disabled leaves the
// latency app starved and violates the no-priority-inversion
// invariant.
func TestPriorityInversionPreemptionRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	base := corpusScenario(t, "priority_inversion")

	hardened := corpusVerdict(t, base.Name)
	if !hardened.Passed {
		for _, viol := range hardened.Violations {
			t.Errorf("round %d [%s]: %s", viol.Round, viol.Invariant, viol.Detail)
		}
		t.Fatalf("preemption-hardened fleet failed the priority-inversion trace")
	}
	if hardened.MovesByReason[fleet.ReasonPreempt] < 1 {
		t.Errorf("expected preempt moves to repair the inversion, byReason=%v", hardened.MovesByReason)
	}
	if hardened.InversionRounds < 1 {
		t.Errorf("trace never exhibited an inversion — the invariant is vacuous; InversionRounds=%d", hardened.InversionRounds)
	}

	unpreempted := *base
	unpreempted.Name = "priority_inversion-unpreempted"
	unpreempted.DisablePreemption = true
	// Without the repair pass the fleet may never settle; the inversion
	// invariant is the one this regression is about.
	unpreempted.ConvergeWithin = unpreempted.Rounds
	v, err := RunScenario(testCtx(t), &unpreempted, EngineConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("RunScenario(unpreempted): %v", err)
	}
	if v.Passed {
		t.Fatalf("preemption-disabled fleet unexpectedly passed the trace (moves=%d)", v.TotalMoves)
	}
	sawInversion := false
	for _, viol := range v.Violations {
		t.Logf("unpreempted violation: round %d [%s]: %s", viol.Round, viol.Invariant, viol.Detail)
		if viol.Invariant == "priority-inversion" {
			sawInversion = true
		}
	}
	if !sawInversion {
		t.Fatalf("expected a priority-inversion violation without preemption, got %v", v.Violations)
	}
	if v.MovesByReason[fleet.ReasonPreempt] != 0 {
		t.Errorf("disabled preemption still moved apps: byReason=%v", v.MovesByReason)
	}
}

// TestQuarantineReadmissionRegression is the A/B pair for quarantine
// re-admission: the forgiven flapper is re-admitted when its backoff
// expires and wins the post-readmission flash crowd (final_min_apps);
// while benched, rogue behind-the-back registrations are pushed off
// with quarantine moves. The same trace with a 600s backoff never
// re-admits the member and fails the readmission invariant.
func TestQuarantineReadmissionRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	base := corpusScenario(t, "quarantine_readmission")

	forgiven := corpusVerdict(t, base.Name)
	if !forgiven.Passed {
		for _, viol := range forgiven.Violations {
			t.Errorf("round %d [%s]: %s", viol.Round, viol.Invariant, viol.Detail)
		}
		t.Fatalf("forgiven fleet failed the quarantine-readmission trace")
	}
	if forgiven.MovesByReason[fleet.ReasonQuarantine] < 2 {
		t.Errorf("expected the rogue apps pushed off the benched member, byReason=%v", forgiven.MovesByReason)
	}

	unforgiven := *base
	unforgiven.Name = "quarantine_readmission-unforgiven"
	unforgiven.QuarantineBackoffSeconds = 600
	v, err := RunScenario(testCtx(t), &unforgiven, EngineConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("RunScenario(unforgiven): %v", err)
	}
	if v.Passed {
		t.Fatalf("never-readmitted member unexpectedly passed the trace")
	}
	sawReadmission := false
	for _, viol := range v.Violations {
		t.Logf("unforgiven violation: round %d [%s]: %s", viol.Round, viol.Invariant, viol.Detail)
		if viol.Invariant == "readmission" {
			sawReadmission = true
		}
	}
	if !sawReadmission {
		t.Fatalf("expected a readmission violation with the 600s backoff, got %v", v.Violations)
	}
}

// TestUpgradeFailureRaceStormHandoff checks the upgrade/failure race:
// the drain target dies mid-drain, the controller aborts instead of
// marching on, and the storm brake owns the evacuation — the placeable
// fraction never goes through the capacity floor, which it would if a
// second machine were drained with the first already dead.
func TestUpgradeFailureRaceStormHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	v := corpusVerdict(t, "upgrade_failure_race")
	if !v.Passed {
		for _, viol := range v.Violations {
			t.Errorf("round %d [%s]: %s", viol.Round, viol.Invariant, viol.Detail)
		}
		t.Fatalf("upgrade-failure race failed invariants")
	}
	if v.UpgradeState != fleet.UpgradeAborted {
		t.Errorf("upgrade state %q; want %q", v.UpgradeState, fleet.UpgradeAborted)
	}
	if v.Upgraded != 0 {
		t.Errorf("aborted upgrade reported %d machines upgraded; want 0", v.Upgraded)
	}
	if v.StormRounds < 1 {
		t.Errorf("storm brake never engaged on the dead drain target: StormRounds=%d", v.StormRounds)
	}
	if v.MovesByReason[fleet.ReasonMachineLost] < 2 {
		t.Errorf("expected the dead machine's apps evacuated as machine-lost, byReason=%v", v.MovesByReason)
	}
}

// TestFilter exercises the -run selection helper: subsets select, order
// is preserved, unknown names error and list the corpus, and an
// all-unknown selection is rejected rather than silently running
// nothing.
func TestFilter(t *testing.T) {
	mk := func(names ...string) []*Scenario {
		out := make([]*Scenario, len(names))
		for i, n := range names {
			out[i] = &Scenario{Name: n}
		}
		return out
	}
	all := mk("a", "b", "c")

	got, err := Filter(all, "")
	if err != nil || len(got) != 3 {
		t.Fatalf("Filter(all, \"\") = %d scenarios, err %v; want all 3", len(got), err)
	}

	got, err = Filter(all, " c , a ")
	if err != nil {
		t.Fatalf("Filter subset: %v", err)
	}
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "c" {
		t.Fatalf("Filter subset = %v; want corpus-order [a c]", got)
	}

	if _, err = Filter(all, "a,zzz"); err == nil {
		t.Fatalf("Filter with unknown name should error")
	} else if s := err.Error(); !containsAll(s, "zzz", "a", "b", "c") {
		t.Fatalf("unknown-name error should list the available corpus, got %q", s)
	}

	if _, err = Filter(all, " , "); err == nil {
		t.Fatalf("Filter selecting nothing should error")
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// TestDriftScenarioConvergesThroughLeaderKill runs the telemetry-driven
// mis-declared-AI trace: the wolf's fitted model must converge to its true
// arithmetic intensity using only taskrt/memsim-streamed /v1/report samples,
// and the run must survive a mid-scenario leader kill on the HA member.
func TestDriftScenarioConvergesThroughLeaderKill(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	v := corpusVerdict(t, "misdeclared_drift")
	if !v.Passed {
		for _, viol := range v.Violations {
			t.Errorf("round %d [%s]: %s", viol.Round, viol.Invariant, viol.Detail)
		}
		t.Fatalf("drift scenario failed invariants")
	}
	if v.LeaderKills < 1 {
		t.Fatalf("scenario should have killed at least one leader, got %d", v.LeaderKills)
	}
	fitted, ok := v.DriftConfirmed["wolf"]
	if !ok {
		t.Fatalf("wolf drift never confirmed; DriftConfirmed=%v", v.DriftConfirmed)
	}
	// Declared AI 0.5, true AI 10: the fitted model must land near the
	// truth, not the declaration.
	if fitted < 5 || fitted > 20 {
		t.Fatalf("wolf fitted AI %.2f not near true AI 10", fitted)
	}
	// Post-correction the fleet should be near the compute-bound optimum:
	// wolf alone on a-ha ~= 320 GFLOPS, three mem apps on b-plain ~= 64.
	if v.FinalAggregateGFLOPS < 300 {
		t.Fatalf("final aggregate %.1f GFLOPS; want >= 300 after drift correction", v.FinalAggregateGFLOPS)
	}
}
