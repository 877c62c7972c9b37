// Package fleetsim is the trace-driven fleet stress harness: a
// deterministic, seeded scenario engine that drives the real fleet
// placement stack (Inventory/Placer/Rebalancer over live coopd member
// instances, in-process) through trace-defined arrival processes —
// diurnal waves, flash crowds, autoscale churn across heterogeneous
// machine generations, mis-declared-AI drift — and checks stability
// invariants after every rebalance round:
//
//   - exactly-once: no app is placed on two machines at once (stale
//     duplicates pending cleanup on a revived member are exempt);
//   - bounded churn: a round's executed moves never exceed the global
//     move budget, across the urgent, drift, and imbalance passes
//     combined;
//   - no oscillation: an app moved A→B by the drift/imbalance passes
//     does not bounce back B→A within the configured window;
//   - convergence: once the trace stops perturbing the fleet, plans
//     drain to empty within K rounds and stay empty.
//
// Scenarios are JSON documents (a checked-in corpus lives in
// scenarios/); `cmd/fleetsim` and `make fleet-sim` run the corpus and
// emit a machine-readable per-scenario verdict artifact. Telemetry is
// honest: when a scenario enables it, each member's registered apps are
// re-simulated every round on the member's own topology with
// internal/taskrt + internal/memsim (via internal/osched), and the
// observed GFLOPS/GBps rates stream to the member coopd's /v1/report —
// the adaptive recalibration loop runs end-to-end with no hand-fed
// samples.
package fleetsim

import (
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/fleet"
	"repro/internal/roofline"
)

//go:embed scenarios/*.json
var corpusFS embed.FS

// MachineSpec declares one fleet member machine in a scenario.
type MachineSpec struct {
	// ID names the member; members are polled and scored in ID order,
	// so IDs fix the deterministic tie-break order.
	ID string `json:"id"`
	// Model selects the NUMA topology generation: a machine preset name
	// (machine.PresetNames: "paper-model", the default, "paper-numabad",
	// "skylake", "knl-flat", "knl-snc4").
	Model string `json:"model,omitempty"`
	// Domain is the member's failure domain (rack/zone); machines
	// sharing a domain fail together in correlated-failure traces.
	// Empty: the machine is its own domain.
	Domain string `json:"domain,omitempty"`
	// HA runs the member as a two-replica coopd pair (leader +
	// follower) instead of a single daemon; required for kill_leader.
	HA bool `json:"ha,omitempty"`
	// Recalibrate enables the member's adaptive loop (fast test tuning:
	// single-sample windows, two confirm windows) so streamed telemetry
	// can confirm drift.
	Recalibrate bool `json:"recalibrate,omitempty"`
}

// AppDef declares an application a scenario registers: the spec it
// registers with (AI is the declared intensity; the Priority class goes
// on the member's record whether the Placer or a machine-pinned event
// registers the app, and the fleet's polls read it from there), plus
// what it really does.
type AppDef struct {
	fleet.AppSpec
	// TrueAI, when positive and different from AI, is the intensity the
	// telemetry simulation actually runs — a mis-declared app. Zero
	// means honest (TrueAI = AI).
	TrueAI float64 `json:"true_ai,omitempty"`
}

// Arrival is one trace-defined arrival process expanded into per-round
// register/deregister deltas at load time.
type Arrival struct {
	// Process is "diurnal" (sinusoidal population between Base and Peak
	// with the given Period, adjusting until round Until, holding
	// after) or "flash" (Count apps appear at Round and depart at
	// Round+Hold; Hold 0 means they stay).
	Process string `json:"process"`
	// Prefix names the process's apps: prefix-0, prefix-1, ...
	Prefix string `json:"prefix"`
	// AI / TrueAI / MaxThreads / Priority shape every app of the process.
	AI         float64 `json:"ai"`
	TrueAI     float64 `json:"true_ai,omitempty"`
	MaxThreads int     `json:"max_threads,omitempty"`
	Priority   string  `json:"priority,omitempty"`

	// Diurnal knobs.
	Base   int `json:"base,omitempty"`
	Peak   int `json:"peak,omitempty"`
	Period int `json:"period,omitempty"`
	Until  int `json:"until,omitempty"`

	// Flash knobs.
	Round int `json:"round,omitempty"`
	Count int `json:"count,omitempty"`
	Hold  int `json:"hold,omitempty"`
}

// Event is one scripted perturbation.
type Event struct {
	Round int `json:"round"`
	// Action: "register", "deregister", "kill", "revive", "join",
	// "drain", "undrain", "kill_leader", "set_true_ai".
	Action string `json:"action"`
	// Machine targets kill/revive/drain/undrain/kill_leader; for
	// register it optionally pins the registration to one member
	// (bypassing the Placer — an app arriving behind the fleet's back).
	Machine string `json:"machine,omitempty"`
	// Join describes the machine a "join" event adds mid-run.
	Join *MachineSpec `json:"join,omitempty"`
	// App is the "register" payload.
	App *AppDef `json:"app,omitempty"`
	// AppName targets deregister/set_true_ai.
	AppName string `json:"app_name,omitempty"`
	// TrueAI is the new measured intensity for set_true_ai (an app
	// changing phase mid-run).
	TrueAI float64 `json:"true_ai,omitempty"`
	// HealthFloor is the "upgrade" event's abort floor (0: the
	// controller default, 0.5).
	HealthFloor float64 `json:"health_floor,omitempty"`
	// Parallel turns the "upgrade" event into the naive all-at-once
	// variant — every machine drained simultaneously, no controller —
	// the regression knob that demonstrates the capacity-floor
	// invariant failing without rolling orchestration.
	Parallel bool `json:"parallel,omitempty"`
}

// Scenario is one runnable trace with its invariant tolerances.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed fixes every random source (DES engines, derived per-round
	// seeds); the same scenario + seed is bit-deterministic in its
	// placement decisions.
	Seed int64 `json:"seed"`
	// Rounds is how many rebalance rounds the engine drives.
	Rounds int `json:"rounds"`

	// Fleet knobs, handed to fleet.ServerConfig / InventoryConfig as
	// they are: zero selects the fleet's default, and a value out of its
	// range fails NewEngine with the error naming the knob. Rebalancer:
	// CooldownRounds -1 turns the cooldown/damping guard off, the
	// regression knob that demonstrates the oscillation invariant failing
	// on a pre-hardening rebalancer.
	MaxMovesPerRound int     `json:"max_moves_per_round,omitempty"`
	Threshold        float64 `json:"threshold,omitempty"`
	CooldownRounds   int     `json:"cooldown_rounds,omitempty"`

	// Robustness knobs.
	// DomainSpread enables the failure-domain anti-affinity tie-break;
	// StormFraction/StormBudget/AdmissionCap tune the rebalancer's
	// mass-failure storm brake; DisableStormBrake is the regression knob
	// that runs a correlated failure without triage.
	DomainSpread      bool    `json:"domain_spread,omitempty"`
	StormFraction     float64 `json:"storm_fraction,omitempty"`
	StormBudget       int     `json:"storm_budget,omitempty"`
	AdmissionCap      int     `json:"admission_cap,omitempty"`
	DisableStormBrake bool    `json:"disable_storm_brake,omitempty"`
	// FlapCount/FlapWindowSeconds/QuarantineBackoffSeconds tune the
	// inventory's flap detector; FlapCount -1 is the regression knob that
	// lets a flapping machine whipsaw the rebalancer. All flap timing
	// runs on the engine's simulated clock (one second per round), so
	// backoffs expire deterministically at a round boundary, never on
	// wall-clock luck.
	FlapCount                int `json:"flap_count,omitempty"`
	FlapWindowSeconds        int `json:"flap_window_seconds,omitempty"`
	QuarantineBackoffSeconds int `json:"quarantine_backoff_seconds,omitempty"`

	// Priority knobs. Objective selects the Scorer's placement objective
	// ("", "total-gflops", "weighted-priority", "max-min");
	// DisablePreemption turns the priority-inversion repair pass and
	// gang-admission eviction off — the regression knob that
	// demonstrates the no-priority-inversion invariant failing on a
	// preemption-free fleet.
	Objective         string `json:"objective,omitempty"`
	DisablePreemption bool   `json:"disable_preemption,omitempty"`

	// Invariant tolerances. OscillationWindow defaults to the fleet's
	// resolved cooldown (a cooled-down app structurally cannot return inside the
	// window); ConvergeWithin defaults to 5 rounds after the last
	// perturbation.
	OscillationWindow int `json:"oscillation_window,omitempty"`
	ConvergeWithin    int `json:"converge_within,omitempty"`
	// SurvivorAdmissionCap, when positive, arms the survivor-admission
	// invariant: no member may admit more than this many urgent
	// (machine-lost/quarantine) evacuations in one round. When
	// Scenario.StormBudget is also positive, a round's urgent
	// evacuations exceeding it is a bounded-churn violation.
	SurvivorAdmissionCap int `json:"survivor_admission_cap,omitempty"`
	// MaxMachineLostPerMember, when positive, arms the flap-churn
	// invariant: one member sourcing more than this many urgent
	// evacuations across the whole run is flapping unquarantined.
	MaxMachineLostPerMember int `json:"max_machine_lost_per_member,omitempty"`
	// MinPlaceableFraction, when positive, arms the capacity-floor
	// invariant: after every round at least this fraction of members
	// must be placeable (healthy and not draining).
	MinPlaceableFraction float64 `json:"min_placeable_fraction,omitempty"`
	// InversionToleranceRounds, when positive, arms the
	// no-priority-inversion invariant: a healthy member hosting a
	// latency- or system-class app with more apps than its floor
	// capacity while lower-class apps hold slots there is an inversion;
	// one that persists for more than this many consecutive rounds is a
	// violation. Transient inversions (an evacuation just landed, the
	// preemption pass has not run yet) inside the tolerance are fine.
	InversionToleranceRounds int `json:"inversion_tolerance_rounds,omitempty"`
	// FinalMinApps, when set, is checked after the last round's poll:
	// each named member must host at least that many (non-stale) apps.
	// The quarantine_readmission trace uses it to prove a forgiven
	// member actually wins placements back instead of idling forever.
	FinalMinApps map[string]int `json:"final_min_apps,omitempty"`

	// FailAfter is the inventory's consecutive-failed-polls death
	// threshold (0 selects 2, not the fleet's default: a killed machine
	// is declared dead on the second round after the kill).
	FailAfter int `json:"fail_after,omitempty"`

	// Telemetry streams per-app taskrt/memsim rates to every member
	// after each round; SimSeconds is the simulated span per round
	// (default 0.2).
	Telemetry  bool    `json:"telemetry,omitempty"`
	SimSeconds float64 `json:"sim_seconds,omitempty"`

	Machines []MachineSpec `json:"machines"`
	Arrivals []Arrival     `json:"arrivals,omitempty"`
	Events   []Event       `json:"events,omitempty"`
}

// Validate rejects scenarios the engine cannot run.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("fleetsim: scenario needs a name")
	}
	if sc.Rounds <= 0 {
		return fmt.Errorf("fleetsim: scenario %s: rounds must be positive", sc.Name)
	}
	if len(sc.Machines) == 0 {
		return fmt.Errorf("fleetsim: scenario %s: needs at least one machine", sc.Name)
	}
	if _, err := roofline.ObjectiveSpecByName(sc.Objective); err != nil {
		return fmt.Errorf("fleetsim: scenario %s: %w", sc.Name, err)
	}
	ids := map[string]bool{}
	ha := map[string]bool{}
	for _, m := range sc.Machines {
		if m.ID == "" {
			return fmt.Errorf("fleetsim: scenario %s: machine without id", sc.Name)
		}
		if ids[m.ID] {
			return fmt.Errorf("fleetsim: scenario %s: duplicate machine %s", sc.Name, m.ID)
		}
		ids[m.ID] = true
		ha[m.ID] = m.HA
		if _, err := topologyFor(m.Model); err != nil {
			return fmt.Errorf("fleetsim: scenario %s: %w", sc.Name, err)
		}
	}
	for _, a := range sc.Arrivals {
		switch a.Process {
		case "diurnal":
			if a.Period <= 0 || a.Peak < a.Base || a.Base < 0 {
				return fmt.Errorf("fleetsim: scenario %s: diurnal %s needs period > 0 and peak >= base >= 0", sc.Name, a.Prefix)
			}
		case "flash":
			if a.Count <= 0 {
				return fmt.Errorf("fleetsim: scenario %s: flash %s needs a positive count", sc.Name, a.Prefix)
			}
		default:
			return fmt.Errorf("fleetsim: scenario %s: unknown arrival process %q", sc.Name, a.Process)
		}
		if a.Prefix == "" || a.AI <= 0 {
			return fmt.Errorf("fleetsim: scenario %s: arrival needs a prefix and positive ai", sc.Name)
		}
		if err := a.app(0).Validate(); err != nil {
			return fmt.Errorf("fleetsim: scenario %s: arrival %s: %w", sc.Name, a.Prefix, err)
		}
	}
	for _, e := range sc.Events {
		if e.Round < 0 || e.Round >= sc.Rounds {
			return fmt.Errorf("fleetsim: scenario %s: event %q at round %d outside [0, %d)", sc.Name, e.Action, e.Round, sc.Rounds)
		}
		switch e.Action {
		case "register":
			// ttl_ms rides AppSpec but is no scenario knob: sim apps
			// outlive any scenario on the members' default TTL.
			if e.App == nil || e.App.Name == "" || e.App.AI <= 0 || e.App.TTLMillis != 0 {
				return fmt.Errorf("fleetsim: scenario %s: register event needs an app with a name, positive ai and no ttl_ms", sc.Name)
			}
			if err := e.App.Validate(); err != nil {
				return fmt.Errorf("fleetsim: scenario %s: register %s: %w", sc.Name, e.App.Name, err)
			}
		case "deregister":
			if e.AppName == "" {
				return fmt.Errorf("fleetsim: scenario %s: deregister event needs app_name", sc.Name)
			}
		case "kill", "revive", "drain", "undrain":
			if !ids[e.Machine] {
				return fmt.Errorf("fleetsim: scenario %s: %s targets unknown machine %q", sc.Name, e.Action, e.Machine)
			}
		case "kill_leader":
			if !ids[e.Machine] {
				return fmt.Errorf("fleetsim: scenario %s: kill_leader targets unknown machine %q", sc.Name, e.Machine)
			}
			if !ha[e.Machine] {
				return fmt.Errorf("fleetsim: scenario %s: kill_leader targets non-HA machine %q", sc.Name, e.Machine)
			}
		case "join":
			if e.Join == nil || e.Join.ID == "" {
				return fmt.Errorf("fleetsim: scenario %s: join event needs a machine spec", sc.Name)
			}
			if ids[e.Join.ID] {
				return fmt.Errorf("fleetsim: scenario %s: join duplicates machine %s", sc.Name, e.Join.ID)
			}
			ids[e.Join.ID] = true
			ha[e.Join.ID] = e.Join.HA
			if _, err := topologyFor(e.Join.Model); err != nil {
				return fmt.Errorf("fleetsim: scenario %s: %w", sc.Name, err)
			}
		case "set_true_ai":
			if e.AppName == "" || e.TrueAI <= 0 {
				return fmt.Errorf("fleetsim: scenario %s: set_true_ai needs app_name and positive true_ai", sc.Name)
			}
		case "upgrade":
			if e.HealthFloor < 0 || e.HealthFloor > 1 {
				return fmt.Errorf("fleetsim: scenario %s: upgrade health_floor %g outside [0, 1]", sc.Name, e.HealthFloor)
			}
		default:
			return fmt.Errorf("fleetsim: scenario %s: unknown event action %q", sc.Name, e.Action)
		}
	}
	// ids now includes mid-run joins, so a FinalMinApps entry may name a
	// machine that does not exist until its join event fires.
	for id := range sc.FinalMinApps {
		if !ids[id] {
			return fmt.Errorf("fleetsim: scenario %s: final_min_apps names unknown machine %q", sc.Name, id)
		}
	}
	return nil
}

// oscillationWindow is the no-oscillation invariant's window on a fleet
// whose resolved CooldownRounds is cooldown: a cooled-down app
// structurally cannot return inside it.
func (sc *Scenario) oscillationWindow(cooldown int) int {
	if sc.OscillationWindow > 0 {
		return sc.OscillationWindow
	}
	if cooldown > 0 {
		return cooldown
	}
	return 2
}

func (sc *Scenario) convergeWithin() int {
	if sc.ConvergeWithin > 0 {
		return sc.ConvergeWithin
	}
	return 5
}

func (sc *Scenario) failAfter() int {
	if sc.FailAfter != 0 {
		return sc.FailAfter
	}
	return 2
}

func (sc *Scenario) simSeconds() float64 {
	if sc.SimSeconds > 0 {
		return sc.SimSeconds
	}
	return 0.2
}

// populationAt is the diurnal process's target population for a round:
// base + (peak-base) · (1 − cos 2πr/period)/2, frozen past Until so the
// fleet has a stable tail to converge in.
func (a *Arrival) populationAt(round int) int {
	switch a.Process {
	case "diurnal":
		r := round
		if a.Until > 0 && r > a.Until {
			r = a.Until
		}
		phase := 2 * math.Pi * float64(r) / float64(a.Period)
		return a.Base + int(math.Round(float64(a.Peak-a.Base)*(1-math.Cos(phase))/2))
	case "flash":
		if round < a.Round {
			return 0
		}
		if a.Hold > 0 && round >= a.Round+a.Hold {
			return 0
		}
		return a.Count
	}
	return 0
}

// app builds the i-th app of the process.
func (a *Arrival) app(i int) AppDef {
	return AppDef{
		AppSpec: fleet.AppSpec{
			Name:       fmt.Sprintf("%s-%d", a.Prefix, i),
			AI:         a.AI,
			MaxThreads: a.MaxThreads,
			Priority:   a.Priority,
		},
		TrueAI: a.TrueAI,
	}
}

// ParseScenario decodes and validates one scenario document.
func ParseScenario(data []byte) (*Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("fleetsim: decoding scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Corpus returns the checked-in scenario corpus, sorted by name.
func Corpus() ([]*Scenario, error) {
	return loadFS(corpusFS, "scenarios")
}

// LoadDir loads every *.json scenario in a directory.
func LoadDir(dir string) ([]*Scenario, error) {
	return loadFS(os.DirFS(dir), ".")
}

// Filter selects scenarios by a comma-separated name list. An empty
// list selects everything; names that match nothing are an error that
// spells out the available scenarios, so a typo in a CI invocation
// fails loudly instead of silently running an empty (or wrong) subset.
func Filter(scenarios []*Scenario, run string) ([]*Scenario, error) {
	if strings.TrimSpace(run) == "" {
		return scenarios, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(run, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	var kept []*Scenario
	for _, sc := range scenarios {
		if want[sc.Name] {
			kept = append(kept, sc)
			delete(want, sc.Name)
		}
	}
	if len(want) > 0 {
		missing := make([]string, 0, len(want))
		for name := range want {
			missing = append(missing, name)
		}
		sort.Strings(missing)
		available := make([]string, 0, len(scenarios))
		for _, sc := range scenarios {
			available = append(available, sc.Name)
		}
		return nil, fmt.Errorf("fleetsim: no scenario named %s; available: %s",
			strings.Join(missing, ", "), strings.Join(available, ", "))
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("fleetsim: -run selected no scenarios")
	}
	return kept, nil
}

func loadFS(fsys fs.FS, root string) ([]*Scenario, error) {
	entries, err := fs.Glob(fsys, filepath.ToSlash(filepath.Join(root, "*.json")))
	if err != nil {
		return nil, err
	}
	var out []*Scenario
	for _, name := range entries {
		data, err := fs.ReadFile(fsys, name)
		if err != nil {
			return nil, err
		}
		sc, err := ParseScenario(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	if len(out) == 0 {
		return nil, fmt.Errorf("fleetsim: no scenarios found")
	}
	return out, nil
}
