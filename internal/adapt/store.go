package adapt

import (
	"math"
	"sync"
)

// Outcome summarizes one report's effect: the tracker after the
// samples, the fitted per-thread peak, and the action the control plane
// should take against the registry.
type Outcome struct {
	TrackerView
	PeakPerThread float64
	Action        Action
}

// TrackerView is a read-only snapshot of one tracked application, which
// coopd serves as the app's tracker on GET /v1/state and in each
// /v1/report answer.
type TrackerView struct {
	State      State
	FittedAI   float64
	Confidence float64
	RelErr     float64
	Samples    uint64
	Windows    uint64
	// Resolves counts the solver re-solves this application triggered
	// (fitted-model substitutions and clears). A correctly declared
	// steady application stays at 0 forever.
	Resolves uint64
}

// Metrics are the store-wide counters for /metricsz.
type Metrics struct {
	Tracked      int
	Drifted      int
	Samples      uint64
	Windows      uint64
	Confirmed    uint64
	Cleared      uint64
	Refits       uint64
	PhaseChanges uint64
}

// Store is the per-application telemetry and drift-tracking state,
// living beside the control-plane registry. Safe for concurrent use.
type Store struct {
	cfg Config

	mu        sync.Mutex
	apps      map[string]*tracker
	confirmed uint64
	cleared   uint64
	refits    uint64
}

// NewStore builds a store with the given tuning (zero fields default).
func NewStore(cfg Config) *Store {
	return &Store{cfg: cfg.withDefaults(), apps: map[string]*tracker{}}
}

// Config returns the effective (defaulted) configuration.
func (st *Store) Config() Config { return st.cfg }

// Report ingests an application's samples. declaredAI is the AI from
// its registration; appliedAI is the fitted AI currently substituted in
// the registry (0 when the declared model is being served). The
// returned Outcome carries the action the caller must apply.
func (st *Store) Report(id string, declaredAI, appliedAI float64, samples []Sample) Outcome {
	st.mu.Lock()
	defer st.mu.Unlock()
	t, ok := st.apps[id]
	if !ok {
		t = newTracker(st.cfg)
		st.apps[id] = t
	}
	for _, s := range samples {
		t.observe(declaredAI, s)
	}
	confirmed, cleared := t.confirmed, t.cleared
	t.confirmed, t.cleared = false, false
	if confirmed {
		st.confirmed++
	}
	if cleared {
		st.cleared++
	}

	out := Outcome{PeakPerThread: t.fit.PeakPerThread}
	switch {
	case cleared && appliedAI > 0:
		// Drift resolved with a confirmed exit: serve the declared model
		// again. (A fresh tracker that has not yet re-confirmed — e.g.
		// right after a leader failover — never clears a model it did
		// not itself confirm, so replicated fits survive restarts.)
		out.Action = ActionClear
		t.resolves++
	case t.state == Drifted && t.fit.Confidence >= minConfidence:
		// Publish the fitted model — but only when it moved enough from
		// the applied one to be worth a fresh solve.
		if appliedAI <= 0 || math.Abs(t.fit.AI-appliedAI)/appliedAI > refitDelta {
			out.Action = ActionSet
			t.resolves++
			st.refits++
		}
	}
	out.TrackerView = t.view()
	return out
}

// Remove drops tracking state for departed applications (deregistered
// or evicted); unknown IDs are ignored.
func (st *Store) Remove(ids ...string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, id := range ids {
		delete(st.apps, id)
	}
}

// View returns one application's tracker snapshot.
func (st *Store) View(id string) (TrackerView, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	t, ok := st.apps[id]
	if !ok {
		return TrackerView{}, false
	}
	return t.view(), true
}

// Metrics returns the store-wide counters.
func (st *Store) Metrics() Metrics {
	st.mu.Lock()
	defer st.mu.Unlock()
	m := Metrics{Tracked: len(st.apps), Confirmed: st.confirmed, Cleared: st.cleared, Refits: st.refits}
	for _, t := range st.apps {
		m.Samples += t.samples
		m.Windows += t.windows
		m.PhaseChanges += t.phaseChanges
		if t.state == Drifted {
			m.Drifted++
		}
	}
	return m
}
