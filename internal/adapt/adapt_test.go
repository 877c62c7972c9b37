package adapt

import (
	"math"
	"math/rand"
	"testing"
)

// testCfg gives deterministic single-sample windows where the fit
// tracks the latest window exactly (Alpha 1), so hysteresis behaviour
// can be driven by a plain sequence of observed AIs.
func testCfg() Config {
	return Config{
		Window:         1,
		Alpha:          1,
		DriftThreshold: 0.25,
		ConfirmWindows: 2,
	}
}

// sampleAI builds a usable sample with the given observed AI.
func sampleAI(ai float64) Sample {
	return Sample{GFLOPS: ai * 4, GBps: 4, Threads: 4}
}

func TestFitConvergence(t *testing.T) {
	cfg := Config{Window: 2, Alpha: 0.3}.withDefaults()
	tr := newTracker(cfg)
	// Steady behaviour: AI 10, 2.9 GFLOPS on 10 threads.
	for i := 0; i < 40; i++ {
		tr.observe(10, Sample{GFLOPS: 2.9, GBps: 0.29, Threads: 10})
	}
	if !tr.fit.Anchored {
		t.Fatal("fit never anchored")
	}
	if math.Abs(tr.fit.AI-10) > 1e-9 {
		t.Fatalf("fitted AI = %v, want 10", tr.fit.AI)
	}
	if math.Abs(tr.fit.PeakPerThread-0.29) > 1e-9 {
		t.Fatalf("fitted per-thread peak = %v, want 0.29", tr.fit.PeakPerThread)
	}
	if tr.fit.Confidence < 0.9 {
		t.Fatalf("confidence after 20 agreeing windows = %v, want > 0.9", tr.fit.Confidence)
	}
	if tr.state != Steady {
		t.Fatalf("state = %v for a correctly-declared app, want steady", tr.state)
	}
	if tr.windows != 20 || tr.samples != 40 {
		t.Fatalf("windows/samples = %d/%d, want 20/40", tr.windows, tr.samples)
	}
}

func TestUnusableSamplesAreTelemetryOnly(t *testing.T) {
	tr := newTracker(testCfg().withDefaults())
	tr.observe(1, Sample{GFLOPS: 5, GBps: 0}) // no bandwidth: can't fit AI
	tr.observe(1, Sample{GFLOPS: 0, GBps: 5})
	if tr.fit.Anchored || tr.windows != 0 {
		t.Fatalf("unusable samples closed a window (windows=%d anchored=%v)", tr.windows, tr.fit.Anchored)
	}
	if tr.samples != 2 {
		t.Fatalf("samples = %d, want 2 (counted as telemetry)", tr.samples)
	}
}

func TestPhaseChangeCollapsesConfidence(t *testing.T) {
	cfg := Config{Window: 1, Alpha: 0.3}.withDefaults()
	tr := newTracker(cfg)
	for i := 0; i < 20; i++ {
		tr.observe(0.5, sampleAI(0.5))
	}
	before := tr.fit.Confidence
	if before < 0.9 {
		t.Fatalf("confidence before phase change = %v, want high", before)
	}
	// Behaviour jumps 20x: a clear phase change, not noise.
	tr.observe(0.5, sampleAI(10))
	if tr.phaseChanges != 1 {
		t.Fatalf("phaseChanges = %d, want 1", tr.phaseChanges)
	}
	if tr.fit.Confidence >= before/2 {
		t.Fatalf("confidence did not collapse: %v -> %v", before, tr.fit.Confidence)
	}
	if math.Abs(tr.fit.AI-10) > 1e-9 {
		t.Fatalf("fit did not re-anchor on the new phase: AI = %v", tr.fit.AI)
	}
}

func TestPhaseSlackAbsorbsNoise(t *testing.T) {
	cfg := Config{Window: 1, Alpha: 0.3}.withDefaults()
	tr := newTracker(cfg)
	// ±8% alternation stays inside the slack band forever.
	for i := 0; i < 50; i++ {
		ai := 1.08
		if i%2 == 1 {
			ai = 0.92
		}
		tr.observe(1, sampleAI(ai))
	}
	if tr.phaseChanges != 0 {
		t.Fatalf("noise tripped the phase test %d times", tr.phaseChanges)
	}
	if tr.fit.Confidence < 0.9 {
		t.Fatalf("confidence = %v, want high under absorbed noise", tr.fit.Confidence)
	}
}

// TestHysteresisNoOscillation is the satellite coverage: observed
// throughput flapping around the drift threshold must never oscillate
// the detector's published state.
func TestHysteresisNoOscillation(t *testing.T) {
	type result struct {
		state     State
		confirms  int
		clears    int
		suspected bool
	}
	run := func(cfg Config, declared float64, seq []float64) result {
		tr := newTracker(cfg.withDefaults())
		var r result
		for _, ai := range seq {
			tr.observe(declared, sampleAI(ai))
			if tr.confirmed {
				r.confirms++
				tr.confirmed = false
			}
			if tr.cleared {
				r.clears++
				tr.cleared = false
			}
			if tr.state == Suspect {
				r.suspected = true
			}
		}
		r.state = tr.state
		return r
	}

	repeat := func(n int, vals ...float64) []float64 {
		var out []float64
		for i := 0; i < n; i++ {
			out = append(out, vals...)
		}
		return out
	}

	cases := []struct {
		name         string
		declared     float64
		seq          []float64
		wantState    State
		wantConfirms int
		wantClears   int
	}{
		{
			// Error flaps 0.30 / 0.20 across the 0.25 threshold: every
			// above-threshold window is followed by a below-threshold one,
			// so drift is never confirmed.
			name:      "flap-across-entry-threshold",
			declared:  1,
			seq:       repeat(20, 1.30, 1.20),
			wantState: Steady,
		},
		{
			// Confirmed drift, then error flaps 0.20 / 0.05 across the
			// exit band (0.125): exit needs consecutive below-band
			// windows, so the drifted state never clears.
			name:         "flap-across-exit-band",
			declared:     1,
			seq:          append(repeat(3, 2.0), repeat(20, 1.20, 1.05)...),
			wantState:    Drifted,
			wantConfirms: 1,
		},
		{
			// Error sits inside the dead band (0.125..0.25) after a
			// confirmed drift: neither re-confirms nor clears.
			name:         "dead-band-holds-state",
			declared:     1,
			seq:          append(repeat(3, 2.0), repeat(20, 1.2)...),
			wantState:    Drifted,
			wantConfirms: 1,
		},
		{
			// Clean drift then clean return: exactly one confirm and one
			// clear, no extras.
			name:         "clean-drift-and-return",
			declared:     1,
			seq:          append(repeat(4, 2.0), repeat(6, 1.0)...),
			wantState:    Steady,
			wantConfirms: 1,
			wantClears:   1,
		},
		{
			// A single outlier window never confirms drift.
			name:      "single-outlier-ignored",
			declared:  1,
			seq:       []float64{1.0, 1.0, 3.0, 1.0, 1.0},
			wantState: Steady,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := run(testCfg(), tc.declared, tc.seq)
			if r.state != tc.wantState {
				t.Fatalf("final state = %v, want %v", r.state, tc.wantState)
			}
			if r.confirms != tc.wantConfirms {
				t.Fatalf("confirms = %d, want %d", r.confirms, tc.wantConfirms)
			}
			if r.clears != tc.wantClears {
				t.Fatalf("clears = %d, want %d", r.clears, tc.wantClears)
			}
		})
	}
}

// seededNoise returns a sampler for an app of trueAI running at
// gflops whose two rates each carry seeded uniform relative noise of
// ±amp (faultinject-style, reproducible).
func seededNoise(seed int64, amp float64) func(trueAI, gflops float64) Sample {
	rng := rand.New(rand.NewSource(seed))
	return func(trueAI, gflops float64) Sample {
		g := gflops * (1 + amp*(rng.Float64()*2-1))
		b := g / trueAI * (1 + amp*(rng.Float64()*2-1))
		return Sample{GFLOPS: g, GBps: b, Threads: 8}
	}
}

// noisyRun is the outcome of driveNoisy.
type noisyRun struct {
	sets, clears int
	appliedAI    float64
	st           *Store
}

// driveNoisy runs 20 rounds of a Store holding "mis", which declares
// AI 0.5 but behaves like AI 10, and "good", which declares and
// behaves like AI 10, both sampled by noisy. It fails the test as soon
// as the truthful app is given any action.
func driveNoisy(t *testing.T, noisy func(trueAI, gflops float64) Sample) noisyRun {
	t.Helper()
	r := noisyRun{st: NewStore(Config{Window: 2, Alpha: 0.5, ConfirmWindows: 2})}
	for round := 0; round < 20; round++ {
		var batch []Sample
		for i := 0; i < 4; i++ {
			batch = append(batch, noisy(10, 2.9))
		}
		out := r.st.Report("mis", 0.5, r.appliedAI, batch)
		switch out.Action {
		case ActionSet:
			r.sets++
			r.appliedAI = out.FittedAI
		case ActionClear:
			r.clears++
			r.appliedAI = 0
		}
		var goodBatch []Sample
		for i := 0; i < 4; i++ {
			goodBatch = append(goodBatch, noisy(10, 2.9))
		}
		if g := r.st.Report("good", 10, 0, goodBatch); g.Action != ActionNone {
			t.Fatalf("round %d: truthful app got action %v", round, g.Action)
		}
	}
	return r
}

// TestHysteresisSeededNoise drives the full Store with ±8% noise on
// each rate: a mis-declared app must still confirm, never be cleared
// and publish a fit near truth; a truthful app in the same store must
// never trigger a re-solve.
func TestHysteresisSeededNoise(t *testing.T) {
	r := driveNoisy(t, seededNoise(42, 0.08))
	if r.sets == 0 {
		t.Fatal("mis-declared app never published a fitted model")
	}
	if r.clears != 0 {
		t.Fatalf("noise cleared a genuinely drifted app %d times", r.clears)
	}
	if math.Abs(r.appliedAI-10)/10 > 0.15 {
		t.Fatalf("applied fitted AI = %v, want within 15%% of 10", r.appliedAI)
	}
	mis, ok := r.st.View("mis")
	if !ok || mis.State != Drifted {
		t.Fatalf("mis view = %+v ok=%v, want drifted", mis, ok)
	}
	good, ok := r.st.View("good")
	if !ok || good.State != Steady || good.Resolves != 0 {
		t.Fatalf("good view = %+v ok=%v, want steady with 0 resolves", good, ok)
	}
}

// TestRefitDeltaDampsChurn checks that refitDelta keeps a stable
// drifted fit from churning re-solves: with noise on each rate at
// 0.8×refitDelta the fitted model is published at most three times in
// twenty rounds.
func TestRefitDeltaDampsChurn(t *testing.T) {
	r := driveNoisy(t, seededNoise(42, 0.8*refitDelta))
	if r.sets == 0 || r.sets > 3 {
		t.Fatalf("fitted model published %d times under steady noise, want 1..3", r.sets)
	}
	if r.clears != 0 {
		t.Fatalf("noise cleared a genuinely drifted app %d times", r.clears)
	}
}

func TestStoreClearReturnsToDeclared(t *testing.T) {
	st := NewStore(Config{Window: 1, Alpha: 0.5, ConfirmWindows: 2})
	applied := 0.0
	feed := func(ai float64, rounds int) (sets, clears int) {
		for i := 0; i < rounds; i++ {
			out := st.Report("app", 0.5, applied, []Sample{sampleAI(ai)})
			switch out.Action {
			case ActionSet:
				sets++
				applied = out.FittedAI
			case ActionClear:
				clears++
				applied = 0
			}
		}
		return
	}
	sets, _ := feed(10, 6)
	if sets == 0 || applied == 0 {
		t.Fatalf("drifted model never published (sets=%d applied=%v)", sets, applied)
	}
	// Behaviour returns to the declaration: phase change re-anchors near
	// the declared AI and the detector must clear exactly once.
	_, clears := feed(0.5, 10)
	if clears != 1 {
		t.Fatalf("clears = %d, want exactly 1", clears)
	}
	if applied != 0 {
		t.Fatalf("applied AI = %v after clear, want 0 (declared model)", applied)
	}
	v, _ := st.View("app")
	if v.State != Steady {
		t.Fatalf("state after return = %v, want steady", v.State)
	}
}

func TestStoreFreshTrackerKeepsReplicatedFit(t *testing.T) {
	// After a leader failover the new leader has the fitted model (it is
	// journaled and replicated) but a fresh, unconfirmed tracker. A fresh
	// tracker must never clear a fit it did not itself confirm — it
	// re-confirms from live samples instead.
	st := NewStore(Config{Window: 1, Alpha: 0.5, ConfirmWindows: 2})
	for i := 0; i < 4; i++ {
		out := st.Report("app", 0.5, 10, []Sample{sampleAI(10)})
		if out.Action == ActionClear {
			t.Fatalf("report %d: fresh tracker cleared the replicated fit", i)
		}
	}
	v, _ := st.View("app")
	if v.State != Drifted {
		t.Fatalf("state = %v, want drifted (re-confirmed from samples)", v.State)
	}
}

func TestStoreRemoveAndMetrics(t *testing.T) {
	st := NewStore(Config{Window: 1, ConfirmWindows: 1})
	st.Report("a", 1, 0, []Sample{sampleAI(1)})
	st.Report("b", 1, 0, []Sample{sampleAI(5), sampleAI(5)})
	m := st.Metrics()
	if m.Tracked != 2 || m.Samples != 3 || m.Windows != 3 {
		t.Fatalf("metrics = %+v, want 2 tracked / 3 samples / 3 windows", m)
	}
	if m.Drifted != 1 || m.Confirmed != 1 {
		t.Fatalf("metrics = %+v, want 1 drifted / 1 confirmed", m)
	}
	if a, ok := st.View("a"); !ok || a.Samples != 1 || a.State != Steady {
		t.Fatalf("view a = %+v ok=%v, want 1 sample, steady", a, ok)
	}
	if b, ok := st.View("b"); !ok || b.Samples != 2 || b.State != Drifted {
		t.Fatalf("view b = %+v ok=%v, want 2 samples, drifted", b, ok)
	}
	st.Remove("a", "missing")
	if m := st.Metrics(); m.Tracked != 1 {
		t.Fatalf("tracked after remove = %d, want 1", m.Tracked)
	}
	if _, ok := st.View("a"); ok {
		t.Fatal("removed app still visible")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Window != 4 || c.ConfirmWindows != 3 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.DriftThreshold != 0.25 || c.Alpha != 0.3 {
		t.Fatalf("defaults = %+v", c)
	}
	// Explicit values survive.
	c = Config{DriftThreshold: 0.4, Window: 8}.withDefaults()
	if c.DriftThreshold != 0.4 || c.Window != 8 {
		t.Fatalf("explicit config overridden: %+v", c)
	}
}
