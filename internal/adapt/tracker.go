package adapt

import "math"

// Fit is the streaming estimate of one application's effective demand
// model — the online form of calibrate.FitEvenAllocation's outputs.
type Fit struct {
	// AI is the exponentially weighted effective arithmetic intensity
	// (window GFLOPS / window GB/s).
	AI float64
	// PeakPerThread is the exponentially weighted per-thread compute
	// rate (the paper's "0.29 GFLOPS per thread" parameter, fitted from
	// the samples' GFLOPS/threads).
	PeakPerThread float64
	// Confidence in [0, 1] grows while windows agree with the fit and
	// collapses on a detected phase change.
	Confidence float64
	// Anchored reports whether at least one window has been fitted.
	Anchored bool
}

// tracker is the per-application adaptive state: window accumulator,
// streaming fit, CUSUM phase test, and the hysteresis state machine.
// Not safe for concurrent use — the Store serializes.
type tracker struct {
	cfg Config

	// Current window accumulation (usable samples only).
	winN    int
	winG    float64 // summed GFLOPS
	winB    float64 // summed GB/s
	winPeak float64 // max per-thread GFLOPS seen in the window

	fit Fit
	// One-sided CUSUM accumulators over the relative deviation of each
	// window's observed AI from the current fit.
	gPos, gNeg float64

	state  State
	streak int

	declaredAI float64
	lastErr    float64

	samples      uint64
	windows      uint64
	phaseChanges uint64
	resolves     uint64

	// Transient window-close events, drained by the Store per report.
	confirmed bool
	cleared   bool
}

func newTracker(cfg Config) *tracker {
	return &tracker{cfg: cfg}
}

// view renders the tracker as a TrackerView.
func (t *tracker) view() TrackerView {
	return TrackerView{
		State:      t.state,
		FittedAI:   t.fit.AI,
		Confidence: t.fit.Confidence,
		RelErr:     t.lastErr,
		Samples:    t.samples,
		Windows:    t.windows,
		Resolves:   t.resolves,
	}
}

// observe folds one sample into the current window, closing the window
// (and stepping the detector) when it fills.
func (t *tracker) observe(declaredAI float64, s Sample) {
	t.declaredAI = declaredAI
	t.samples++
	if s.GBps <= 0 || s.GFLOPS <= 0 {
		return // no AI information; telemetry only
	}
	t.winN++
	t.winG += s.GFLOPS
	t.winB += s.GBps
	if s.Threads > 0 {
		if pt := s.GFLOPS / float64(s.Threads); pt > t.winPeak {
			t.winPeak = pt
		}
	}
	if t.winN >= t.cfg.Window {
		t.closeWindow()
	}
}

// closeWindow aggregates the window, updates the streaming fit (with
// the CUSUM phase test), and steps the hysteresis state machine.
func (t *tracker) closeWindow() {
	aiObs := t.winG / t.winB
	peak := t.winPeak
	t.winN, t.winG, t.winB, t.winPeak = 0, 0, 0, 0
	t.windows++

	if !t.fit.Anchored {
		t.fit = Fit{AI: aiObs, PeakPerThread: peak, Confidence: t.cfg.Alpha, Anchored: true}
		t.step()
		return
	}

	// CUSUM over the window's relative deviation from the fit: noise
	// within phaseSlack is absorbed; a sustained (or large one-shot)
	// shift accumulates past phaseTrip and declares a phase change.
	dev := (aiObs - t.fit.AI) / t.fit.AI
	t.gPos = math.Max(0, t.gPos+dev-phaseSlack)
	t.gNeg = math.Max(0, t.gNeg-dev-phaseSlack)
	if t.gPos > phaseTrip || t.gNeg > phaseTrip {
		// The application changed behaviour: history belongs to the old
		// phase. Re-anchor the fit on the new window and collapse the
		// confidence so publication waits for fresh agreement.
		t.phaseChanges++
		t.fit.AI = aiObs
		if peak > 0 {
			t.fit.PeakPerThread = peak
		}
		t.fit.Confidence *= 0.25
		t.gPos, t.gNeg = 0, 0
	} else {
		a := t.cfg.Alpha
		t.fit.AI = (1-a)*t.fit.AI + a*aiObs
		if peak > 0 {
			if t.fit.PeakPerThread <= 0 {
				t.fit.PeakPerThread = peak
			} else {
				t.fit.PeakPerThread = (1-a)*t.fit.PeakPerThread + a*peak
			}
		}
		t.fit.Confidence += a * (1 - t.fit.Confidence)
	}
	t.step()
}

// relErr is the relative error of the fitted AI against the declared
// one — the drift signal.
func (t *tracker) relErr() float64 {
	if t.declaredAI <= 0 || !t.fit.Anchored {
		return 0
	}
	return math.Abs(t.fit.AI-t.declaredAI) / t.declaredAI
}

// step advances the hysteresis state machine on a closed window.
// Entry: ConfirmWindows consecutive windows above DriftThreshold.
// Exit: ConfirmWindows consecutive windows below exitRatio×threshold.
// The dead band between the two keeps threshold flapping from ever
// oscillating the published model.
func (t *tracker) step() {
	e := t.relErr()
	t.lastErr = e
	switch t.state {
	case Steady:
		if e > t.cfg.DriftThreshold {
			t.state, t.streak = Suspect, 1
			if t.streak >= t.cfg.ConfirmWindows {
				t.state, t.streak = Drifted, 0
				t.confirmed = true
			}
		}
	case Suspect:
		if e > t.cfg.DriftThreshold {
			t.streak++
			if t.streak >= t.cfg.ConfirmWindows {
				t.state, t.streak = Drifted, 0
				t.confirmed = true
			}
		} else {
			t.state, t.streak = Steady, 0
		}
	case Drifted:
		if e < exitRatio*t.cfg.DriftThreshold {
			t.streak++
			if t.streak >= t.cfg.ConfirmWindows {
				t.state, t.streak = Steady, 0
				t.cleared = true
			}
		} else {
			t.streak = 0
		}
	}
}
