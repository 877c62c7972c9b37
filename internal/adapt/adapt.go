// Package adapt closes the model↔measurement loop of the control plane:
// instead of trusting the (AI, peak) an application declared at
// registration forever, it ingests the application's observed throughput
// samples, fits an effective demand model online, and decides when the
// fitted model has drifted far enough from the declaration that the
// solver should be re-run on measured reality.
//
// The paper's agent architecture (Fig. 1) already monitors task
// throughput and adapts thread counts each period; this package lifts
// the same feedback to the demand-model level, and lifts the Section
// III.B calibration ("estimate the parameters of the machine from the
// measured performance of the application") from a one-shot offline fit
// to a streaming one. Three cooperating pieces:
//
//   - Telemetry ingest: per-application streams of observed
//     (GFLOPS, GB/s, threads) samples, aggregated into fixed-size
//     windows (a window is the fitting unit; single samples are too
//     noisy to act on).
//   - Online recalibration: exponentially weighted fits of the
//     effective arithmetic intensity (window GFLOPS / window GB/s) and
//     the per-thread peak compute rate, with a confidence score that
//     grows while windows agree with the fit and collapses when a
//     CUSUM-style test detects a phase change (the application's
//     behaviour jumped, so history is evidence about the *old* phase).
//   - Drift detection: a relative-error threshold with hysteresis
//     compares the fitted AI against the declared one. Entry into the
//     drifted state needs ConfirmWindows consecutive windows above
//     DriftThreshold; exit needs ConfirmWindows consecutive windows
//     below exitRatio×DriftThreshold. Observed throughput flapping
//     around the threshold therefore never oscillates the solver.
//
// The control plane (ctrlplane) feeds this store from POST /v1/report,
// and on a confirmed drift substitutes the fitted AI into the
// application's demand key — which changes the solver cache key and so
// triggers a re-solve — while the fleet rebalancer consumes the drift
// flag for bounded re-placement.
package adapt

// Sample is one observed throughput measurement reported by an
// application (or by the simulated runtimes in internal/taskrt +
// internal/memsim, which produce exactly these rates).
type Sample struct {
	// GFLOPS is the observed compute rate over the sampling interval.
	GFLOPS float64 `json:"gflops"`
	// GBps is the observed memory traffic rate; GFLOPS/GBps is the
	// observed arithmetic intensity. Samples with GBps <= 0 are counted
	// but excluded from fitting.
	GBps float64 `json:"gbps"`
	// Threads is the thread count the rates were observed under (0:
	// unknown; the per-thread peak fit skips the sample).
	Threads int `json:"threads,omitempty"`
}

// Config tunes the adaptive loop. The zero value selects the defaults
// noted on each field.
type Config struct {
	// Window is the number of usable samples aggregated into one
	// fitting window (default 4).
	Window int
	// Alpha is the exponential weight of a new window in the fit and
	// the confidence growth rate (default 0.3).
	Alpha float64
	// DriftThreshold is the relative fitted-vs-declared AI error above
	// which a window votes "drifted" (default 0.25).
	DriftThreshold float64
	// ConfirmWindows is the hysteresis depth: consecutive windows
	// needed to confirm entry into — and separately, exit from — the
	// drifted state (default 3).
	ConfirmWindows int
}

const (
	// exitRatio scales DriftThreshold for leaving the drifted state:
	// exit requires the error below exitRatio×DriftThreshold, so entry
	// and exit bands never touch.
	exitRatio = 0.5
	// phaseSlack is the CUSUM slack k: per-window relative deviation
	// from the current fit that is absorbed as noise.
	phaseSlack = 0.1
	// phaseTrip is the CUSUM decision threshold h: accumulated slack-
	// adjusted deviation that declares a phase change, collapsing
	// confidence and re-anchoring the fit.
	phaseTrip = 1.0
	// minConfidence gates publication: a fitted model is only
	// substituted into the solver once its confidence reaches this.
	minConfidence = 0.5
	// refitDelta is the minimum relative change of the fitted AI against
	// the currently applied one before a fresh substitution is published
	// — the guard that keeps a drifted app from churning the solver
	// cache key on every report.
	refitDelta = 0.05
)

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 4
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.25
	}
	if c.ConfirmWindows <= 0 {
		c.ConfirmWindows = 3
	}
	return c
}

// State is the drift detector's hysteresis state for one application.
type State int

const (
	// Steady: the fitted model agrees with the declaration.
	Steady State = iota
	// Suspect: recent windows exceed the threshold but drift is not yet
	// confirmed.
	Suspect
	// Drifted: confirmed — the fitted model replaces the declared one.
	Drifted
)

// String returns the wire name ("steady", "suspect", "drifted").
func (s State) String() string {
	switch s {
	case Suspect:
		return "suspect"
	case Drifted:
		return "drifted"
	default:
		return "steady"
	}
}

// Action tells the control plane how to react to a report.
type Action int

const (
	// ActionNone: keep serving the current model.
	ActionNone Action = iota
	// ActionSet: substitute (or refresh) the fitted model in the
	// registry — the demand key changes and the next solve is fresh.
	ActionSet
	// ActionClear: drift resolved; return to the declared model.
	ActionClear
)
