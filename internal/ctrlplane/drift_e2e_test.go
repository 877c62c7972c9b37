package ctrlplane_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/adapt"
	"repro/internal/ctrlplane"
	"repro/internal/machine"
	"repro/internal/roofline"
)

// TestReportEndpointGating: without -recalibrate the telemetry
// endpoint answers deliberately (404 with a hint) and no read claims a
// tracker (no /metricsz adapt block, no app tracker on /v1/state)
// rather than pretending to track; with it, reports for unknown apps
// are rejected.
func TestReportEndpointGating(t *testing.T) {
	ctx := context.Background()

	_, off := startServer(t, ctrlplane.ServerConfig{})
	if _, err := off.Report(ctx, ctrlplane.ReportRequest{
		ID: "x", Samples: []ctrlplane.ReportSample{{GFLOPS: 1, GBps: 1}},
	}); err == nil {
		t.Error("report with recalibration off: want an error, got none")
	}
	if _, err := off.Register(ctx, ctrlplane.RegisterRequest{Name: "a", AI: 1}); err != nil {
		t.Fatal(err)
	}
	mt, err := off.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics with recalibration off: %v", err)
	}
	if mt.Adapt != nil {
		t.Errorf("/metricsz carries an adapt block on a plain server: %+v", *mt.Adapt)
	}
	st, err := off.State(ctx, ctrlplane.StateQuery{})
	if err != nil {
		t.Fatalf("state with recalibration off: %v", err)
	}
	for _, a := range st.Apps {
		if a.Tracker != nil {
			t.Errorf("%s carries a tracker on a plain server: %+v", a.Name, *a.Tracker)
		}
	}

	_, on := startServer(t, ctrlplane.ServerConfig{Recalibrate: true})
	if _, err := on.Report(ctx, ctrlplane.ReportRequest{
		ID: "no-such-app", Samples: []ctrlplane.ReportSample{{GFLOPS: 1, GBps: 1}},
	}); err == nil {
		t.Error("report for an unregistered app: want an error, got none")
	}
	reg, err := on.Register(ctx, ctrlplane.RegisterRequest{Name: "a", AI: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := on.Report(ctx, ctrlplane.ReportRequest{ID: reg.ID}); err == nil {
		t.Error("report with no samples: want an error, got none")
	}
}

// TestEndToEndDriftConvergence closes the model<->measurement loop over
// the wire: the Table I mix runs with one app ("mis") declaring the
// memory-bound profile (AI 0.5) while actually behaving compute-bound
// (AI 10). Each reporting round evaluates the paper model under the
// *served* allocation with the apps' true intensities and feeds the
// observed rates back through POST /v1/report. The daemon must detect
// the drift, fit AI 10 online, substitute it into the solver, and
// converge to the Table I 254-GFLOPS optimum — while the three
// truthfully-declared apps never trigger a re-solve.
func TestEndToEndDriftConvergence(t *testing.T) {
	_, c := startServer(t, ctrlplane.ServerConfig{
		Recalibrate: true,
		// Two-sample windows, two windows to confirm: drift is actionable
		// after two reporting rounds, keeping the test fast while still
		// exercising the hysteresis path.
		Adapt: adapt.Config{Window: 2, ConfirmWindows: 2, Alpha: 0.5},
	})
	ctx := context.Background()

	trueAI := map[string]float64{"mem-a": 0.5, "mem-b": 0.5, "mem-c": 0.5, "mis": 10}
	for _, name := range []string{"mem-a", "mem-b", "mem-c", "mis"} {
		if _, err := c.Register(ctx, ctrlplane.RegisterRequest{Name: name, AI: 0.5}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}

	m := machine.PaperModel()
	const maxRounds = 6
	applied := false
	rounds := 0
	for round := 1; round <= maxRounds && !applied; round++ {
		rounds = round
		alloc, err := c.Allocations(ctx)
		if err != nil {
			t.Fatalf("allocations: %v", err)
		}
		// What the machine actually does this round: the model evaluated
		// with the apps' true intensities under the served thread layout.
		apps := make([]roofline.App, len(alloc.Apps))
		al := roofline.NewAllocation(len(alloc.Apps), len(m.Nodes))
		for i, aa := range alloc.Apps {
			apps[i] = roofline.App{Name: aa.Name, AI: trueAI[aa.Name], Placement: roofline.NUMAPerfect}
			copy(al.Threads[i], aa.PerNode)
		}
		res, err := roofline.Evaluate(m, apps, al)
		if err != nil {
			t.Fatalf("round %d evaluate: %v", round, err)
		}
		for i, aa := range alloc.Apps {
			g := res.AppGFLOPS[i]
			s := ctrlplane.ReportSample{GFLOPS: g, GBps: g / trueAI[aa.Name], Threads: aa.Threads}
			resp, err := c.Report(ctx, ctrlplane.ReportRequest{
				ID:      aa.ID,
				Samples: []ctrlplane.ReportSample{s, s},
			})
			if err != nil {
				t.Fatalf("round %d report %s: %v", round, aa.Name, err)
			}
			if aa.Name == "mis" && resp.Drifted {
				applied = true
			}
		}
	}
	if !applied {
		t.Fatalf("fitted model not applied within %d reporting rounds", maxRounds)
	}
	t.Logf("drift detected, fitted, and applied after %d reporting rounds", rounds)

	// The re-solve with the fitted demand lands on the Table I optimum.
	alloc, err := c.Allocations(ctx)
	if err != nil {
		t.Fatalf("allocations after refit: %v", err)
	}
	if alloc.TotalGFLOPS < 253 || alloc.TotalGFLOPS > 255 {
		t.Errorf("converged to %.1f GFLOPS, want the Table I ~254 optimum", alloc.TotalGFLOPS)
	}

	mt, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if mt.Adapt == nil {
		t.Fatal("/metricsz has no adapt block: the adaptive loop reads as disabled")
	}
	if mt.Adapt.DriftsCleared != 0 {
		t.Errorf("%d drift clears in a run where the drift never recovers", mt.Adapt.DriftsCleared)
	}
	st, err := c.State(ctx, ctrlplane.StateQuery{})
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	tracked := 0
	for _, app := range st.Apps {
		tr := app.Tracker
		if tr == nil {
			t.Errorf("%s: no tracker on /v1/state", app.Name)
			continue
		}
		tracked++
		if app.Name == "mis" {
			if tr.State != "drifted" || !app.Drifted {
				t.Errorf("mis: state %s applied %v, want drifted+applied", tr.State, app.Drifted)
			}
			if math.Abs(tr.FittedAI-10) > 0.5 {
				t.Errorf("mis: fitted AI %.2f, want ~10", tr.FittedAI)
			}
			if tr.Resolves == 0 {
				t.Error("mis: no re-solves recorded for the drifted app")
			}
			continue
		}
		// The acceptance bar: truthful steady apps cause ZERO re-solves.
		if tr.State != "steady" || tr.Resolves != 0 {
			t.Errorf("%s: state %s with %d re-solves, want steady with none", app.Name, tr.State, tr.Resolves)
		}
	}
	if tracked != 4 || mt.Adapt.Tracked != 4 {
		t.Errorf("%d apps carry a tracker (/metricsz: %d tracked), want 4", tracked, mt.Adapt.Tracked)
	}
}
