package fleet

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/ctrlplane"
	"repro/internal/machine"
)

// newRecalCoopd is newCoopd with the adaptive loop on and tuned for
// test speed: single-sample windows, two windows to confirm drift.
func newRecalCoopd(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{
		Machine:     machine.PaperModel(),
		DefaultTTL:  10 * time.Minute,
		Recalibrate: true,
		Adapt:       adapt.Config{Window: 1, Alpha: 0.5, ConfirmWindows: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs
}

// TestRebalanceMovesDriftedApp: an app declared memory-bound (AI 0.5)
// but measured compute-bound (AI 10) is confirmed drifted by its
// machine's coopd; the rebalancer consumes the drift flag from the
// inventory and re-places the app — with its fitted spec — onto the
// machine where the measured behaviour scores best.
func TestRebalanceMovesDriftedApp(t *testing.T) {
	ctx := context.Background()
	a, b := newRecalCoopd(t), newCoopd(t)
	inv := NewInventory(InventoryConfig{NewClient: fastClients(nil), FailAfter: 2})
	if err := inv.Add("a", a.URL); err != nil {
		t.Fatal(err)
	}
	if err := inv.Add("b", b.URL); err != nil {
		t.Fatal(err)
	}
	cli, err := inv.Client("a")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []AppSpec{memSpec("mem-a"), memSpec("mem-b"), memSpec("mem-c")} {
		if _, err := cli.Register(ctx, spec.RegisterRequest()); err != nil {
			t.Fatal(err)
		}
	}
	// The wolf declares memory-bound and measures compute-bound.
	wolf, err := cli.Register(ctx, memSpec("wolf").RegisterRequest())
	if err != nil {
		t.Fatal(err)
	}
	drifted := false
	for i := 0; i < 10 && !drifted; i++ {
		resp, err := cli.Report(ctx, ctrlplane.ReportRequest{
			ID:      wolf.ID,
			Samples: []ctrlplane.ReportSample{{GFLOPS: 290, GBps: 29, Threads: 29}},
		})
		if err != nil {
			t.Fatal(err)
		}
		drifted = resp.Drifted
	}
	if !drifted {
		t.Fatal("wolf never confirmed drifted")
	}

	_, reb := planners(t, inv, ServerConfig{MaxMovesPerRound: 4, Logf: t.Logf})
	plan, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 1 {
		t.Fatalf("planned %d moves, want exactly the drifted app: %+v", len(plan.Moves), plan.Moves)
	}
	mv := plan.Moves[0]
	if mv.Reason != ReasonDrift || mv.AppID != wolf.ID || mv.From != "a" || mv.To != "b" {
		t.Fatalf("move %+v, want drift %s a -> b", mv, wolf.ID)
	}
	if mv.App.AI != 10 {
		t.Fatalf("re-placed with AI %v, want the fitted 10", mv.App.AI)
	}

	inv.Poll(ctx)
	ma, _ := inv.Member("a")
	mb, _ := inv.Member("b")
	if len(ma.Apps) != 3 || len(mb.Apps) != 1 {
		t.Fatalf("apps after drift move: a=%d b=%d, want 3/1", len(ma.Apps), len(mb.Apps))
	}
	// The wolf alone on b, declared at its measured AI 10, is
	// compute-bound across the whole machine: ~320 GFLOPS.
	if mb.TotalGFLOPS < 315 || mb.TotalGFLOPS > 325 {
		t.Fatalf("b serves %g GFLOPS, want ~320 for the re-declared wolf", mb.TotalGFLOPS)
	}

	// Fixed point: the re-placed wolf declares its measured model, so the
	// next round finds nothing drifted and nothing imbalanced.
	again, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Moves) != 0 {
		t.Fatalf("steady state still churns: %+v", again.Moves)
	}
}

// TestPlanDriftStaysPutWhenNoGain: a drifted app whose best alternative
// placement does not beat keeping it in place is left alone — drift
// alone is not a reason to churn.
func TestPlanDriftStaysPutWhenNoGain(t *testing.T) {
	ctx := context.Background()
	a, b := newRecalCoopd(t), newCoopd(t)
	inv := NewInventory(InventoryConfig{NewClient: fastClients(nil), FailAfter: 2})
	if err := inv.Add("a", a.URL); err != nil {
		t.Fatal(err)
	}
	if err := inv.Add("b", b.URL); err != nil {
		t.Fatal(err)
	}
	// b is fully loaded with the Table I mix; a hosts only the drifted
	// app, which already has its machine to itself.
	clb, err := inv.Client("b")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []AppSpec{memSpec("mem-a"), memSpec("mem-b"), memSpec("mem-c"), compSpec("comp")} {
		if _, err := clb.Register(ctx, spec.RegisterRequest()); err != nil {
			t.Fatal(err)
		}
	}
	cla, err := inv.Client("a")
	if err != nil {
		t.Fatal(err)
	}
	solo, err := cla.Register(ctx, memSpec("solo").RegisterRequest())
	if err != nil {
		t.Fatal(err)
	}
	drifted := false
	for i := 0; i < 10 && !drifted; i++ {
		resp, err := cla.Report(ctx, ctrlplane.ReportRequest{
			ID:      solo.ID,
			Samples: []ctrlplane.ReportSample{{GFLOPS: 290, GBps: 29, Threads: 29}},
		})
		if err != nil {
			t.Fatal(err)
		}
		drifted = resp.Drifted
	}
	if !drifted {
		t.Fatal("solo never confirmed drifted")
	}

	_, reb := planners(t, inv, ServerConfig{MaxMovesPerRound: 4, Logf: t.Logf})
	plan, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, mv := range plan.Moves {
		if mv.Reason == ReasonDrift {
			t.Fatalf("gainless drift move planned: %+v", mv)
		}
	}
}
