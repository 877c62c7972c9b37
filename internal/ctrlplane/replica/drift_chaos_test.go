package replica_test

// Drift-chaos scenario: a mis-declared app streams telemetry through a
// fault-injecting transport, the leader fits and applies its real
// demand online, and is then killed mid-recalibration. The fitted
// model is journaled (OpFitted) and replicated, so the promoted
// follower must keep serving the corrected allocation without a single
// new sample — and when reporting resumes against it, the fresh
// tracker must re-confirm the drift rather than clear the inherited
// fit.

import (
	"context"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/ctrlplane/replica"
	"repro/internal/faultinject"
)

// driftChaosClient is a single-endpoint client whose transport injects
// a seeded fault mix on the telemetry path (register spared — a blind
// retry there would duplicate the app).
func driftChaosClient(url string, seed int64) (*client.Client, *faultinject.Injector) {
	inj := faultinject.NewInjector(faultinject.Seeded(seed, faultinject.Mix{
		Drop:       0.05,
		Latency:    0.20,
		Err5xx:     0.10,
		MaxLatency: 5 * time.Millisecond,
	}))
	return client.New(url, client.Config{
		HTTPClient: &http.Client{Transport: &faultinject.Transport{
			Inj:    inj,
			Filter: func(r *http.Request) bool { return r.URL.Path != "/v1/register" },
		}},
		MaxAttempts:    6,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
	}), inj
}

// misSample is what the mis-declared app actually does: AI 10, not the
// declared 0.5.
func misSample() ctrlplane.ReportSample {
	return ctrlplane.ReportSample{GFLOPS: 290, GBps: 29, Threads: 29}
}

func TestChaosDriftLeaderKillMidRecalibration(t *testing.T) {
	ttl := 500 * time.Millisecond
	leader, follower := startPair(t, haOpts{
		leaseTTL:    ttl,
		recalibrate: true,
		adaptCfg:    adapt.Config{Window: 2, ConfirmWindows: 2, Alpha: 0.5},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	lc, inj := driftChaosClient(leader.url(), 4100)
	var misID string
	for _, req := range []ctrlplane.RegisterRequest{
		{Name: "mem-a", AI: 0.5},
		{Name: "mem-b", AI: 0.5},
		{Name: "mem-c", AI: 0.5},
		{Name: "mis", AI: 0.5}, // declared memory-bound, behaves compute-bound
	} {
		resp, err := lc.Register(ctx, req)
		if err != nil {
			t.Fatalf("register %s: %v", req.Name, err)
		}
		if req.Name == "mis" {
			misID = resp.ID
		}
	}

	// Telemetry through the fault storm until the leader confirms the
	// drift and applies the fitted model to the solver.
	applied := false
	for i := 0; i < 20 && !applied; i++ {
		resp, err := lc.Report(ctx, ctrlplane.ReportRequest{
			ID:      misID,
			Samples: []ctrlplane.ReportSample{misSample(), misSample()},
		})
		if err != nil {
			continue // injected fault; the next report retries
		}
		applied = resp.Drifted
	}
	if !applied {
		t.Fatal("leader never applied the fitted model through the fault storm")
	}

	// The OpFitted journal record replicates; the follower's app view
	// must mirror the fitted AI before the kill for failover to matter.
	fc := client.New(follower.url(), client.Config{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	waitFor(t, 5*time.Second, "fitted model to replicate", func() bool {
		apps, err := fc.State(ctx, ctrlplane.StateQuery{})
		if err != nil {
			return false
		}
		for _, a := range apps.Apps {
			if a.ID == misID && a.Drifted && math.Abs(a.FittedAI-10) < 0.5 {
				return true
			}
		}
		return false
	})

	// Kill mid-recalibration: telemetry was still flowing.
	leader.kill()
	waitFor(t, 5*time.Second, "follower promotion", func() bool {
		return follower.node.Role() == replica.RoleLeader
	})

	// The promoted leader serves the corrected Table I allocation from
	// the replicated fit alone — no telemetry has reached it yet.
	alloc, err := fc.Allocations(ctx)
	if err != nil {
		t.Fatalf("allocations from promoted leader: %v", err)
	}
	if alloc.TotalGFLOPS < 250 || alloc.TotalGFLOPS > 260 {
		t.Errorf("promoted leader serves %g GFLOPS, want the corrected ~254 (fitted model lost in failover?)", alloc.TotalGFLOPS)
	}
	st, err := fc.State(ctx, ctrlplane.StateQuery{})
	if err != nil {
		t.Fatalf("state from promoted leader: %v", err)
	}
	foundMis := false
	for _, a := range st.Apps {
		if a.ID == misID {
			foundMis = true
			if !a.Drifted || math.Abs(a.FittedAI-10) > 0.5 {
				t.Errorf("promoted leader's state: applied %v AI %.2f, want the inherited fit ~10", a.Drifted, a.FittedAI)
			}
		}
	}
	if !foundMis {
		t.Error("promoted leader's state does not list the fitted app")
	}

	// Reporting resumes against the survivor: its fresh tracker must
	// re-confirm the drift on the inherited fit, never clear it.
	nc, _ := driftChaosClient(follower.url(), 4200)
	confirmed := false
	for i := 0; i < 20 && !confirmed; i++ {
		resp, err := nc.Report(ctx, ctrlplane.ReportRequest{
			ID:      misID,
			Samples: []ctrlplane.ReportSample{misSample(), misSample()},
		})
		if err != nil {
			continue
		}
		if !resp.Drifted {
			t.Fatal("survivor dropped the fitted model while the app still drifts")
		}
		confirmed = resp.State == "drifted"
	}
	if !confirmed {
		t.Fatal("survivor's tracker never re-confirmed the drift")
	}
	mt, err := fc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Adapt == nil || mt.Adapt.DriftsCleared != 0 {
		t.Errorf("survivor's adapt block %+v: the inherited fit must survive re-confirmation with 0 clears", mt.Adapt)
	}
	alloc, err = fc.Allocations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.TotalGFLOPS < 250 || alloc.TotalGFLOPS > 260 {
		t.Errorf("survivor serves %g GFLOPS after resumed telemetry, want ~254", alloc.TotalGFLOPS)
	}

	if counts := inj.Counts(); counts[faultinject.KindDrop]+counts[faultinject.KindLatency]+counts[faultinject.Kind5xx] == 0 {
		t.Error("fault injector never fired; the chaos test ran without chaos")
	}
}
