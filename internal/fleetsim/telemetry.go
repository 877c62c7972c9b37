package fleetsim

import (
	"context"
	"fmt"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/osched"
	"repro/internal/taskrt"
	"repro/internal/workload"
)

// appRate is one app's observed throughput over a simulated span.
type appRate struct {
	id      string
	name    string
	gflops  float64
	gbps    float64
	threads int
}

// simulateMember re-executes one member's registered apps on its own
// topology for simSeconds of simulated time and returns the observed
// per-app rates. Each app runs a Continuous workload at its *true*
// arithmetic intensity (what the app actually does, not what it
// declared) with as many workers as the member's current allocation
// grants it — so the telemetry stream carries exactly the signal the
// adaptive loop is supposed to recover: GB moved per GFlop is fixed by
// the true AI, rates scale with the allocation. The simulation is
// stateless per round (fresh DES engine, deterministic seed) so moved
// apps simply show up on their new machine next round.
func simulateMember(m fleet.Member, alloc *ctrlplane.AllocationsResponse, trueAI func(name string) float64, seed int64, simSeconds float64) []appRate {
	if m.Topology == nil || len(alloc.Apps) == 0 {
		return nil
	}
	threadsOf := map[string]int{}
	for _, a := range alloc.Apps {
		threadsOf[a.ID] = a.Threads
	}

	eng := des.NewEngine(seed)
	os_ := osched.New(eng, osched.Config{
		Machine: m.Topology,
		// Frictionless scheduling: the telemetry signal under test is the
		// roofline behaviour (compute vs bandwidth), not context-switch
		// overhead.
		ContextSwitchCost: -1,
		MigrationPenalty:  -1,
		LoadBalancePeriod: -1,
	})

	type runApp struct {
		app fleet.PlacedApp
		rt  *taskrt.Runtime
		wl  *workload.Continuous
	}
	var runs []runApp
	for _, app := range m.Apps {
		workers := threadsOf[app.ID]
		if workers <= 0 {
			// The solver granted nothing this round (or the allocation is
			// stale); a real runtime still makes progress on at least one
			// thread, and a silent app would starve the adaptive loop.
			workers = 1
		}
		rt := taskrt.New(os_, taskrt.Config{Name: app.ID, Workers: workers})
		ai := trueAI(app.Name)
		if ai <= 0 {
			ai = app.AI
		}
		wl := &workload.Continuous{RT: rt, TaskGFlop: 0.05, AI: ai}
		runs = append(runs, runApp{app: app, rt: rt, wl: wl})
	}

	os_.Start()
	for _, r := range runs {
		r.wl.Start()
	}
	eng.RunUntil(des.Time(simSeconds))

	rates := make([]appRate, 0, len(runs))
	for _, r := range runs {
		proc := r.rt.Process()
		rates = append(rates, appRate{
			id:      r.app.ID,
			name:    r.app.Name,
			gflops:  proc.GFlopDone() / simSeconds,
			gbps:    proc.GBMoved() / simSeconds,
			threads: r.rt.Stats().Workers,
		})
	}
	return rates
}

// reportRates streams the rates to the member's coopd /v1/report
// through its group, which takes a write an HA follower refuses with
// 421 not_leader to the leader.
func reportRates(ctx context.Context, grp *client.Group, rates []appRate) error {
	var firstErr error
	for _, r := range rates {
		req := ctrlplane.ReportRequest{
			ID:      r.id,
			Samples: []ctrlplane.ReportSample{{GFLOPS: r.gflops, GBps: r.gbps, Threads: r.threads}},
		}
		if _, err := grp.Report(ctx, req); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fleetsim: reporting %s: %w", r.id, err)
		}
	}
	return firstErr
}
