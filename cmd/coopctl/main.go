// Command coopctl is the CLI for the coopd control plane: register
// synthetic applications, send heartbeats, dump allocations, and watch
// reallocation happen as applications join and leave.
//
// Usage:
//
//	coopctl [-server URL] register -name stream -ai 0.5 [-placement numa-bad -home 0] [-max 8] [-ttl 10s]
//	coopctl [-server URL] heartbeat -id stream-1 [-workers 8 -running 6]
//	coopctl [-server URL] deregister -id stream-1
//	coopctl [-server URL] report -id stream-1 -gflops 2.9 -gbs 0.29 [-threads 8]
//	coopctl [-server URL] state
//	coopctl [-server URL] alloc
//	coopctl [-server URL] watch [-interval 500ms]
//	coopctl [-server URL] demo [-keep]
//	coopctl [-server URL] health
//	coopctl [-server URL] status [-max-lag 5s]
//	coopctl fleet machines [-fleet URL]
//	coopctl fleet status [-fleet URL]
//	coopctl fleet place -name stream -ai 0.5 [-placement numa-bad -home 0] [-priority latency] [-fleet URL]
//	coopctl fleet place -gang web -replicas 3 -policy spread -ai 0.5 [-priority latency] [-fleet URL]
//	coopctl fleet drain -machine a [-undo] [-fleet URL]
//	coopctl fleet upgrade [-machines a,b,c] [-floor 0.5] [-abort] [-status] [-fleet URL]
//	coopctl fleet plan [-fleet URL]
//
// demo registers the paper's Table I mix (three memory-bound apps at
// AI 0.5 and one compute-bound at AI 10), prints the served allocation
// (254 GFLOPS on the paper-model machine, vs 140 even / 128
// node-per-app), deregisters the compute-bound app, and shows the
// reallocation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/solvecache"
)

func main() {
	server := flag.String("server", "http://127.0.0.1:8377", "control-plane base URL")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	c := client.New(*server, client.Config{})
	ctx := context.Background()
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "register":
		err = cmdRegister(ctx, c, args)
	case "heartbeat":
		err = cmdHeartbeat(ctx, c, args)
	case "deregister":
		err = cmdDeregister(ctx, c, args)
	case "report":
		err = cmdReport(ctx, c, args)
	case "state":
		err = cmdState(ctx, c)
	case "alloc":
		err = cmdAlloc(ctx, c)
	case "watch":
		err = cmdWatch(ctx, c, args)
	case "demo":
		err = cmdDemo(ctx, c, args)
	case "health":
		err = cmdHealth(ctx, c)
	case "status":
		err = cmdStatus(ctx, c, args)
	case "fleet":
		err = cmdFleet(ctx, args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "coopctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: coopctl [-server URL] <register|heartbeat|report|deregister|state|alloc|watch|demo|health|status|fleet> [flags]")
	fmt.Fprintln(os.Stderr, "       coopctl fleet <machines|status|place|drain|plan|upgrade> [-fleet URL] [flags]")
}

func cmdRegister(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("register", flag.ExitOnError)
	name := fs.String("name", "app", "application name")
	ai := fs.Float64("ai", 1, "arithmetic intensity (FLOP/byte)")
	placement := fs.String("placement", "", "numa-perfect (default) or numa-bad")
	home := fs.Int("home", 0, "home node for numa-bad placement")
	max := fs.Int("max", 0, "max threads (0: uncapped)")
	ttl := fs.Duration("ttl", 0, "heartbeat deadline (0: server default)")
	fs.Parse(args)
	resp, err := c.Register(ctx, ctrlplane.RegisterRequest{
		Name: *name, AI: *ai, Placement: *placement, HomeNode: *home,
		MaxThreads: *max, TTLMillis: ttl.Milliseconds(),
	})
	if err != nil {
		return err
	}
	fmt.Printf("registered %s (generation %d, ttl %dms)\n", resp.ID, resp.Generation, resp.TTLMillis)
	if resp.Allocation != nil {
		fmt.Printf("allocation: per-node %v, %d threads, predicted %s GFLOPS\n",
			resp.Allocation.PerNode, resp.Allocation.Threads, metrics.FormatFloat(resp.Allocation.PredictedGFLOPS))
	}
	return nil
}

func cmdHeartbeat(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("heartbeat", flag.ExitOnError)
	id := fs.String("id", "", "application id (from register)")
	workers := fs.Int("workers", 0, "worker thread count")
	running := fs.Int("running", 0, "running workers")
	pending := fs.Int("pending", 0, "queued tasks")
	gflops := fs.Float64("gflops", 0, "observed GFLOP/s")
	gbs := fs.Float64("gbs", 0, "observed GB/s")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("heartbeat: -id is required")
	}
	resp, err := c.Heartbeat(ctx, ctrlplane.HeartbeatRequest{
		ID: *id, Workers: *workers, Running: *running, Pending: *pending,
		GFlopRate: *gflops, GBRate: *gbs,
	})
	if err != nil {
		if client.IsNotFound(err) {
			return fmt.Errorf("%s was evicted (missed its heartbeat deadline); re-register it", *id)
		}
		return err
	}
	fmt.Printf("ok (generation %d)", resp.Generation)
	if resp.Allocation != nil {
		fmt.Printf(", allocation per-node %v", resp.Allocation.PerNode)
	}
	fmt.Println()
	return nil
}

func cmdDeregister(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("deregister", flag.ExitOnError)
	id := fs.String("id", "", "application id")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("deregister: -id is required")
	}
	if err := c.Deregister(ctx, *id); err != nil {
		return err
	}
	fmt.Printf("deregistered %s\n", *id)
	return nil
}

// cmdReport sends one telemetry sample to the adaptive loop (apps
// normally stream these themselves; the CLI form is for experiments).
func cmdReport(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	id := fs.String("id", "", "application id (from register)")
	gflops := fs.Float64("gflops", 0, "observed GFLOP/s")
	gbs := fs.Float64("gbs", 0, "observed GB/s")
	threads := fs.Int("threads", 0, "thread count the rates were observed under")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("report: -id is required")
	}
	resp, err := c.Report(ctx, ctrlplane.ReportRequest{
		ID:      *id,
		Samples: []ctrlplane.ReportSample{{GFLOPS: *gflops, GBps: *gbs, Threads: *threads}},
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s", *id, resp.State)
	if resp.FittedAI > 0 {
		fmt.Printf(", fitted AI %s (confidence %.2f, rel err %.0f%%)",
			metrics.FormatFloat(resp.FittedAI), resp.Confidence, resp.RelErr*100)
	}
	if resp.Drifted {
		fmt.Printf(", fitted model applied")
	}
	fmt.Printf(" (generation %d)\n", resp.Generation)
	return nil
}

// cmdState prints the daemon's one registry read: the machine topology,
// the registered applications and the model's total for them. When any app
// has an adaptive-loop tracker (coopd runs -recalibrate), the table
// gains its columns.
func cmdState(ctx context.Context, c *client.Client) error {
	st, err := c.State(ctx, ctrlplane.StateQuery{})
	if err != nil {
		return err
	}
	fmt.Printf("%s (incarnation %s, generation %d)\n", st.Machine, st.Incarnation, st.Generation)
	nodes := metrics.NewTable("NUMA nodes", "node", "cores", "peak GFLOPS/core", "mem GB/s")
	for i, n := range st.Machine.Nodes {
		nodes.AddRow(i, n.Cores, n.PeakGFLOPS, n.MemBandwidth)
	}
	fmt.Print(nodes)
	tracked := false
	for _, a := range st.Apps {
		tracked = tracked || a.Tracker != nil
	}
	cols := []string{"id", "name", "AI", "placement", "priority", "moved", "ttl (ms)", "idle (ms)", "beats"}
	if tracked {
		cols = append(cols, "state", "fitted AI", "conf", "rel err %", "windows", "resolves", "applied AI")
	}
	apps := metrics.NewTable("registered applications", cols...)
	for _, a := range st.Apps {
		class := a.Priority
		if class == "" {
			class = ctrlplane.PriorityBatch
		}
		row := []any{a.ID, a.Name, a.AI, a.Placement, class, a.MovedRound, a.TTLMillis, a.IdleMillis, a.Beats}
		if tracked {
			row = append(row, trackerCells(a)...)
		}
		apps.AddRow(row...)
	}
	fmt.Print(apps)
	fmt.Printf("total: %s GFLOPS\n", metrics.FormatFloat(st.TotalGFLOPS))
	return nil
}

// trackerCells renders an app's adaptive-loop columns; an app with a
// fit applied but no tracker (inherited across a failover) shows only
// the applied AI.
func trackerCells(a ctrlplane.AppView) []any {
	applied := ""
	if a.Drifted {
		applied = metrics.FormatFloat(a.FittedAI)
	}
	t := a.Tracker
	if t == nil {
		return []any{"", "", "", "", "", "", applied}
	}
	return []any{t.State, metrics.FormatFloat(t.FittedAI), fmt.Sprintf("%.2f", t.Confidence),
		fmt.Sprintf("%.1f", t.RelErr*100), t.Windows, t.Resolves, applied}
}

func cmdAlloc(ctx context.Context, c *client.Client) error {
	resp, err := c.Allocations(ctx)
	if err != nil {
		return err
	}
	printAlloc(resp)
	return nil
}

func printAlloc(resp *ctrlplane.AllocationsResponse) {
	t := metrics.NewTable(
		fmt.Sprintf("%s, policy %s, generation %d", resp.Machine, resp.Policy, resp.Generation),
		"id", "name", "per-node threads", "total", "predicted GFLOPS")
	for _, a := range resp.Apps {
		t.AddRow(a.ID, a.Name, fmt.Sprint(a.PerNode), a.Threads, a.PredictedGFLOPS)
	}
	fmt.Print(t)
	fmt.Printf("total: %s GFLOPS", metrics.FormatFloat(resp.TotalGFLOPS))
	if r := resp.Reference; r != nil {
		fmt.Printf(" (references: even %s, node-per-app %s)",
			metrics.FormatFloat(r.EvenGFLOPS), metrics.FormatFloat(r.NodePerAppGFLOPS))
	}
	fmt.Printf(", cache hit: %v\n", resp.CacheHit)
}

func cmdWatch(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	interval := fs.Duration("interval", 500*time.Millisecond, "poll interval")
	fs.Parse(args)
	resp, err := c.Allocations(ctx)
	if err != nil {
		return err
	}
	printAlloc(resp)
	for {
		next, err := c.WaitForReallocation(ctx, resp.Generation, *interval)
		if err != nil {
			return err
		}
		fmt.Printf("\n-- reallocation: generation %d -> %d --\n", resp.Generation, next.Generation)
		printAlloc(next)
		resp = next
	}
}

func cmdDemo(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	keep := fs.Bool("keep", false, "leave the demo apps registered on exit")
	fs.Parse(args)

	fmt.Println("registering the paper's Table I mix: 3x memory-bound (AI 0.5) + 1x compute-bound (AI 10)")
	reqs := []ctrlplane.RegisterRequest{
		{Name: "mem-bound-a", AI: 0.5},
		{Name: "mem-bound-b", AI: 0.5},
		{Name: "mem-bound-c", AI: 0.5},
		{Name: "comp-bound", AI: 10},
	}
	var ids []string
	for _, r := range reqs {
		resp, err := c.Register(ctx, r)
		if err != nil {
			return err
		}
		ids = append(ids, resp.ID)
	}
	if !*keep {
		defer func() {
			for _, id := range ids {
				c.Deregister(context.Background(), id)
			}
		}()
	}
	alloc, err := c.Allocations(ctx)
	if err != nil {
		return err
	}
	fmt.Println()
	printAlloc(alloc)

	fmt.Printf("\nderegistering %s to trigger reallocation...\n", ids[3])
	if err := c.Deregister(ctx, ids[3]); err != nil {
		return err
	}
	next, err := c.WaitForReallocation(ctx, alloc.Generation, 100*time.Millisecond)
	if err != nil {
		return err
	}
	printAlloc(next)
	ids = ids[:3]
	return nil
}

func cmdHealth(ctx context.Context, c *client.Client) error {
	h, err := c.Health(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("%s: machine %s, %d apps, generation %d, up %.1fs\n",
		h.Status, h.Machine, h.Apps, h.Generation, h.UptimeSeconds)
	return nil
}

// cmdStatus shows the replica's role, lease, fencing epoch, and
// replication lag, plus the solver cache counters and (under
// -recalibrate) the adaptive loop's counters from /metricsz. A
// standalone daemon 404s the replica endpoint; that is rendered, not
// errored. A follower whose replication lag exceeds -max-lag makes the
// command fail (exit nonzero), so scripts probing an endpoint learn its
// answers may be stale.
func cmdStatus(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	maxLag := fs.Duration("max-lag", 5*time.Second, "fail when a follower's replication lag exceeds this")
	fs.Parse(args)

	var stale error
	st, err := c.ReplicaStatus(ctx)
	switch {
	case client.IsNotFound(err):
		fmt.Println("standalone (not replicated)")
	case err != nil:
		return err
	default:
		fmt.Printf("%s %s (epoch %d, generation %d)\n", st.Role, st.Self, st.Epoch, st.Generation)
		if st.Leader != "" {
			fmt.Printf("  leader: %s\n", st.Leader)
		}
		fmt.Printf("  lease remaining: %dms\n", st.LeaseRemainingMillis)
		fmt.Printf("  applied seq: %d", st.AppliedSeq)
		if st.Role == "follower" {
			fmt.Printf(", replication lag: %dms", st.LagMillis)
		}
		fmt.Println()
		if st.Promotions > 0 {
			fmt.Printf("  promotions: %d\n", st.Promotions)
		}
		if len(st.Peers) > 0 {
			fmt.Printf("  peers: %v\n", st.Peers)
		}
		if st.Role == "follower" && st.LagMillis > maxLag.Milliseconds() {
			stale = fmt.Errorf("follower replication lag %dms exceeds -max-lag %s", st.LagMillis, maxLag)
		}
	}

	mt, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	printSolveCache(mt.Solver)
	fmt.Printf("  served table: %d answers from it, %d solves installed it, %d heartbeats held theirs\n", mt.Table.Hits, mt.Table.Solves, mt.Table.Held)
	if a := mt.Adapt; a != nil {
		fmt.Printf("  adaptive loop: threshold %.0f%%, %d tracked, %d drifted, %d applied; confirmed %d, cleared %d, refits %d, phase changes %d\n",
			a.Threshold*100, a.Tracked, a.Drifted, a.Applied, a.DriftsConfirmed, a.DriftsCleared, a.Refits, a.PhaseChanges)
	}
	return stale
}

// printSolveCache renders the one solve cache's counters, which coopd
// (/metricsz "solver") and fleetd (/metricsz "solve_cache") both serve.
func printSolveCache(s solvecache.Counters) {
	total := s.Hits + s.Misses + s.Adopted
	hitRate := 0.0
	if total > 0 {
		hitRate = 100 * float64(s.Hits) / float64(total)
	}
	fmt.Printf("  solver cache: %d hits / %d misses (%.1f%% hit), %d coalesced, %d entries\n",
		s.Hits, s.Misses, hitRate, s.Coalesced, s.Entries)
	// Offered solves: fleetd ships them, so only a coopd has any.
	if s.Adopted+s.Stale+s.Invalid > 0 {
		fmt.Printf("  offered solves: %d adopted, %d refused as stale, %d as invalid\n", s.Adopted, s.Stale, s.Invalid)
	}
}

// --- fleet subcommands (talk to fleetd, not coopd) ---

// cmdFleet dispatches `coopctl fleet <subcommand>`. Each
// subcommand takes its own -fleet flag because the fleet daemon is a
// different process from the coopd the global -server points at.
func cmdFleet(ctx context.Context, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("fleet: want a subcommand: %s", fleetSubcommands)
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "machines":
		return cmdFleetMachines(ctx, rest)
	case "status":
		return cmdFleetStatus(ctx, rest)
	case "place":
		return cmdFleetPlace(ctx, rest)
	case "drain":
		return cmdFleetDrain(ctx, rest)
	case "plan":
		return cmdFleetPlan(ctx, rest)
	case "upgrade":
		return cmdFleetUpgrade(ctx, rest)
	default:
		return fmt.Errorf("fleet: unknown subcommand %q (want %s)", sub, fleetSubcommands)
	}
}

const fleetSubcommands = "machines | status | place | drain | plan | upgrade"

// fleetNotFound rewords fleetd's 404 — the request named a machine the
// fleet does not track — the way cmdHeartbeat rewords coopd's.
func fleetNotFound(err error, machines string) error {
	if client.IsNotFound(err) {
		return fmt.Errorf("%s not found: fleetd tracks no such machine (see `coopctl fleet machines`)", machines)
	}
	return err
}

func fleetFlags(fs *flag.FlagSet) *string {
	return fs.String("fleet", "http://127.0.0.1:8380", "fleetd base URL")
}

func cmdFleetMachines(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fleet machines", flag.ExitOnError)
	server := fleetFlags(fs)
	fs.Parse(args)
	resp, err := fleet.NewClient(*server, nil).Machines(ctx)
	if err != nil {
		return err
	}
	t := metrics.NewTable(fmt.Sprintf("fleet machines (aggregate %s GFLOPS)", metrics.FormatFloat(resp.FleetGFLOPS)),
		"id", "status", "machine", "apps", "numa-bad", "GFLOPS", "seen (ms)", "endpoints")
	for _, m := range resp.Machines {
		status := m.Status
		if m.Draining {
			status += "+draining"
		}
		t.AddRow(m.ID, status, m.Machine, len(m.Apps), m.NUMABadApps,
			metrics.FormatFloat(m.TotalGFLOPS), m.SinceSeenMillis, strings.Join(m.Endpoints, ","))
	}
	fmt.Print(t)
	return nil
}

// cmdFleetStatus prints fleetd's /metricsz: how hard the Scorer's solve
// cache worked, how the member polls, the planning candidates, the
// decisions and the imbalance re-packs went and what every endpoint
// served.
func cmdFleetStatus(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fleet status", flag.ExitOnError)
	server := fleetFlags(fs)
	fs.Parse(args)
	m, err := fleet.NewClient(*server, nil).Metrics(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("fleetd up %.1fs\n", m.UptimeSeconds)
	printSolveCache(m.SolveCache)
	fmt.Printf("  member polls: %d unchanged / %d full / %d failed (%d registers kept the copy exact, %d stale replica answers fenced)\n", m.Polls.Unchanged, m.Polls.Full, m.Polls.Failed, m.Polls.Acked, m.Polls.Fenced)
	fmt.Printf("  planning candidates: %d reused / %d rebuilt (%d snapshot rows copied)\n", m.Candidates.Reused, m.Candidates.Rebuilt, m.Candidates.RowsCopied)
	fmt.Printf("  decisions: %d, scoring %d class marginals (%d pruned by the ceiling, %d solved below the bar)\n",
		m.Decisions.Count, m.Decisions.Classes, m.Decisions.Ceiling, m.Decisions.BelowBar)
	fmt.Printf("  imbalance re-packs: %d reused / %d computed\n", m.Repacks.Reused, m.Repacks.Computed)
	names := make([]string, 0, len(m.Endpoints))
	for name := range m.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	t := metrics.NewTable("endpoints", "name", "count", "errors", "p50 (ms)", "p95 (ms)", "max (ms)")
	for _, name := range names {
		ep := m.Endpoints[name]
		t.AddRow(name, ep.Count, ep.Errors, metrics.FormatFloat(ep.P50Ms), metrics.FormatFloat(ep.P95Ms), metrics.FormatFloat(ep.MaxMs))
	}
	fmt.Print(t)
	return nil
}

func cmdFleetPlace(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fleet place", flag.ExitOnError)
	server := fleetFlags(fs)
	name := fs.String("name", "app", "application name")
	ai := fs.Float64("ai", 1, "arithmetic intensity (FLOP/byte)")
	placement := fs.String("placement", "", "numa-perfect (default) or numa-bad")
	home := fs.Int("home", 0, "home node for numa-bad placement")
	max := fs.Int("max", 0, "max threads (0: uncapped)")
	ttl := fs.Duration("ttl", 0, "heartbeat deadline on the chosen machine (0: its default)")
	priority := fs.String("priority", "", "scheduling class: system, latency, or batch (default)")
	gang := fs.String("gang", "", "place an all-or-nothing gang under this name instead of a single app")
	policy := fs.String("policy", "", "gang policy: pack, spread (default), or strict-spread")
	replicas := fs.Int("replicas", 2, "gang member count (with -gang)")
	fs.Parse(args)
	spec := fleet.AppSpec{
		Name: *name, AI: *ai, Placement: *placement, HomeNode: *home,
		MaxThreads: *max, TTLMillis: ttl.Milliseconds(), Priority: *priority,
	}
	cli := fleet.NewClient(*server, nil)
	if *gang != "" {
		res, err := cli.PlaceGang(ctx, fleet.GangSpec{
			Name: *gang, Replicas: *replicas, Policy: *policy, App: spec,
		})
		if err != nil {
			return err
		}
		for _, mv := range res.Preempted {
			fmt.Printf("preempted %s (%s): %s -> %s\n", mv.AppID, mv.App.Name, mv.From, mv.To)
		}
		for _, gp := range res.Placements {
			fmt.Printf("placed %s on %s (marginal %+.1f GFLOPS)\n", gp.App.ID, gp.Member, gp.Score)
		}
		fmt.Printf("gang %s admitted: %d members, policy %s\n", res.Name, len(res.Placements), res.Policy)
		return nil
	}
	if *policy != "" {
		return fmt.Errorf("fleet place: -policy needs -gang")
	}
	resp, err := cli.Place(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Printf("placed %s on %s (marginal %+.1f GFLOPS, machine now %s)\n",
		resp.ID, resp.Machine, resp.Score, metrics.FormatFloat(resp.After))
	fmt.Printf("heartbeat against: %s\n", strings.Join(resp.Endpoints, " | "))
	return nil
}

func cmdFleetDrain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fleet drain", flag.ExitOnError)
	server := fleetFlags(fs)
	machineID := fs.String("machine", "", "member machine id")
	undo := fs.Bool("undo", false, "re-enable placements instead of draining")
	fs.Parse(args)
	if *machineID == "" {
		return fmt.Errorf("fleet drain: -machine is required")
	}
	resp, err := fleet.NewClient(*server, nil).Drain(ctx, *machineID, *undo)
	if err != nil {
		return fleetNotFound(err, *machineID)
	}
	fmt.Printf("%s draining=%v (rebalancer will move its apps off over the next rounds)\n", resp.Machine, resp.Draining)
	return nil
}

// cmdFleetUpgrade drives the rolling-upgrade controller: start a serial
// drain over the fleet (default), abort a running one, or report
// status. The controller lives in fleetd; this command only submits the
// request and prints the controller's view.
func cmdFleetUpgrade(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fleet upgrade", flag.ExitOnError)
	server := fleetFlags(fs)
	machines := fs.String("machines", "", "comma-separated drain order (empty: every member in id order)")
	floor := fs.Float64("floor", 0, "abort when the placeable fleet fraction falls below this (0: default 0.5)")
	abort := fs.Bool("abort", false, "abort the running upgrade")
	status := fs.Bool("status", false, "report controller status without changing it")
	fs.Parse(args)
	cli := fleet.NewClient(*server, nil)
	var st *fleet.UpgradeStatus
	var err error
	switch {
	case *status:
		st, err = cli.UpgradeStatus(ctx)
	case *abort:
		st, err = cli.Upgrade(ctx, fleet.UpgradeRequest{Action: "abort"})
	default:
		var list []string
		for _, id := range strings.Split(*machines, ",") {
			if id = strings.TrimSpace(id); id != "" {
				list = append(list, id)
			}
		}
		st, err = cli.Upgrade(ctx, fleet.UpgradeRequest{Action: "start", Machines: list, HealthFloor: *floor})
	}
	if err != nil {
		return fleetNotFound(err, *machines)
	}
	fmt.Printf("upgrade %s (health floor %.2f)\n", st.State, st.HealthFloor)
	if st.Current != "" {
		fmt.Printf("  draining: %s\n", st.Current)
	}
	if len(st.Done) > 0 {
		fmt.Printf("  done:  %s\n", strings.Join(st.Done, ", "))
	}
	if len(st.Queue) > 0 {
		fmt.Printf("  queue: %s\n", strings.Join(st.Queue, ", "))
	}
	if st.Reason != "" {
		fmt.Printf("  reason: %s\n", st.Reason)
	}
	return nil
}

func cmdFleetPlan(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fleet plan", flag.ExitOnError)
	server := fleetFlags(fs)
	fs.Parse(args)
	plan, err := fleet.NewClient(*server, nil).Plan(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("fleet %s GFLOPS now, %s re-packed",
		metrics.FormatFloat(plan.CurrentGFLOPS), metrics.FormatFloat(plan.RepackGFLOPS))
	if len(plan.Moves) == 0 {
		fmt.Println("; no moves planned")
	} else {
		fmt.Println()
		t := metrics.NewTable(fmt.Sprintf("planned moves (%d deferred to later rounds)", plan.Deferred),
			"app", "from", "to", "reason", "score")
		for _, mv := range plan.Moves {
			t.AddRow(mv.AppID, mv.From, mv.To, mv.Reason, metrics.FormatFloat(mv.Score))
		}
		fmt.Print(t)
	}
	fmt.Printf("move budget: %d of %d spent this round", plan.BudgetSpent, plan.Budget)
	if plan.Deferred > 0 {
		fmt.Printf(" (%d deferred)", plan.Deferred)
	}
	fmt.Println()
	if len(plan.Cooldowns) > 0 {
		names := make([]string, 0, len(plan.Cooldowns))
		for name := range plan.Cooldowns {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println("anti-thrash cooldowns (rounds until movable again):")
		for _, name := range names {
			fmt.Printf("  %s: %d\n", name, plan.Cooldowns[name])
		}
	}
	for _, sd := range plan.StaleDeregs {
		fmt.Printf("stale duplicate to clean: %s on revived %s\n", sd.AppID, sd.Member)
	}
	return nil
}
