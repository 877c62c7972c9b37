package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/roofline"
)

// demandSet is one (topology, demand) pair a lap handed to a solver.
type demandSet struct {
	topo *machine.Machine
	apps []roofline.App
}

// harvester collects the distinct demand sets of one lap. It sees what
// the members' registries hold before every primary op (the sets the
// member solvers were asked about) and, for an op that decides where an
// app goes, each member's set extended by that app (the sets the
// fleet's Scorer is asked about). It cannot see inside the Scorer, so
// sets a Rebalancer round builds by committing earlier moves of the
// same round are missed; the probes' share of a lap is a lower bound.
type harvester struct {
	sets []demandSet
	seen map[string]bool
}

func rooflineApp(s fleet.AppSpec) roofline.App {
	a := roofline.App{Name: s.Name, AI: s.AI}
	if s.Placement == ctrlplane.PlacementBad {
		a.Placement, a.HomeNode = roofline.NUMABad, machine.NodeID(s.HomeNode)
	}
	return a
}

func (h *harvester) add(topo *machine.Machine, apps []roofline.App) {
	if len(apps) == 0 {
		return
	}
	segs := make([]string, len(apps))
	for i, a := range apps {
		segs[i] = fmt.Sprintf("%x/%d/%d", math.Float64bits(a.AI), a.Placement, a.HomeNode)
	}
	sort.Strings(segs)
	key := fmt.Sprintf("%x|%s", ctrlplane.TopologyHash(topo), strings.Join(segs, ","))
	if h.seen[key] {
		return
	}
	h.seen[key] = true
	h.sets = append(h.sets, demandSet{topo, append([]roofline.App(nil), apps...)})
}

func (h *harvester) observe(members []*coopd, specs []fleet.AppSpec) {
	for _, d := range members {
		states, _ := d.srv.Registry().Snapshot()
		base := make([]roofline.App, len(states), len(states)+1)
		for i := range states {
			s := states[i].EffectiveSpec()
			base[i] = roofline.App{Name: s.Name, AI: s.AI, Placement: s.Placement, HomeNode: s.HomeNode}
		}
		h.add(d.topo, base)
		for _, s := range specs {
			if s.Placement == ctrlplane.PlacementBad && s.HomeNode >= d.topo.NumNodes() {
				continue // the Scorer skips a machine without that node
			}
			h.add(d.topo, append(base, rooflineApp(s)))
		}
	}
}

// timing sums one probe's samples.
type timing struct {
	ns float64
	n  int
	mx float64
}

func (t *timing) add(d time.Duration) {
	t.ns += float64(d)
	t.n++
	t.mx = max(t.mx, float64(d))
}

func (t *timing) mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.ns / float64(t.n)
}

// probes holds what the direct calls into each layer cost.
type probes struct {
	searchCold, evaluate, evaluatorHit  timing
	scorerMiss, scorerHit               timing
	solverMiss, solverHit, decide, poll timing
	pollRequests                        float64
	cuNs                                float64 // median cu over the probe phase
}

// since runs f and returns how long it took.
func since(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// probeSets calls each layer directly on every harvested demand set:
// a fresh (cold) roofline.Search, the reference Evaluate and a memoized
// Evaluator on the optimum, a fresh fleet Scorer and a fresh ctrlplane
// Solver, each once to miss and once more to hit.
func (p *probes) probeSets(r *runner, sets []demandSet) error {
	var cus []float64
	calBlock := func() {
		r.blockNs = r.blockNs[:0]
		r.blocks(3 * r.perStop)
		cus = append(cus, r.cu())
	}
	calBlock()
	for i, ds := range sets {
		if i%64 == 63 {
			calBlock()
		}
		var al roofline.Allocation
		var err error
		p.searchCold.add(since(func() {
			s := &roofline.Search{}
			_, al, _, err = s.BestPerNodeCountsFloorSpec(roofline.ObjTotalGFLOPS, nil, ds.topo, ds.apps, 1)
			if errors.Is(err, roofline.ErrNoAllocation) {
				_, al, _, err = s.BestPerNodeCountsFloorSpec(roofline.ObjTotalGFLOPS, nil, ds.topo, ds.apps, 0)
			}
		}))
		if err != nil {
			return fmt.Errorf("probe search on %s with %d apps: %w", ds.topo.Name, len(ds.apps), err)
		}
		p.evaluate.add(since(func() { _, err = roofline.Evaluate(ds.topo, ds.apps, al) }))
		if err != nil {
			return fmt.Errorf("probe evaluate: %w", err)
		}
		ev, err := roofline.NewEvaluator(ds.topo, ds.apps)
		if err != nil {
			return fmt.Errorf("probe evaluator: %w", err)
		}
		var res roofline.Result
		if err := ev.EvaluateInto(&res, al); err != nil {
			return fmt.Errorf("probe evaluator: %w", err)
		}
		p.evaluatorHit.add(since(func() { err = ev.EvaluateInto(&res, al) }))
		if err != nil {
			return fmt.Errorf("probe evaluator: %w", err)
		}

		sc := fleet.NewScorer()
		p.scorerMiss.add(since(func() { _, err = sc.SolveTotal(ds.topo, ds.apps) }))
		if err != nil {
			return fmt.Errorf("probe scorer: %w", err)
		}
		p.scorerHit.add(since(func() { _, err = sc.SolveTotal(ds.topo, ds.apps) }))
		if err != nil {
			return fmt.Errorf("probe scorer: %w", err)
		}

		sv, err := ctrlplane.NewSolver(ctrlplane.PolicyRoofline)
		if err != nil {
			return err
		}
		states := make([]ctrlplane.AppState, len(ds.apps))
		for j, a := range ds.apps {
			states[j] = ctrlplane.AppState{
				ID:   fmt.Sprintf("probe-%d", j),
				Spec: ctrlplane.AppSpec{Name: a.Name, AI: a.AI, Placement: a.Placement, HomeNode: a.HomeNode},
			}
		}
		p.solverMiss.add(since(func() { _, err = sv.Solve(ds.topo, states) }))
		if err != nil {
			return fmt.Errorf("probe solver: %w", err)
		}
		p.solverHit.add(since(func() { _, err = sv.Solve(ds.topo, states) }))
		if err != nil {
			return fmt.Errorf("probe solver: %w", err)
		}
	}
	calBlock()
	p.cuNs = median(cus)
	return nil
}

// probeFleet times Placer.Decide and Inventory.Poll on a loaded world.
func (p *probes) probeFleet(w *fleetWorld, specs []fleet.AppSpec) error {
	for _, spec := range specs {
		var err error
		p.decide.add(since(func() { _, err = w.srv.Placer().Decide(spec) }))
		if err != nil {
			return fmt.Errorf("probe decide %s: %w", spec.Name, err)
		}
	}
	const polls = 3
	calls0 := w.e.net.memberCalls()
	for i := 0; i < polls; i++ {
		p.poll.add(since(w.poll))
	}
	p.pollRequests = float64(w.e.net.memberCalls()-calls0) / polls
	return nil
}

// perLayer runs the harvest lap and the probes, then fills in every
// per-layer metric and prints the traced laps' self time per layer.
func (r *runner) perLayer(m map[string]metric, log io.Writer) error {
	ep, err := r.wl.setup(r.e, &r.check)
	if err != nil {
		return fmt.Errorf("harvest set-up: %w", err)
	}
	h := &harvester{seen: map[string]bool{}}
	rec := newLapRec(&r.check)
	rec.obs = func(specs []fleet.AppSpec) { h.observe(ep.coopds(), specs) }
	ep.lap(rec)
	r.ok(rec.sig == r.sig, "harvest lap took other decisions than the first lap")

	var p probes
	if err := p.probeSets(r, h.sets); err != nil {
		return err
	}
	if w := ep.fleetWorld(); w != nil {
		if err := p.probeFleet(w, sampleSpecs(ep.specs(), 8)); err != nil {
			return err
		}
	}

	cu := func(t timing) float64 { return t.mean() / p.cuNs }
	kind := func(k spanKind) *kindSeries { return &r.kinds[k] }
	ops := float64(max(r.solverOps, 1))
	hitRatio := func(hits, misses float64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}
	opsPerLap := float64(len(rec.opNs))
	plain, traced := median(r.plain.opMeanCu), median(r.traced.opMeanCu)
	// The share of the timed region spent in cold solves, estimated as
	// the misses the laps counted times what the probes measured a miss
	// to cost. It can exceed 1: the probes start every solve from nothing,
	// the program warm-starts and reuses evaluators.
	scorerMissesPerOp := median(r.scorerMisses) / opsPerLap
	solverMissesPerOp := float64(r.solverMisses) / ops
	coldShare := (scorerMissesPerOp*cu(p.scorerMiss) + solverMissesPerOp*cu(p.solverMiss)) / plain

	for name, v := range map[string]metric{
		"ctrlplane.heartbeat_cu":         {median(kind(spHeartbeat).durCu), "cu"},
		"ctrlplane.allocations_cu":       {median(kind(spAllocations).durCu), "cu"},
		"ctrlplane.register_cu":          {median(kind(spRegister).durCu), "cu"},
		"ctrlplane.deregister_cu":        {median(kind(spDeregister).durCu), "cu"},
		"ctrlplane.requests_per_op":      {median(r.requestsPerOp), "count"},
		"ctrlplane.heap_growth_b_per_op": {median(r.heapGrowthB), "B/op"},
		"ctrlplane.solver.hit_cu":        {cu(p.solverHit), "cu"},
		"ctrlplane.solver.miss_cu":       {cu(p.solverMiss), "cu"},
		"ctrlplane.solver.hit_ratio":     {hitRatio(float64(r.solverHits), float64(r.solverMisses)), "ratio"},
		"ctrlplane.solver.misses_per_op": {solverMissesPerOp, "count"},
		"ctrlplane.client.self_cu":       {median(kind(spCtrlClient).selfCu), "cu"},
		"fleet.client.self_cu":           {median(kind(spFleetClient).selfCu), "cu"},

		"roofline.search_cold_cu":       {cu(p.searchCold), "cu"},
		"roofline.search_max_cu":        {p.searchCold.mx / p.cuNs, "cu"},
		"roofline.search_calls":         {float64(p.searchCold.n), "count"},
		"roofline.cold_solve_share":     {coldShare, "ratio"},
		"roofline.evaluate_cu":          {cu(p.evaluate), "cu"},
		"roofline.evaluator_hit_cu":     {cu(p.evaluatorHit), "cu"},
		"fleet.scorer.hit_cu":           {cu(p.scorerHit), "cu"},
		"fleet.scorer.miss_cu":          {cu(p.scorerMiss), "cu"},
		"fleet.scorer.cache_hit_ratio":  {hitRatio(median(r.scorerHits), median(r.scorerMisses)), "ratio"},
		"fleet.scorer.misses_per_op":    {scorerMissesPerOp, "count"},
		"fleet.placer.decide_cu":        {cu(p.decide), "cu"},
		"fleet.server.place_self_cu":    {median(kind(spFleetPlace).selfCu), "cu"},
		"fleet.inventory.poll_cu":       {cu(p.poll), "cu"},
		"fleet.inventory.poll_requests": {p.pollRequests, "count"},

		"fleet.rebalancer.round_cu":               {median(kind(spRound).durCu), "cu"},
		"fleet.rebalancer.round_self_cu":          {median(kind(spRound).selfCu), "cu"},
		"fleet.rebalancer.member_calls_per_round": {median(r.callsPerRound), "count"},
		"fleet.rebalancer.rounds_to_recover":      {median(r.rounds), "count"},
		"fleet.rebalancer.moves_per_round":        {median(r.moves), "count"},
		"fleet.rebalancer.deferred_moves":         {median(r.deferred), "count"},

		"bench.cal_iter_us":         {median(r.cuUs), "us"},
		"bench.raw_ops_per_s":       {float64(r.plain.ops) / (float64(r.plain.lapNs) / 1e9), "1/s"},
		"bench.raw_op_p50_us":       {r.plain.opUs.quantile(0.5), "us"},
		"bench.raw_op_p99_us":       {r.plain.opUs.quantile(0.99), "us"},
		"bench.lap_cv":              {cv(r.plain.opMeanCu), "ratio"},
		"bench.trace_overhead_frac": {traced/plain - 1, "ratio"},
		"bench.samples":             {float64(len(r.traced.opMeanCu)), "count"},
	} {
		m[name] = v
	}

	fmt.Fprintf(log, "self time per layer, traced laps of %s (op_mean_cu %.2f untraced, %.2f traced):\n", r.wl.name, plain, traced)
	fmt.Fprintf(log, "  %-26s %12s %14s %10s\n", "span", "calls/op", "self cu/call", "lap share")
	for k := range r.kinds {
		ks := &r.kinds[k]
		if len(ks.selfCu) == 0 {
			continue
		}
		fmt.Fprintf(log, "  %-26s %12.3f %14.3f %9.1f%%\n",
			spanNames[k], median(ks.callsPerOp), median(ks.selfCu), 100*median(ks.selfShare))
	}
	fmt.Fprintf(log, "probes on %d harvested demand sets: %.2f scorer and %.2f solver misses per op, cold solves are an estimated %.0f%% of the timed region\n",
		len(h.sets), scorerMissesPerOp, solverMissesPerOp, 100*coldShare)
	return nil
}
