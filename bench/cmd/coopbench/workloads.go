package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/roofline"
)

// check counts what the benchmark attempted and what failed: every
// client-visible operation it issued and every output check it made.
type check struct {
	attempted int
	failed    int
	errs      []string // the first few failures, for the report
}

// ok records one check; it reports cond so callers can stop early.
func (c *check) ok(cond bool, format string, args ...any) bool {
	c.attempted++
	if !cond {
		c.failed++
		if len(c.errs) < 8 {
			c.errs = append(c.errs, fmt.Sprintf(format, args...))
		}
	}
	return cond
}

// op records one operation's outcome.
func (c *check) op(err error, what string) bool {
	return c.ok(err == nil, "%s: %v", what, err)
}

// lapRec is what one lap hands back to the run loop.
type lapRec struct {
	*check
	opNs []int64 // latency of each primary op, in lap order
	sig  uint64  // FNV-1a over the lap's decisions
	// rounds, moves and deferred are rack_loss's exact per-lap counts.
	rounds, moves, deferred int
	// obs, when set (harvest lap only), is called before each primary
	// op with the app specs about to be decided, and once more with none
	// at the end of the lap.
	obs func(specs []fleet.AppSpec)
	// pause, when set (measured laps only), stops the lap's clock and
	// runs calibration blocks. Laps call it between two ops, a few times
	// a lap, so the lap's cu samples the machine's speed inside the lap.
	pause func()
}

// pauseEvery pauses before op i when i is a positive multiple of every.
func (r *lapRec) pauseEvery(i, every int) {
	if r.pause != nil && i > 0 && i%every == 0 {
		r.pause()
	}
}

// newLapRec returns a record for a lap outside the run loop (warm-up,
// harvest): no pauses, checks counted in c.
func newLapRec(c *check) *lapRec {
	r := &lapRec{check: c}
	r.begin()
	return r
}

func (r *lapRec) begin() {
	r.opNs = r.opNs[:0]
	r.sig = 0xcbf29ce484222325
	r.rounds, r.moves, r.deferred = 0, 0, 0
}

func (r *lapRec) mix(v uint64) {
	for i := 0; i < 8; i++ {
		r.sig = (r.sig ^ (v & 0xff)) * 0x100000001b3
		v >>= 8
	}
}

func (r *lapRec) mixString(s string) {
	for i := 0; i < len(s); i++ {
		r.sig = (r.sig ^ uint64(s[i])) * 0x100000001b3
	}
}

// epoch is one freshly built world and the laps replayed on it.
type epoch interface {
	// lap runs the timed ops of one lap.
	lap(rec *lapRec)
	// reset, untimed, checks the lap's outputs and — unless this was the
	// epoch's last lap — returns the world to its lap-start state.
	reset(rec *lapRec, last bool)
	// finish checks the final state and returns its modelled aggregate.
	finish(c *check) float64
	// coopds lists the member control planes that are up.
	coopds() []*coopd
	// fleetWorld is nil for a workload without a fleetd.
	fleetWorld() *fleetWorld
	// specs lists the apps the laps decide on (none without a fleetd).
	specs() []fleet.AppSpec
}

// workload is one named set of inputs.
type workload struct {
	name         string
	primary      string // what one primary op is
	lapsPerEpoch int
	// setup builds a world, loads it and warms it up.
	setup func(e *env, c *check) (epoch, error)
}

var ctx = context.Background()

// workloadNames is the order BENCHMARK.json lists them in.
var workloadNames = []string{"alloc_steady", "place_uniform", "place_diverse", "rack_loss"}

// newWorkload generates the named workload's inputs from the seed. The
// seed permutes only what is interchangeable — which replica of a type
// arrives in a slot, which app sends a heartbeat, which member ID has
// which topology — so runs at different seeds do the same work and take
// isomorphic decisions. Permuting the order of *types* is deliberately
// left out: on this program it moves op_mean_cu of place_diverse fivefold
// and fleet_gflops of place_uniform by 2 % (bench/README.md, "Why the
// seed is weak"), more than any change the benchmark is meant to gate.
// toy selects the smoke-test sizes.
func newWorkload(name string, seed int64, toy bool) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "alloc_steady":
		return allocSteady(rng, toy), nil
	case "place_uniform":
		return placeUniform(rng, toy), nil
	case "place_diverse":
		return placeDiverse(rng, toy), nil
	case "rack_loss":
		return rackLoss(rng, toy), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// ---- the paper's mixes ------------------------------------------------

// tableIMix is the 4-app demand mix of the paper's Table I; coopd
// serves it 254 GFLOPS on machine.PaperModel.
func tableIMix() []ctrlplane.RegisterRequest {
	return []ctrlplane.RegisterRequest{
		{Name: "mem-a", AI: 0.5}, {Name: "mem-b", AI: 0.5}, {Name: "mem-c", AI: 0.5},
		{Name: "comp", AI: 10},
	}
}

// tableIIIMix is the 4-app mix of Table III (three AI 1/32 streams and
// one AI 1 kernel); coopd serves it 23.20 GFLOPS on machine.SkylakeQuad.
func tableIIIMix() []ctrlplane.RegisterRequest {
	return []ctrlplane.RegisterRequest{
		{Name: "stream", AI: 1.0 / 32}, {Name: "stream", AI: 1.0 / 32}, {Name: "stream", AI: 1.0 / 32},
		{Name: "kernel", AI: 1},
	}
}

// paperCheck registers the two mixes on fresh coopds through the typed
// client and checks the served totals against the paper's numbers.
func paperCheck(e *env, c *check) {
	for _, tc := range []struct {
		topo *machine.Machine
		mix  []ctrlplane.RegisterRequest
		want float64
		tol  float64
	}{
		{machine.PaperModel(), tableIMix(), 254, 1e-6},
		{machine.SkylakeQuad(), tableIIIMix(), 23.20, 0.005},
	} {
		clear(e.net.hosts)
		d, err := e.addCoopd("paper", "", tc.topo)
		if !c.op(err, "paper check coopd") {
			continue
		}
		for _, req := range tc.mix {
			_, err := d.cli.Register(ctx, req)
			c.op(err, "paper check register")
		}
		resp, err := d.cli.Allocations(ctx)
		if c.op(err, "paper check allocations") {
			c.ok(math.Abs(resp.TotalGFLOPS-tc.want) <= tc.tol,
				"%s serves %.4f GFLOPS, the paper says %.2f", tc.topo.Name, resp.TotalGFLOPS, tc.want)
		}
	}
	clear(e.net.hosts)
}

// checkFeasible checks one coopd's served table: every app has at least
// one thread on every node whenever the floors fit, and no node is
// over-subscribed. It returns the served total.
func checkFeasible(c *check, d *coopd) float64 {
	resp, err := d.srv.Allocations()
	if !c.op(err, d.id+" allocations") {
		return 0
	}
	floors := len(resp.Apps) <= fleet.FloorCapacity(d.topo)
	used := make([]int, d.topo.NumNodes())
	good := true
	for _, a := range resp.Apps {
		good = good && len(a.PerNode) == len(used)
		for j, n := range a.PerNode {
			if j < len(used) {
				used[j] += n
			}
			good = good && n >= 0 && (!floors || n >= 1)
		}
	}
	for j, n := range used {
		good = good && n <= d.topo.Nodes[j].Cores
	}
	c.ok(good, "%s serves an infeasible allocation: %+v", d.id, resp.Apps)
	return resp.TotalGFLOPS
}

// ---- alloc_steady -----------------------------------------------------

const allocOp = 0xff // marks an Allocations request in the op sequence

type allocEpoch struct {
	e     *env
	d     *coopd
	ids   []string
	seq   []uint8
	want  float64 // direct roofline.Search solve of the same demand
	nodes int
}

// allocSteady is the application-runtime view: eight registered apps
// heartbeat a single coopd whose solver cache already holds their
// demand set, and every sixteenth request reads the whole table.
func allocSteady(rng *rand.Rand, toy bool) *workload {
	ops, laps := 4000, 10
	if toy {
		ops, laps = 64, 2
	}
	// The eight register in a fixed order of types (the order decides
	// which intermediate demand sets the coopd solves and keeps); the
	// seed numbers the replicas and, below, orders the heartbeats.
	mix := append(tableIIIMix(), tableIIIMix()...)
	for i, tag := range rng.Perm(len(mix)) {
		mix[i].Name = fmt.Sprintf("%s-%03d", mix[i].Name, tag)
	}
	seq := make([]uint8, 0, ops)
	beat := 0
	for i := 0; i < ops; i++ {
		if i%16 == 15 {
			seq = append(seq, allocOp)
			continue
		}
		seq = append(seq, uint8(beat%len(mix)))
		beat++
	}
	// Permute which app sends each heartbeat; the Allocations slots stay.
	rng.Shuffle(len(seq), func(a, b int) {
		if seq[a] != allocOp && seq[b] != allocOp {
			seq[a], seq[b] = seq[b], seq[a]
		}
	})
	topo := machine.SkylakeQuad()
	apps := make([]roofline.App, len(mix))
	for i, r := range mix {
		apps[i] = roofline.App{Name: r.Name, AI: r.AI}
	}
	_, _, direct, err := (&roofline.Search{}).BestPerNodeCountsFloorSpec(roofline.ObjTotalGFLOPS, nil, topo, apps, 1)
	return &workload{
		name: "alloc_steady", primary: "heartbeat", lapsPerEpoch: laps,
		setup: func(e *env, c *check) (epoch, error) {
			if err != nil {
				return nil, fmt.Errorf("direct solve of the demand: %w", err)
			}
			clear(e.net.hosts)
			d, err := e.addCoopd("coopd", "", topo)
			if err != nil {
				return nil, err
			}
			ep := &allocEpoch{e: e, d: d, seq: seq, want: direct.TotalGFLOPS, nodes: topo.NumNodes()}
			for _, req := range mix {
				resp, err := d.cli.Register(ctx, req)
				if !c.op(err, "register "+req.Name) {
					return nil, err
				}
				ep.ids = append(ep.ids, resp.ID)
			}
			// One untimed lap fills the solver cache and the pools.
			ep.lap(newLapRec(c))
			return ep, nil
		},
	}
}

func (ep *allocEpoch) lap(rec *lapRec) {
	tr, cli := ep.e.tr, ep.d.cli
	if rec.obs != nil {
		rec.obs(nil)
	}
	for i, a := range ep.seq {
		rec.pauseEvery(i, len(ep.seq)/5)
		if a == allocOp {
			tr.begin(spCtrlClient)
			resp, err := cli.Allocations(ctx)
			tr.end()
			if rec.op(err, "allocations") {
				rec.ok(resp.TotalGFLOPS == ep.want && len(resp.Apps) == len(ep.ids),
					"coopd serves %.6f GFLOPS to %d apps, a direct solve gives %.6f", resp.TotalGFLOPS, len(resp.Apps), ep.want)
				rec.mix(math.Float64bits(resp.TotalGFLOPS))
			}
			continue
		}
		req := ctrlplane.HeartbeatRequest{
			ID: ep.ids[a], TasksExecuted: uint64(i), Running: 4, Pending: 2, Workers: 8,
			GFlopRate: 1.5, GBRate: 48,
		}
		tr.op++
		t0 := time.Now()
		tr.begin(spCtrlClient)
		resp, err := cli.Heartbeat(ctx, req)
		tr.end()
		rec.opNs = append(rec.opNs, int64(time.Since(t0)))
		if !rec.op(err, "heartbeat") {
			continue
		}
		al := resp.Allocation
		good := al != nil && len(al.PerNode) == ep.nodes
		if good {
			rec.mix(uint64(a))
			for _, n := range al.PerNode {
				good = good && n >= 1
				rec.mix(uint64(n))
			}
		}
		rec.ok(good, "heartbeat served %+v", al)
	}
}

func (ep *allocEpoch) reset(*lapRec, bool)     {}
func (ep *allocEpoch) finish(c *check) float64 { return checkFeasible(c, ep.d) }
func (ep *allocEpoch) coopds() []*coopd        { return []*coopd{ep.d} }
func (ep *allocEpoch) fleetWorld() *fleetWorld { return nil }
func (ep *allocEpoch) specs() []fleet.AppSpec  { return nil }

// ---- app vocabularies -------------------------------------------------

// vocabApps builds n apps from the paper's Table I vocabulary in a
// fixed arrival pattern: of every eight, four memory-bound (AI 0.5), two
// compute-bound (AI 10), one in between (AI 2) and one NUMA-bad (AI 0.5,
// all data on one node). Names carry the type, so replicas of a type
// form one cooperating group for the domain-spread tie-break; the seed
// decides which replica number arrives in which slot. Names have a fixed
// width so every seed sends the same number of bytes.
func vocabApps(n int, rng *rand.Rand) []fleet.AppSpec {
	tag := rng.Perm(n)
	apps := make([]fleet.AppSpec, n)
	for i := range apps {
		switch {
		case i%8 < 4:
			apps[i] = fleet.AppSpec{Name: fmt.Sprintf("mem-%03d", tag[i]), AI: 0.5}
		case i%8 < 6:
			apps[i] = fleet.AppSpec{Name: fmt.Sprintf("comp-%03d", tag[i]), AI: 10}
		case i%8 == 6:
			apps[i] = fleet.AppSpec{Name: fmt.Sprintf("mid-%03d", tag[i]), AI: 2}
		default:
			apps[i] = fleet.AppSpec{
				Name: fmt.Sprintf("bad-%03d", tag[i]), AI: 0.5,
				Placement: ctrlplane.PlacementBad, HomeNode: (i / 8) % 4,
			}
		}
	}
	return apps
}

// diverseApps builds n apps that share next to nothing: AI log-uniform
// in [1/32, 16], 15 % NUMA-bad, 15 % latency and 5 % system priority.
// The profiles come from a generator the workload seeds itself. -seed
// only draws each app's heartbeat TTL, a field no decision reads: any
// other input moves the work — even the replica numbers do, because
// names order the IDs and the IDs order the apps inside the
// branch-and-bound.
func diverseApps(n int, rng *rand.Rand) []fleet.AppSpec {
	fixed := rand.New(rand.NewSource(20200518))
	apps := make([]fleet.AppSpec, n)
	for i := range apps {
		ai := math.Exp(math.Log(1.0/32) + fixed.Float64()*math.Log(16*32))
		apps[i] = fleet.AppSpec{Name: fmt.Sprintf("svc%d-%03d", i%6, i), AI: ai, TTLMillis: int64(600_000 + rng.Intn(100_000))}
	}
	for i := 0; i < n*15/100; i++ {
		apps[i].Placement, apps[i].HomeNode = ctrlplane.PlacementBad, i%2
	}
	for i := 0; i < n*15/100; i++ {
		apps[n-1-i].Priority = fleet.PriorityLatency
	}
	for i := 0; i < n*5/100; i++ {
		apps[n/2+i].Priority = fleet.PrioritySystem
	}
	return apps
}

// sampleSpecs returns up to n specs of distinct kind from apps.
func sampleSpecs(apps []fleet.AppSpec, n int) []fleet.AppSpec {
	var out []fleet.AppSpec
	seen := map[fleet.AppSpec]bool{}
	for _, a := range apps {
		kind := a
		kind.Name = ""
		if !seen[kind] && len(out) < n {
			seen[kind] = true
			out = append(out, a)
		}
	}
	return out
}

// fleetConfig is the fleetd every fleet workload runs.
func fleetConfig() fleet.ServerConfig {
	return fleet.ServerConfig{DomainSpread: true, MaxMovesPerRound: 8}
}

// rackMembers builds n members of one topology over the given number of
// failure domains r0, r1, ...
func rackMembers(n, domains int, topo func() *machine.Machine) []memberSpec {
	specs := make([]memberSpec, n)
	for i := range specs {
		specs[i] = memberSpec{id: fmt.Sprintf("m%02d", i), domain: fmt.Sprintf("r%d", i%domains), topo: topo()}
	}
	return specs
}

// ---- place_uniform and place_diverse ------------------------------------

type placement struct{ machine, id string }

type placeEpoch struct {
	w      *fleetWorld
	apps   []fleet.AppSpec
	placed []placement
}

// placeUniform is a large homogeneous fleet taking many apps of a few
// types: a handful of equivalence classes, so the Scorer's class cache
// and the members' solver caches hit and the cost is candidate
// construction, tie-breaks, two JSON hops and the member register. The
// members are machine.KNLSNC4 for the reason given at rackLoss: on
// machine.PaperModel this vocabulary piles two dozen apps on a few
// machines, and a cold solve of such a pile takes minutes.
func placeUniform(rng *rand.Rand, toy bool) *workload {
	members, domains, n, laps := 64, 4, 256, 15
	if toy {
		members, domains, n, laps = 8, 2, 16, 2
	}
	apps := vocabApps(n, rng)
	return &workload{
		name: "place_uniform", primary: "place", lapsPerEpoch: laps,
		setup: func(e *env, c *check) (epoch, error) {
			w, err := e.newFleetWorld(rackMembers(members, domains, machine.KNLSNC4), fleetConfig())
			if err != nil {
				return nil, err
			}
			ep := &placeEpoch{w: w, apps: apps}
			// One untimed lap warms the class cache and the member caches.
			warm := newLapRec(c)
			ep.lap(warm)
			ep.reset(warm, false)
			return ep, nil
		},
	}
}

// placeDiverse is a small fleet of five topologies taking apps that
// share next to nothing, into a fresh world every lap: nearly every
// class misses, so roofline.Search on the fleet and the member side
// does most of the work and the caches are only written.
func placeDiverse(rng *rand.Rand, toy bool) *workload {
	n := 33
	if toy {
		n = 8
	}
	topos := []func() *machine.Machine{
		machine.PaperModel, machine.SkylakeQuad, machine.KNLSNC4, machine.PaperModelNUMABad,
		func() *machine.Machine { return machine.Uniform("uniform-2x16", 2, 16, 5, 80, 20) },
	}
	members := make([]memberSpec, 10)
	for i := range members {
		members[i] = memberSpec{id: fmt.Sprintf("m%02d", i), domain: fmt.Sprintf("z%d", i/2), topo: topos[i%len(topos)]()}
	}
	apps := diverseApps(n, rng)
	return &workload{
		name: "place_diverse", primary: "place", lapsPerEpoch: 1,
		setup: func(e *env, c *check) (epoch, error) {
			w, err := e.newFleetWorld(members, fleetConfig())
			if err != nil {
				return nil, err
			}
			return &placeEpoch{w: w, apps: apps}, nil
		},
	}
}

func (ep *placeEpoch) lap(rec *lapRec) {
	tr, fc := ep.w.e.tr, ep.w.fc
	ep.placed = ep.placed[:0]
	for i := range ep.apps {
		spec := ep.apps[i]
		rec.pauseEvery(i, (len(ep.apps)+4)/5)
		if rec.obs != nil {
			rec.obs(ep.apps[i : i+1])
		}
		tr.op++
		t0 := time.Now()
		tr.begin(spFleetClient)
		resp, err := fc.Place(ctx, spec)
		tr.end()
		rec.opNs = append(rec.opNs, int64(time.Since(t0)))
		if !rec.op(err, "place "+spec.Name) {
			ep.placed = append(ep.placed, placement{})
			continue
		}
		ep.placed = append(ep.placed, placement{resp.Machine, resp.ID})
		rec.mixString(spec.Name)
		rec.mixString(resp.Machine)
		rec.mix(math.Float64bits(resp.Score))
	}
	if rec.obs != nil {
		rec.obs(nil)
	}
}

// liveOn maps every registered app name to the members hosting it.
func liveOn(members []*coopd) map[string][]string {
	live := map[string][]string{}
	for _, d := range members {
		apps, _ := d.srv.Registry().Snapshot()
		for _, a := range apps {
			live[a.Spec.Name] = append(live[a.Spec.Name], d.id)
		}
	}
	return live
}

func (ep *placeEpoch) reset(rec *lapRec, last bool) {
	live := liveOn(ep.w.members)
	for i, p := range ep.placed {
		on := live[ep.apps[i].Name]
		rec.ok(len(on) == 1 && on[0] == p.machine,
			"%s placed on %q is live on %v", ep.apps[i].Name, p.machine, on)
	}
	if last {
		return
	}
	tr := ep.w.e.tr
	for i, p := range ep.placed {
		if d := ep.w.byID[p.machine]; d != nil {
			tr.begin(spCtrlClient)
			err := d.cli.Deregister(ctx, p.id)
			tr.end()
			rec.op(err, "deregister "+ep.apps[i].Name)
		}
	}
	ep.w.poll()
}

func (ep *placeEpoch) finish(c *check) float64 {
	total := 0.0
	for _, d := range ep.w.members {
		total += checkFeasible(c, d)
	}
	return total
}

func (ep *placeEpoch) coopds() []*coopd        { return ep.w.members }
func (ep *placeEpoch) fleetWorld() *fleetWorld { return ep.w }
func (ep *placeEpoch) specs() []fleet.AppSpec  { return ep.apps }

// ---- rack_loss ----------------------------------------------------------

type rackEpoch struct {
	w        *fleetWorld
	apps     []fleet.AppSpec
	lost     []fleet.AppSpec // distinct specs of the apps on the killed rack
	nLost    int
	survived []*coopd
}

// maxRounds stops a recovery that does not converge.
const maxRounds = 64

// rackLoss is the operator's recovery view: a loaded fleet loses one
// failure domain and the Rebalancer runs rounds until two in a row plan
// no move. The primary op is the whole recovery, not a round: a
// recovery's rounds are of different kinds (a cold first round, four
// that move, a re-packing quiet one, an idle one), and the median over
// such a mix sat on the edge between two kinds and did not repeat. The
// rounds are reported per layer. Every member carries the paper's Table I mix, so the fleet
// is many identical replicas and a survivor ends up with five or six
// near-identical apps.
//
// The members are machine.KNLSNC4, not machine.PaperModel: on the
// bandwidth-starved paper machine the marginal-GFLOPS score makes the
// first survivor pushed past its floor capacity the free bin for every
// later evacuation, it ends with 30-odd apps, and a round's
// branch-and-bound then takes between 0.1 s and minutes depending on
// small details of the mix (bench/README.md, "rack_loss sizing"). On the
// KNL topology evacuations spread evenly and a lap is 0.2 s.
func rackLoss(rng *rand.Rand, toy bool) *workload {
	members, domains := 40, 4
	if toy {
		members = 8
	}
	mix := tableIMix()
	tag := rng.Perm(members * len(mix))
	apps := make([]fleet.AppSpec, len(tag))
	for i := range apps {
		r := mix[i%len(mix)]
		apps[i] = fleet.AppSpec{Name: fmt.Sprintf("%s-%03d", r.Name, tag[i]), AI: r.AI}
	}
	return &workload{
		name: "rack_loss", primary: "recovery", lapsPerEpoch: 1,
		setup: func(e *env, c *check) (epoch, error) {
			w, err := e.newFleetWorld(rackMembers(members, domains, machine.KNLSNC4), fleetConfig())
			if err != nil {
				return nil, err
			}
			ep := &rackEpoch{w: w, apps: apps}
			// The load is registered on each member directly and found by a
			// poll: a fill through the Placer would not leave every member
			// with the same mix.
			for i, spec := range apps {
				d := w.members[i/len(mix)]
				_, err := d.cli.Register(ctx, ctrlplane.RegisterRequest{Name: spec.Name, AI: spec.AI})
				if !c.op(err, "fill "+spec.Name) {
					return nil, err
				}
				if d.domain == "r0" {
					ep.nLost++
				}
			}
			ep.lost = sampleSpecs(apps, len(mix))
			w.poll()
			for _, d := range w.members {
				if d.domain != "r0" {
					ep.survived = append(ep.survived, d)
				}
			}
			return ep, nil
		},
	}
}

func (ep *rackEpoch) lap(rec *lapRec) {
	tr, reb := ep.w.e.tr, ep.w.srv.Rebalancer()
	ep.w.kill("r0")
	tr.op++
	var recovery time.Duration // the rounds' time; pauses between them excluded
	for quiet := 0; quiet < 2; {
		if rec.rounds == maxRounds {
			rec.ok(false, "recovery did not settle in %d rounds", maxRounds)
			break
		}
		rec.pauseEvery(rec.rounds, 1)
		if rec.obs != nil {
			rec.obs(ep.lost)
		}
		t0 := time.Now()
		tr.begin(spRound)
		plan, err := reb.Round(ctx)
		tr.end()
		recovery += time.Since(t0)
		rec.rounds++
		if !rec.op(err, "rebalance round") {
			break
		}
		if len(plan.Moves) == 0 {
			quiet++
		} else {
			quiet = 0
		}
		rec.moves += len(plan.Moves)
		rec.deferred += plan.Deferred
		rec.mix(uint64(len(plan.Moves)))
		for _, mv := range plan.Moves {
			rec.mixString(mv.App.Name)
			rec.mixString(mv.From)
			rec.mixString(mv.To)
			rec.mixString(mv.Reason)
		}
	}
	rec.opNs = append(rec.opNs, int64(recovery))
	if rec.obs != nil {
		rec.obs(nil)
	}
}

func (ep *rackEpoch) reset(rec *lapRec, _ bool) {
	live := liveOn(ep.survived)
	for _, spec := range ep.apps {
		on := live[spec.Name]
		rec.ok(len(on) == 1, "%s is live on %v after recovery", spec.Name, on)
	}
	// Rounds that planned a move: all but the two quiet ones at the end.
	bound := (ep.nLost+7)/8 + 1
	rec.ok(rec.rounds-2 <= bound, "recovery of %d apps took %d rounds with moves, bound %d", ep.nLost, rec.rounds-2, bound)
}

func (ep *rackEpoch) finish(c *check) float64 {
	total := 0.0
	for _, d := range ep.survived {
		total += checkFeasible(c, d)
	}
	return total
}

func (ep *rackEpoch) coopds() []*coopd        { return ep.survived }
func (ep *rackEpoch) fleetWorld() *fleetWorld { return ep.w }
func (ep *rackEpoch) specs() []fleet.AppSpec  { return ep.lost }
