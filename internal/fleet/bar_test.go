package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/roofline"
)

// barTopologies are the base topologies of the bar differential's
// fleets.
var barTopologies = []func() *machine.Machine{
	machine.PaperModel, machine.SkylakeQuad, machine.KNLSNC4, machine.PaperModelNUMABad,
	func() *machine.Machine { return machine.Uniform("uniform-2x16", 2, 16, 5, 80, 20) },
}

// tieTwin returns a copy of m under another name — another class whose
// every marginal ties m's exactly — or, with nudge ≠ 0, with every
// node's bandwidth scaled by 1 − nudge × 2⁻³⁰: another class whose
// marginals lie a hair from m's, well inside scoreTieEps.
func tieTwin(m *machine.Machine, nudge int) *machine.Machine {
	twin := *m
	twin.Name = fmt.Sprintf("%s-twin%d", m.Name, nudge)
	twin.Nodes = append([]machine.Node(nil), m.Nodes...)
	for i := range twin.Nodes {
		twin.Nodes[i].MemBandwidth *= 1 - float64(nudge)*0x1p-30
	}
	return &twin
}

// barFleet is a seeded heterogeneous fleet for the bar differential:
// members on a few base topologies and their tie twins, over three
// failure domains, each running one of a few shared resident mixes drawn
// with the agree_test.go generator, so exact and near ties between
// classes are common.
func barFleet(r *rand.Rand, prioritized bool) []Member {
	bases := make([]*machine.Machine, 1+r.Intn(3))
	for i := range bases {
		bases[i] = barTopologies[r.Intn(len(barTopologies))]()
	}
	mixes := make([][]AppSpec, 3)
	for i := range mixes {
		mixes[i] = randomSpecs(r, machine.PaperModel(), r.Intn(4), prioritized)
		for j := range mixes[i] {
			if mixes[i][j].numaBad() {
				mixes[i][j].HomeNode %= 2 // a home every base topology has
			}
		}
	}
	members := make([]Member, 6+r.Intn(7))
	for i := range members {
		topo := bases[r.Intn(len(bases))]
		if k := r.Intn(3); k > 0 {
			topo = tieTwin(topo, r.Intn(2)*(r.Intn(17)-8))
		}
		m := Member{ID: fmt.Sprintf("m%02d", i), Domain: fmt.Sprintf("r%d", r.Intn(3)), Topology: topo}
		for j, spec := range mixes[r.Intn(len(mixes))] {
			spec.Name = fmt.Sprintf("%s-%d", []string{"web", "db", "etl"}[j%3], i)
			m.Apps = append(m.Apps, PlacedApp{ID: fmt.Sprintf("%s-%d", m.ID, j), AppSpec: spec})
		}
		members[i] = m
	}
	return members
}

// sameDecision compares two decisions field by field, the shipped solve
// included, with float fields compared in bits.
func sameDecision(a, b *Decision) bool {
	return a.Member == b.Member && math.Float64bits(a.Score) == math.Float64bits(b.Score) &&
		math.Float64bits(a.After) == math.Float64bits(b.After) && a.Starved == b.Starved &&
		reflect.DeepEqual(a.solved, b.solved)
}

// TestDecideBarMatchesBarless is the bar's differential: over seeded
// heterogeneous fleets with exact and near ties between classes, under
// every objective, with spread on and off, a sequence of decisions —
// each committed to the member it chose, so later ones meet the
// below-bar outcomes of earlier ones in the memo — is the same with the
// bar as without it: member, score and After bits, Starved and the
// shipped solve.
func TestDecideBarMatchesBarless(t *testing.T) {
	objectives := []roofline.ObjectiveSpec{nil, roofline.ObjWeightedPriority, roofline.ObjMaxMinGFLOPS}
	var ceiling, below uint64
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		objective := objectives[seed%3]
		members := barFleet(r, objective != nil)
		barred, barless := NewScorer(), NewScorer()
		barless.barless = true
		for _, sc := range []*Scorer{barred, barless} {
			sc.DomainSpread, sc.Objective = seed%2 == 0, objective
		}
		incoming := randomSpecs(r, machine.PaperModel(), 6, objective != nil)
		for i, spec := range incoming {
			spec.Name = fmt.Sprintf("%s-%d", []string{"web", "db", "etl"}[i%3], 100+i)
			if spec.numaBad() {
				spec.HomeNode %= 2
			}
			label := fmt.Sprintf("seed %d decision %d (%s)", seed, i, spec.Name)
			want, _, wantErr := barless.decide(spec, new(candidateSet).reset(members, true))
			got, _, err := barred.decide(spec, new(candidateSet).reset(members, true))
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: barred %v, barless %v", label, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !sameDecision(got, want) {
				t.Fatalf("%s: barred %+v (%+v), barless %+v (%+v)", label, *got, got.solved, *want, want.solved)
			}
			for j := range members {
				if members[j].ID == got.Member {
					members[j].Apps = append(members[j].Apps, PlacedApp{ID: fmt.Sprintf("in-%d", i), AppSpec: spec})
				}
			}
		}
		if d := barless.Decisions(); d.Ceiling != 0 || d.BelowBar != 0 {
			t.Fatalf("seed %d: the barless Scorer cut classes short: %+v", seed, d)
		}
		ceiling += barred.Decisions().Ceiling
		below += barred.Decisions().BelowBar
	}
	if ceiling == 0 || below == 0 {
		t.Errorf("the fleets never exercised the bar: %d ceiling prunes, %d below-bar solves", ceiling, below)
	}
	t.Logf("%d ceiling prunes, %d below-bar solves", ceiling, below)
}

// TestDecideBarKeepsNearTies pins the bar's slack on a fleet built for
// it. Each member runs one memory-bound app, and m2 is a bandwidth twin
// of m1 with a hair more bandwidth: a compute-bound app lifts either to
// its peak, so m2's marginal lies a hair below m1's, inside
// scoreTieEps, and under spread m2 wins the tie, as m1's domain already
// hosts a web app. The bar (best − 2 × scoreTieEps) must let m2's class
// through; a bar at the best score would cut it and hand the app to m1.
func TestDecideBarKeepsNearTies(t *testing.T) {
	base := machine.PaperModel()
	mem := func(id, name string) []PlacedApp { return []PlacedApp{{ID: id, AppSpec: AppSpec{Name: name, AI: 0.5}}} }
	members := []Member{
		{ID: "m1", Domain: "r1", Topology: base, Apps: mem("m1-1", "web-1")},
		{ID: "m2", Domain: "r2", Topology: tieTwin(base, -4), Apps: mem("m2-1", "db-1")},
	}
	spec := AppSpec{Name: "web-2", AI: 10}
	app := mustRoofline(t, spec)
	var scores [2]float64
	for i := range members {
		demand := []roofline.App{mustRoofline(t, members[i].Apps[0].AppSpec)}
		scores[i] = naiveSolveTotal(t, members[i].Topology, append(demand, app)) - naiveSolveTotal(t, members[i].Topology, demand)
	}
	if d := scores[0] - scores[1]; !(d > 0 && d < scoreTieEps) {
		t.Fatalf("fixture: marginals %v, want m2's a hair (0, %g) below m1's", scores, scoreTieEps)
	}
	for _, barless := range []bool{true, false} {
		sc := NewScorer()
		sc.DomainSpread, sc.barless = true, barless
		d, _, err := sc.decide(spec, new(candidateSet).reset(members, true))
		if err != nil {
			t.Fatal(err)
		}
		if d.Member != "m2" || d.Score != scores[1] {
			t.Errorf("barless=%v: chose %s at %v, want m2 at %v (the near tie, on the emptier domain)", barless, d.Member, d.Score, scores[1])
		}
	}
}

// TestBelowBarNeverServedAsTotal: a below-bar memo entry answers only
// a question asked with a bar at least as high as the one it was proven
// against. SolveTotal, a before-solve's question, and a lower bar both
// solve the key again and get what a cold Scorer computes, bit for bit,
// and the exact answer then replaces the entry.
func TestBelowBarNeverServedAsTotal(t *testing.T) {
	// Two NUMA-bad apps on one home node serialize on its bandwidth, far
	// below the ceiling (the whole machine's bandwidth at the best AI),
	// so a bar just above the optimum passes the root test and a search
	// proves it.
	m := machine.PaperModelNUMABad()
	demand := []roofline.App{
		{Name: "a", AI: 0.5, Placement: roofline.NUMABad}, {Name: "b", AI: 0.5, Placement: roofline.NUMABad},
		{Name: "c", AI: 0.25},
	}
	var s scoreScratch
	cold, err := NewScorer().solveDemand(m, demand, nil, nil, noBar, &s)
	if err != nil {
		t.Fatal(err)
	}
	bar := cold.total + 1 // above the optimum, below the ceiling: the search proves it
	for _, ask := range []struct {
		name string
		run  func(sc *Scorer) (solveOutcome, error)
	}{
		{"SolveTotal", func(sc *Scorer) (solveOutcome, error) {
			total, err := sc.SolveTotal(m, demand)
			return solveOutcome{total: total}, err
		}},
		{"a lower bar", func(sc *Scorer) (solveOutcome, error) {
			return sc.solveDemand(m, demand, nil, nil, cold.total-1, &s)
		}},
	} {
		sc := NewScorer()
		out, err := sc.solveDemand(m, demand, nil, nil, bar, &s)
		if err != nil || !out.below || out.total != bar {
			t.Fatalf("%s: solve against %v = %+v, %v; want below it", ask.name, bar, out, err)
		}
		if d := sc.Decisions(); d.BelowBar != 1 || d.Ceiling != 0 {
			t.Fatalf("%s: %+v, want one below-bar solve", ask.name, d)
		}
		// The entry answers the same or a higher bar from the memo.
		solves := sc.search.Stats().Solves
		for _, again := range []float64{bar, bar + 1} {
			if out, err := sc.solveDemand(m, demand, nil, nil, again, &s); err != nil || !out.below || out.total != bar {
				t.Fatalf("%s: bar %v after the entry = %+v, %v; want the entry", ask.name, again, out, err)
			}
		}
		if hits, _ := sc.CacheStats(); hits != 2 || sc.search.Stats().Solves != solves {
			t.Fatalf("%s: the entry did not answer higher bars from the memo (%d hits)", ask.name, hits)
		}
		got, err := ask.run(sc)
		if err != nil || got.below || got.total != cold.total {
			t.Fatalf("%s after a below-bar entry = %+v, %v; want the cold total %v", ask.name, got, err, cold.total)
		}
		// The exact answer replaced the entry: it now answers any bar.
		solves = sc.search.Stats().Solves
		out, err = sc.solveDemand(m, demand, nil, nil, bar, &s)
		if err != nil || out.below || out.total != cold.total || !reflect.DeepEqual(out.solved, cold.solved) || sc.search.Stats().Solves != solves {
			t.Errorf("%s: after the re-solve the memo answers %+v, %v; want the cold solve %+v from the memo", ask.name, out, err, cold)
		}
	}
}

// TestBelowBarKeepsBetterEntry: a solve against a bar whose outcome
// reaches the memo after a better one — an exact solve of the key, or a
// below-bar one proven against a lower bar, by a concurrent decision or
// plan — leaves the better entry in place, and a below outcome does
// replace one proven against a higher bar.
func TestBelowBarKeepsBetterEntry(t *testing.T) {
	m := machine.PaperModelNUMABad()
	demand := []roofline.App{
		{Name: "a", AI: 0.5, Placement: roofline.NUMABad}, {Name: "b", AI: 0.5, Placement: roofline.NUMABad},
		{Name: "c", AI: 0.25},
	}
	sc := NewScorer()
	var s scoreScratch
	exact, err := sc.solveDemand(m, demand, nil, nil, noBar, &s)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := sc.demandKey(&s.key, m, demand)
	sc.put(key, solveOutcome{total: exact.total + 1, below: true})
	if out, hit := sc.cache.Get(key, func(o solveOutcome) bool { return o.answers(noBar) }); !hit || !reflect.DeepEqual(out, exact) {
		t.Fatalf("after a late below-bar outcome the memo holds %+v (hit %v), want the exact %+v", out, hit, exact)
	}

	sc = NewScorer()
	key, _ = sc.demandKey(&s.key, m, demand)
	low, high := solveOutcome{total: exact.total + 1, below: true}, solveOutcome{total: exact.total + 2, below: true}
	for _, c := range []struct {
		name      string
		put, want solveOutcome
	}{
		{"first entry", high, high},
		{"a lower bar replaces a higher one", low, low},
		{"a higher bar keeps the lower one", high, low},
	} {
		sc.put(key, c.put)
		if out, hit := sc.cache.Get(key, func(solveOutcome) bool { return true }); !hit || out != c.want {
			t.Errorf("%s: memo holds %+v (hit %v), want %+v", c.name, out, hit, c.want)
		}
	}
}

// TestScorerCoalescesExactSolves: concurrent exact solves of one demand
// set on a cold Scorer — a placement and a /v1/fleet/plan both asking
// for a machine's total — run one search between them; the others join
// it or hit what it left.
func TestScorerCoalescesExactSolves(t *testing.T) {
	m := machine.SkylakeQuad()
	demand := make([]roofline.App, 8)
	for i := range demand {
		demand[i] = roofline.App{Name: fmt.Sprint(i), AI: 0.1 * float64(i+1)}
	}
	sc := NewScorer()
	const callers = 8
	start := make(chan struct{})
	totals := make([]float64, callers)
	var wg sync.WaitGroup
	for i := range totals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var err error
			if totals[i], err = sc.SolveTotal(m, demand); err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, total := range totals {
		if total != totals[0] {
			t.Fatalf("caller %d got %v, caller 0 %v", i, total, totals[0])
		}
	}
	if got := sc.cache.Counters(); got.Misses != 1 || got.Hits+got.Coalesced != callers-1 {
		t.Errorf("%d concurrent solves of one key: %+v, want 1 miss and the rest hits or coalesced", callers, got)
	}
}

// TestDecideBarRescoresAfterTieDrift: ties can lower the best score, so
// a class cut against one bar must be scored again when a later
// candidate of it meets a lower bar. Every member runs one
// memory-bound app on a bandwidth twin of one machine, so a
// compute-bound app's marginal falls a hair with each step of
// bandwidth. In ID order: a (the best, 3 web apps in its domain); c1
// (class C, more than 2 × scoreTieEps below a: cut); b and d, each
// inside scoreTieEps below the best before it and on a domain with fewer
// web apps, so each takes the tie and lowers the best; then c2, class C
// again, now inside scoreTieEps of d on a domain with none: it wins.
// Ballast members on a one-core machine only fill the domains' counts.
func TestDecideBarRescoresAfterTieDrift(t *testing.T) {
	base := machine.PaperModel()
	weak := machine.Uniform("weak", 1, 1, 1, 1, 0)
	member := func(id, domain string, topo *machine.Machine, app string) Member {
		return Member{ID: id, Domain: domain, Topology: topo, Apps: []PlacedApp{{ID: id + "-1", AppSpec: AppSpec{Name: app, AI: 0.5}}}}
	}
	classC := tieTwin(base, -40)
	members := []Member{
		member("m1-a", "da", base, "web-1"),
		member("m2-c1", "dc", classC, "db-1"),
		member("m3-b", "db", tieTwin(base, -14), "web-2"),
		member("m4-d", "dd", tieTwin(base, -28), "web-3"),
		member("m5-c2", "dc", classC, "db-2"),
		member("z1", "da", weak, "web-4"), member("z2", "da", weak, "web-5"), member("z3", "db", weak, "web-6"),
	}
	spec := AppSpec{Name: "web-9", AI: 10}
	app := mustRoofline(t, spec)
	score := func(m Member) float64 {
		demand := []roofline.App{mustRoofline(t, m.Apps[0].AppSpec)}
		return naiveSolveTotal(t, m.Topology, append(demand, app)) - naiveSolveTotal(t, m.Topology, demand)
	}
	a, c, b, d := score(members[0]), score(members[1]), score(members[2]), score(members[3])
	if !(a-b > 0 && a-b < scoreTieEps && b-d > 0 && b-d < scoreTieEps && d-c > 0 && d-c < scoreTieEps && a-c > 2*scoreTieEps) {
		t.Fatalf("fixture: marginals a %v b %v d %v c %v, want a chain of near ties with c beyond a's bar", a, b, d, c)
	}
	for _, barless := range []bool{true, false} {
		sc := NewScorer()
		sc.DomainSpread, sc.barless = true, barless
		got, _, err := sc.decide(spec, new(candidateSet).reset(members, true))
		if err != nil {
			t.Fatal(err)
		}
		if got.Member != "m5-c2" || got.Score != c {
			t.Errorf("barless=%v: chose %s at %v, want m5-c2 at %v", barless, got.Member, got.Score, c)
		}
	}
}
