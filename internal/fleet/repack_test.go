package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/machine"
)

// memInventory is an inventory over in-memory members with no coopd
// behind them: it serves planning (Plan, Decide), never a poll or a
// Round. A member without a domain is its own.
func memInventory(members []Member) *Inventory {
	inv := NewInventory(InventoryConfig{})
	for i := range members {
		m := &members[i]
		domain := m.Domain
		if domain == "" {
			domain = m.ID
		}
		rec := edit(&member{id: m.ID, domain: domain, topo: m.Topology, apps: m.Apps})
		inv.members[m.ID] = rec
		inv.recs = append(inv.recs, rec)
	}
	return inv
}

// edit is how a test changes a field of an inventory member that a
// snapshot carries behind the inventory's back: it draws the member a
// fresh demand and record version, as every edit of apps or topology the
// inventory makes itself does, so pooled sessions copy its row and
// re-derive its candidate. Call it before (or after) the write, never
// instead of it; a test that writes without it plans against the row and
// candidate of the record it replaced.
func edit(m *member) *member {
	m.touch()
	return m
}

// TestRepackMemoMatchesFreshRepack: the imbalance pass memoizes its
// re-pack on the bytes of its inputs, so a Rebalancer that keeps the
// memo must plan exactly what one without it plans. Seeded walks over an
// in-memory fleet change one re-pack input per step — or nothing, or
// only the cooldowns, which filter the move list but are not an input.
// After every step the memoizing Rebalancer's Plan must deep-equal a
// fresh Rebalancer's, and a step that changed no input must be a memo
// hit. The fleet is built so that every key field decides some step:
// two interchangeable empty members share a domain, a 4-node topology is
// lopsided (home nodes matter) and a 2-node member cannot host home
// nodes 2 and 3. The second configuration turns on domain-spread and the
// weighted-priority objective, under which names, domains and priorities
// enter the re-pack too.
func TestRepackMemoMatchesFreshRepack(t *testing.T) {
	quad := machine.Uniform("quad", 4, 6, 10, 32, 10)
	lopsided := machine.Uniform("lopsided", 4, 6, 10, 32, 10)
	lopsided.Nodes[0].Cores, lopsided.Nodes[0].MemBandwidth = 4, 16
	duo := machine.Uniform("duo", 2, 4, 10, 32, 10)
	duoFast := machine.Uniform("duo-fast", 2, 4, 10, 48, 10)
	swaps := map[int][]*machine.Machine{4: {quad, lopsided}, 2: {duo, duoFast}}
	racks := []string{"rack-a", "rack-b", "rack-c"}
	groups := []string{"web", "db", "etl"}
	ais := []float64{0.5, 2, 10}
	classes := []string{"", PriorityLatency, PrioritySystem}
	ops := []string{"register", "drop", "ai", "rename", "placement", "home-node", "drift", "priority",
		"outage", "stale", "topology", "domain", "new-id", "cooldown", "tick"}
	const seeds, steps = 12, 200

	for _, cfg := range []ServerConfig{
		{MaxMovesPerRound: 64},
		{MaxMovesPerRound: 64, DomainSpread: true, Objective: "weighted-priority"},
	} {
		for seed := int64(0); seed < seeds; seed++ {
			t.Run(fmt.Sprintf("spread=%v/seed=%d", cfg.DomainSpread, seed), func(t *testing.T) {
				ctx := context.Background()
				r := rand.New(rand.NewSource(seed))
				inv := memInventory([]Member{
					{ID: "m0", Domain: "rack-a", Topology: quad},
					{ID: "m1", Domain: "rack-a", Topology: quad},
					{ID: "m2", Domain: "rack-a", Topology: quad},
					{ID: "m3", Domain: "rack-b", Topology: lopsided},
					{ID: "m4", Domain: "rack-b", Topology: quad},
					{ID: "m5", Domain: "rack-c", Topology: duo},
				})
				next := 0
				register := func(m *member) {
					next++
					a := PlacedApp{
						ID: fmt.Sprintf("%s-%03d", m.id, next),
						AppSpec: AppSpec{
							Name:     fmt.Sprintf("%s-%d", groups[r.Intn(len(groups))], next),
							AI:       ais[r.Intn(len(ais))],
							Priority: classes[r.Intn(len(classes))],
						},
					}
					if r.Intn(4) == 0 {
						a.Placement, a.HomeNode = ctrlplane.PlacementBad, r.Intn(m.topo.NumNodes())
					}
					edit(m).apps = append(m.apps, a) // IDs grow, so apps stay sorted
				}
				members := slices.Clone(inv.recs)
				for i := 0; i < 4; i++ {
					register(members[0]) // the pile the re-pack wants to spread
				}
				register(members[3])
				register(members[5])
				total := func() (n int) {
					for _, m := range members {
						n += len(m.apps)
					}
					return n
				}
				pickApp := func() (*member, *PlacedApp) {
					k := r.Intn(total())
					for _, m := range members {
						if k < len(m.apps) {
							return edit(m), &m.apps[k] // the caller edits it
						}
						k -= len(m.apps)
					}
					panic("unreachable")
				}
				out := -1 // the member out of service, if any

				_, reb := planners(t, inv, cfg)
				_, ref := planners(t, inv, cfg)
				memoHeld := false // the memo holds the current inputs' re-pack
				for step := 0; step < steps; step++ {
					op := "nothing"
					if r.Intn(4) != 0 {
						op = ops[r.Intn(len(ops))]
					}
					switch {
					case op == "register" && total() >= 12:
						op = "drop"
					case op == "drop" && total() <= 4:
						op = "register"
					}
					switch op {
					case "register": // m1 and m2 stay empty spares
						register(members[[]int{0, 3, 4, 5}[r.Intn(4)]])
					case "drop":
						m, a := pickApp()
						m.apps = slices.DeleteFunc(m.apps, func(x PlacedApp) bool { return x.ID == a.ID })
					case "ai", "rename", "placement", "home-node": // one spec field, same ID
						m, a := pickApp()
						switch {
						case op == "ai":
							a.AI = ais[(slices.Index(ais, a.AI)+1+r.Intn(len(ais)-1))%len(ais)]
						case op == "rename": // into another cooperating group
							group, suffix, _ := strings.Cut(a.Name, "-")
							a.Name = groups[(slices.Index(groups, group)+1+r.Intn(len(groups)-1))%len(groups)] + "-" + suffix
						case op == "placement" || a.Placement == "":
							if a.Placement == "" {
								a.Placement, a.HomeNode = ctrlplane.PlacementBad, r.Intn(m.topo.NumNodes())
							} else {
								a.Placement, a.HomeNode = "", 0
							}
						default:
							n := m.topo.NumNodes()
							a.HomeNode = (a.HomeNode + 1 + r.Intn(n-1)) % n
						}
						op += " " + a.ID
					case "drift":
						_, a := pickApp()
						a.Drifted, a.FittedAI = !a.Drifted, []float64{0, 0.25, 4}[r.Intn(3)]
					case "priority":
						_, a := pickApp()
						a.Priority = classes[(slices.Index(classes, a.Priority)+1+r.Intn(2))%len(classes)]
					case "outage": // the one member out of service changes, or how it is out
						j, how := r.Intn(len(members)), r.Intn(4)
						if out >= 0 {
							m := members[out]
							if r.Intn(2) == 0 { // an empty look-alike takes its place, out the same way
								for k, l := range members {
									if k != out && l.domain == m.domain && l.topo == m.topo && len(l.apps)+len(m.apps) == 0 {
										j, how = k, 1+slices.Index([]bool{m.dead, m.quarantined, m.draining}, true)
										break
									}
								}
							}
							edit(m).dead, m.quarantined, m.draining = false, false, false
						}
						out = j
						switch m := edit(members[j]); how {
						case 0:
							out = -1
						case 1:
							m.dead = true
						case 2:
							m.quarantined = true
						case 3:
							m.draining = true
						}
					case "stale": // a duplicate appears, or is cleaned up
						m, a := pickApp()
						if slices.Contains(m.stale, a.ID) {
							m.stale = nil
						} else {
							m.stale = []string{a.ID}
						}
					case "topology":
						m := edit(members[r.Intn(len(members))])
						alt := swaps[m.topo.NumNodes()]
						m.topo = alt[(slices.Index(alt, m.topo)+1)%len(alt)]
					case "domain":
						m := edit(members[r.Intn(len(members))])
						m.domain = racks[(slices.Index(racks, m.domain)+1+r.Intn(2))%len(racks)]
					case "new-id": // re-registered under a fresh ID, same spec
						m, a := pickApp()
						moved := *a
						next++
						moved.ID = fmt.Sprintf("%s-%03d", m.id, next)
						m.apps = append(slices.DeleteFunc(m.apps, func(x PlacedApp) bool { return x.ID == a.ID }), moved)
					case "cooldown": // a move's round on a record, same ID
						_, a := pickApp()
						a.MovedRound = inv.clock()
					case "tick":
						inv.endRound()
					}

					before := reb.Repacks()
					got, err := reb.Plan(ctx)
					if err != nil {
						t.Fatal(err)
					}
					want, err := (&Rebalancer{Inv: inv, Scorer: ref.Scorer, cfg: ref.cfg}).Plan(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d (%s): memoizing Rebalancer planned\n  %+v\nfresh one\n  %+v", step, op, got, want)
					}
					// The pass runs only in a quiet round; a cooldown can decide
					// whether an earlier pass planned, so "ran" is this step's.
					after := reb.Repacks()
					ran, unchanged := after != before, op == "nothing" || op == "cooldown" || op == "tick"
					if ran && unchanged && memoHeld && after != (RepackMetrics{Reused: before.Reused + 1, Computed: before.Computed}) {
						t.Fatalf("step %d (%s) changed no input, re-packs %+v -> %+v: want one reuse", step, op, before, after)
					}
					switch {
					case ran: // the memo now holds these inputs, unless the re-pack failed
						memoHeld = got.RepackGFLOPS > 0
					case !unchanged:
						memoHeld = false
					}
				}
				m := reb.Repacks()
				if m.Reused == 0 || m.Computed == 0 {
					t.Fatalf("re-packs %+v over %d steps: the walk never exercised both paths", m, steps)
				}
				t.Logf("re-packs over %d steps: %+v", steps, m)
			})
		}
	}
}

// TestFailedRepackIsLoggedNotMemoized: an app the model rejects is left
// out of the current aggregate but fails its re-pack decision. The pass
// then reports no re-pack aggregate and plans nothing, as it always did,
// but now says why in the log — and does not memoize the failure, so
// the next round tries again.
func TestFailedRepackIsLoggedNotMemoized(t *testing.T) {
	inv := memInventory([]Member{
		{ID: "a", Topology: machine.PaperModel(), Apps: []PlacedApp{
			{ID: "a-1", AppSpec: AppSpec{Name: "mem", AI: 0.5}}, {ID: "a-2", AppSpec: AppSpec{Name: "broken", AI: 0}}}},
		{ID: "b", Topology: machine.PaperModel()},
	})
	var logs []string
	_, reb := planners(t, inv, ServerConfig{Logf: func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	for i := 1; i <= 2; i++ {
		plan, err := reb.Plan(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !near(plan.CurrentGFLOPS, 64) || plan.RepackGFLOPS != 0 || len(plan.Moves) != 0 {
			t.Fatalf("plan %+v, want current ~64, no re-pack aggregate and no move", plan)
		}
		if m := reb.Repacks(); m != (RepackMetrics{Computed: uint64(i)}) {
			t.Fatalf("plan %d: re-packs %+v, want %d computed and none reused", i, m, i)
		}
	}
	if len(logs) != 2 || !strings.Contains(logs[0], "re-packing a-2 from a") {
		t.Fatalf("logged %q, want each abandoned re-pack explained", logs)
	}
}
