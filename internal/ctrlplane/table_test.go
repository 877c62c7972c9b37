package ctrlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/ctrlplane/persist"
	"repro/internal/httpapi"
	"repro/internal/machine"
	"repro/internal/roofline"
	"repro/internal/solvecache"
)

// serveRaw sends one request straight through the server's handler and
// returns the status and the body as written.
func serveRaw(s *Server, method, path string, in any) (int, []byte) {
	var body bytes.Buffer
	if in != nil {
		json.NewEncoder(&body).Encode(in)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, &body))
	return rec.Code, rec.Body.Bytes()
}

// uncached is what the served table must equal at the registry's
// current version, built the way every read was served before the table
// existed: a snapshot, a solve, and the encoding of each live app's
// heartbeat answer; plus the allocation table.
func uncached(t *testing.T, s *Server) (answers map[string][]byte, table *AllocationsResponse) {
	t.Helper()
	apps, _, gen := s.reg.SnapshotInto(nil)
	sol, err := s.solver.Solve(s.cfg.Machine, apps)
	if err != nil {
		t.Fatal(err)
	}
	answers = map[string][]byte{}
	for i := range sol.PerApp {
		alloc := appAllocation(&sol.PerApp[i])
		rec := httptest.NewRecorder()
		httpapi.WriteJSON(rec, http.StatusOK, HeartbeatResponse{Generation: gen, Allocation: &alloc})
		answers[alloc.ID] = rec.Body.Bytes()
	}
	table = sol.Table(s.cfg.Machine.Name, s.solver.Policy(), gen)
	table.Reference = s.solver.Reference(s.cfg.Machine, apps)
	return answers, table
}

// offerOf solves the live set plus req the way fleetd's Scorer does and
// returns the offer a placement would ship with req.
func offerOf(t *testing.T, s *Server, req RegisterRequest) *Solved {
	t.Helper()
	spec, err := req.Spec(s.cfg.Machine.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	apps, _ := s.reg.Snapshot()
	demand := []roofline.App{spec.rooflineApp()}
	for i := range apps {
		eff := apps[i].EffectiveSpec()
		demand = append(demand, eff.rooflineApp())
	}
	var k solvecache.Key
	k.Reset(solvecache.TopologyHash(s.cfg.Machine), roofline.ObjTotalGFLOPS.Name())
	for i := range demand {
		k.Add(&demand[i], 0)
	}
	key, perm := k.Sort(nil)
	slots := make([]roofline.App, len(perm))
	for slot, i := range perm {
		slots[slot] = demand[i]
	}
	counts, _, err := new(roofline.Search).Solve(roofline.ObjTotalGFLOPS, nil, s.cfg.Machine, slots)
	if err != nil {
		t.Fatal(err)
	}
	return &Solved{Key: solvecache.Digest(key), Counts: counts}
}

// ServedOps drives seeded op sequences — registers with and without an
// offer, deregisters, heartbeats, TTL evictions under a clock stepped
// both ways, fitted models set and cleared through /v1/report,
// promotions, snapshot installs at the current generation with other
// apps (a resync onto a diverged leader), restarts from the state dir —
// and calls check after every op with the server of the moment (a
// restart replaces it), the op's label and the body of the op's own
// heartbeat answer (nil: the op was no heartbeat, or was refused). It
// fails the test unless the sequences set, clear and install at least
// once each.
func ServedOps(t *testing.T, check func(s *Server, label string, hbBody []byte)) {
	m := machine.PaperModel()
	ais := []float64{0.5, 0.5, 2, 10}
	var fitted, cleared, installs int
	ops := map[string]int{}
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		now := time.Unix(1_700_000_000, 0)
		clock := func() time.Time { return now }
		var store *persist.Store
		var s *Server
		open := func() {
			var err error
			if store, err = persist.Open(dir, persist.Options{}); err != nil {
				t.Fatal(err)
			}
			s, err = NewServer(ServerConfig{
				Machine: m, Clock: clock, Store: store, DefaultTTL: 20 * time.Second,
				Recalibrate: true, Adapt: adapt.Config{Window: 2, ConfirmWindows: 2, Alpha: 0.5},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		open()
		live := func() []string {
			apps, _ := s.reg.Snapshot()
			ids := make([]string, len(apps))
			for i := range apps {
				ids[i] = apps[i].ID
			}
			return ids
		}
		pick := func() string {
			ids := live()
			if len(ids) == 0 {
				return "none-0"
			}
			return ids[r.Intn(len(ids))]
		}
		for step := 0; step < 40; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			var op string
			var hbBody []byte
			switch k := r.Intn(20); {
			case k < 6 && len(live()) < 6:
				op = "register"
				req := RegisterRequest{Name: fmt.Sprintf("app%d", r.Intn(3)), AI: ais[r.Intn(len(ais))], TTLMillis: int64(10000 + r.Intn(20000))}
				if r.Intn(5) == 0 {
					req.Placement, req.HomeNode = PlacementBad, r.Intn(m.NumNodes())
				}
				if r.Intn(2) == 0 {
					op = "register with an offer"
					req.Solved = offerOf(t, s, req)
					if r.Intn(4) == 0 {
						req.Solved.Key++ // made for another demand set
					}
				}
				if code, body := serveRaw(s, "POST", "/v1/register", req); code != http.StatusOK {
					t.Fatalf("%s: register: %d %s", label, code, body)
				}
			case k < 8:
				op = "deregister"
				serveRaw(s, "DELETE", "/v1/apps/"+pick(), nil)
			case k < 12:
				op = "heartbeat"
				code, body := serveRaw(s, "POST", "/v1/heartbeat", HeartbeatRequest{ID: pick(), Running: r.Intn(8), GFlopRate: r.Float64() * 10, GBRate: r.Float64() * 10})
				if code == http.StatusOK {
					hbBody = body
				}
			case k < 14:
				op = "clock step and sweep"
				now = now.Add(time.Duration(r.Intn(35)-5) * time.Second)
				s.sweep()
			case k < 16:
				op = "report"
				apps, _ := s.reg.Snapshot()
				if len(apps) == 0 {
					continue
				}
				a := apps[r.Intn(len(apps))]
				ai := a.Spec.AI
				if r.Intn(2) == 0 {
					ai *= 8
				}
				sm := ReportSample{GFLOPS: 10, GBps: 10 / ai, Threads: 4}
				if code, body := serveRaw(s, "POST", "/v1/report", ReportRequest{ID: a.ID, Samples: []ReportSample{sm, sm, sm, sm}}); code != http.StatusOK {
					t.Fatalf("%s: report: %d %s", label, code, body)
				}
				after, _ := s.reg.App(a.ID)
				switch {
				case a.Fitted == nil && after.Fitted != nil:
					fitted++
				case a.Fitted != nil && after.Fitted == nil:
					cleared++
				}
			case k < 17:
				op = "promote"
				s.reg.Promote(s.reg.Epoch() + 1)
			case k < 18:
				op = "snapshot install"
				snap := s.reg.PersistSnapshot()
				if len(snap.Apps) == 0 {
					continue
				}
				// The same generation, other apps: one dropped, or one with
				// another demand.
				i := r.Intn(len(snap.Apps))
				if r.Intn(2) == 0 {
					snap.Apps = append(snap.Apps[:i], snap.Apps[i+1:]...)
				} else {
					snap.Apps[i].AI *= 4
				}
				if err := s.reg.ResetFromSnapshot(snap); err != nil {
					t.Fatal(err)
				}
				installs++
			default:
				op = "restart"
				s.Close()
				if err := store.Close(); err != nil {
					t.Fatal(err)
				}
				open()
			}
			ops[op]++
			check(s, label+" ("+op+")", hbBody)
		}
		s.Close()
		store.Close()
	}
	t.Logf("ops: %v; %d fitted models set, %d cleared", ops, fitted, cleared)
	if fitted == 0 || cleared == 0 || installs == 0 {
		t.Errorf("%d fitted models set, %d cleared, %d snapshot installs: the sequences do not exercise every op", fitted, cleared, installs)
	}
}

// TestServedTableMatchesUncachedSolve requires, after every op of
// ServedOps, each live app's heartbeat answer to be byte-equal to the
// uncached snapshot + solve + encode at the same version, generation
// included, and the allocation table equal to the uncached one. A
// version is solved at most once: answering every app twice over adds
// at most one solve.
func TestServedTableMatchesUncachedSolve(t *testing.T) {
	ServedOps(t, func(s *Server, label string, hbBody []byte) {
		want, wantTable := uncached(t, s)
		if hbBody != nil {
			var hb HeartbeatResponse
			if err := json.Unmarshal(hbBody, &hb); err != nil || hb.Allocation == nil {
				t.Fatalf("%s: heartbeat answered %q (%v)", label, hbBody, err)
			}
			if !bytes.Equal(hbBody, want[hb.Allocation.ID]) {
				t.Fatalf("%s: heartbeat of %s answered\n%s want\n%s", label, hb.Allocation.ID, hbBody, want[hb.Allocation.ID])
			}
		}
		solves := s.tableSolves.Load()
		for pass := 0; pass < 2; pass++ {
			for id, w := range want {
				got, _, err := s.heartbeatAnswer(id)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, w) {
					t.Fatalf("%s: %s's answer from the table\n%s want\n%s", label, id, got, w)
				}
			}
		}
		gotTable, err := s.Allocations()
		if err != nil {
			t.Fatal(err)
		}
		gotTable.CacheHit, wantTable.CacheHit = false, false
		if !reflect.DeepEqual(gotTable, wantTable) {
			t.Fatalf("%s: allocation table\n%+v want\n%+v", label, gotTable, wantTable)
		}
		if n := s.tableSolves.Load() - solves; n > 1 {
			t.Fatalf("%s: answering %d apps twice and the table ran %d solves for one version, want at most 1", label, len(want), n)
		}
	})
}

// TestHeartbeatAnswerFromTableNoAllocs: once a version's table holds an
// app's encoded answer, answering it again touches no heap.
func TestHeartbeatAnswerFromTableNoAllocs(t *testing.T) {
	s, err := NewServer(ServerConfig{Machine: machine.SkylakeQuad()})
	if err != nil {
		t.Fatal(err)
	}
	var id string
	for _, ai := range []float64{1.0 / 32, 1.0 / 32, 1} {
		st, _, err := s.reg.Register(AppSpec{Name: "app", AI: ai}, 0)
		if err != nil {
			t.Fatal(err)
		}
		id = st.ID
	}
	if _, _, err := s.heartbeatAnswer(id); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := s.heartbeatAnswer(id); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("a table hit allocates %.2f objects/op, want 0", allocs)
	}
}

// TestServedTableConcurrent heartbeats a steady set of apps, and reads
// the allocation table, from several goroutines while others register
// and deregister, under -race in `make
// check`. Each goroutine's answers never go back a generation, and once
// the churn stops every answer equals the uncached one.
func TestServedTableConcurrent(t *testing.T) {
	s, err := NewServer(ServerConfig{Machine: machine.PaperModel()})
	if err != nil {
		t.Fatal(err)
	}
	var steady []string
	for _, ai := range []float64{0.5, 0.5, 10} {
		code, body := serveRaw(s, "POST", "/v1/register", RegisterRequest{Name: "steady", AI: ai})
		var resp RegisterResponse
		if code != http.StatusOK || json.Unmarshal(body, &resp) != nil {
			t.Fatalf("register: %d %s", code, body)
		}
		steady = append(steady, resp.ID)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var last uint64
			for i := 0; i < 200; i++ {
				id := steady[(g+i)%len(steady)]
				code, body := serveRaw(s, "POST", "/v1/heartbeat", HeartbeatRequest{ID: id})
				var hb HeartbeatResponse
				if code != http.StatusOK || json.Unmarshal(body, &hb) != nil || hb.Allocation == nil || hb.Allocation.ID != id {
					errs <- fmt.Errorf("heartbeat of %s: %d %s", id, code, body)
					return
				}
				if hb.Generation < last {
					errs <- fmt.Errorf("heartbeat of %s answered generation %d after %d", id, hb.Generation, last)
					return
				}
				if i%10 == 0 { // the baselines are computed on a table other readers share
					if _, err := s.Allocations(); err != nil {
						errs <- err
						return
					}
				}
				last = hb.Generation
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				code, body := serveRaw(s, "POST", "/v1/register", RegisterRequest{Name: fmt.Sprintf("churn%d", g), AI: 2})
				var resp RegisterResponse
				if code != http.StatusOK || json.Unmarshal(body, &resp) != nil {
					errs <- fmt.Errorf("register: %d %s", code, body)
					return
				}
				if i%2 == 0 {
					serveRaw(s, "DELETE", "/v1/apps/"+resp.ID, nil)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	want, _ := uncached(t, s)
	for id, w := range want {
		code, body := serveRaw(s, "POST", "/v1/heartbeat", HeartbeatRequest{ID: id})
		if code != http.StatusOK || !bytes.Equal(body, w) {
			t.Errorf("%s after the churn: %d\n%s want\n%s", id, code, body, w)
		}
	}
}

// TestAllocationsBaselines: /v1/allocations answers the paper's
// baselines bit for bit as they were served when every solve computed
// them (Tables I and III, the NUMA-bad row of III included), and only
// the first allocation read of a registry version computes them: not
// the registers, not the heartbeat that built the version's table, and
// not a second read, which allocates what rendering the table does and
// nothing more.
func TestAllocationsBaselines(t *testing.T) {
	iii := []RegisterRequest{{Name: "mem1", AI: 1.0 / 32}, {Name: "mem2", AI: 1.0 / 32}, {Name: "mem3", AI: 1.0 / 32}, {Name: "comp", AI: 1}}
	iiiBad := append(iii[:3:3], RegisterRequest{Name: "bad", AI: 1.0 / 16, Placement: PlacementBad, HomeNode: 0})
	for _, tc := range []struct {
		m         *machine.Machine
		reqs      []RegisterRequest
		even, npa uint64 // float64 bits
	}{
		{machine.PaperModel(), []RegisterRequest{{Name: "mem-a", AI: 0.5}, {Name: "mem-b", AI: 0.5}, {Name: "mem-c", AI: 0.5}, {Name: "comp", AI: 10}},
			0x4061800000000000, 0x4060000000000000}, // 140, 128
		{machine.SkylakeQuad(), iii, 0x40321e6666666667, 0x402e59999999999a},    // 18.12, 15.18
		{machine.SkylakeQuad(), iiiBad, 0x402bf7ffffffffff, 0x4023600000000000}, // 13.98, 9.69
	} {
		s, err := NewServer(ServerConfig{Machine: tc.m})
		if err != nil {
			t.Fatal(err)
		}
		var id string
		for _, req := range tc.reqs {
			code, body := serveRaw(s, "POST", "/v1/register", req)
			var resp RegisterResponse
			if code != http.StatusOK || json.Unmarshal(body, &resp) != nil {
				t.Fatalf("register: %d %s", code, body)
			}
			id = resp.ID
		}
		if code, body := serveRaw(s, "POST", "/v1/heartbeat", HeartbeatRequest{ID: id}); code != http.StatusOK {
			t.Fatalf("heartbeat: %d %s", code, body)
		}
		tab := s.table.Load()
		if tab == nil || tab.ref != nil || tab.apps == nil {
			t.Fatalf("%s: the heartbeat left no table awaiting its baselines: %+v", tc.m.Name, tab)
		}
		got, err := s.Allocations()
		if err != nil {
			t.Fatal(err)
		}
		if s.table.Load() != tab {
			t.Fatalf("%s: the allocation read solved a new table", tc.m.Name)
		}
		if got.Reference == nil || math.Float64bits(got.Reference.EvenGFLOPS) != tc.even || math.Float64bits(got.Reference.NodePerAppGFLOPS) != tc.npa {
			t.Errorf("%s: baselines %+v, want even %v and node-per-app %v", tc.m.Name, got.Reference,
				math.Float64frombits(tc.even), math.Float64frombits(tc.npa))
		}
		if tab.apps != nil {
			t.Errorf("%s: the table keeps its snapshot after its baselines were computed", tc.m.Name)
		}
		render := testing.AllocsPerRun(20, func() { tab.sol.Table(tc.m.Name, s.solver.Policy(), tab.generation) })
		second := testing.AllocsPerRun(20, func() {
			if _, err := s.Allocations(); err != nil {
				t.Fatal(err)
			}
		})
		if second != render {
			t.Errorf("%s: a second allocation read allocates %v objects, rendering the table %v", tc.m.Name, second, render)
		}
	}
}
