package ctrlplane_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/ctrlplane/persist"
	"repro/internal/machine"
	"repro/internal/roofline"
	"repro/internal/solvecache"
)

// offerFor solves the demand set the way fleetd's Scorer does — key
// tagged with the total-GFLOPS objective, every segment uncapped, the
// search run in the key's slot order — and returns what it would ship.
func offerFor(t *testing.T, m *machine.Machine, demand []roofline.App) *ctrlplane.Solved {
	t.Helper()
	var k solvecache.Key
	k.Reset(solvecache.TopologyHash(m), roofline.ObjTotalGFLOPS.Name())
	for i := range demand {
		k.Add(&demand[i], 0)
	}
	key, perm := k.Sort(nil)
	slots := make([]roofline.App, len(perm))
	for s, i := range perm {
		slots[s] = demand[i]
	}
	counts, _, err := new(roofline.Search).Solve(roofline.ObjTotalGFLOPS, nil, m, slots)
	if err != nil {
		t.Fatal(err)
	}
	return &ctrlplane.Solved{Key: solvecache.Digest(key), Counts: counts}
}

func demandOf(reqs ...ctrlplane.RegisterRequest) []roofline.App {
	out := make([]roofline.App, len(reqs))
	for i, r := range reqs {
		out[i] = roofline.App{Name: r.Name, AI: r.AI}
		if r.Placement == ctrlplane.PlacementBad {
			out[i].Placement, out[i].HomeNode = roofline.NUMABad, machine.NodeID(r.HomeNode)
		}
	}
	return out
}

// rewriteCounts is a RoundTripper that overwrites solved.counts of every
// register passing through — corruption between fleetd and the member.
type rewriteCounts struct{ counts []int }

func (rw rewriteCounts) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/register" {
		var body ctrlplane.RegisterRequest
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
			return nil, err
		}
		body.Solved.Counts = rw.counts
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(raw)), int64(len(raw))
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestRegisterOfferRefusals drives offers through the real register
// handler. The first row is an honest fleetd: adopted, no search. Every
// other row is an offer the member must not serve — it answers exactly
// as a twin server that was offered nothing, runs its own search, files
// nothing of the offer, and counts the refusal under exactly one of
// stale (made for another key) or invalid (failed validation).
func TestRegisterOfferRefusals(t *testing.T) {
	base := []ctrlplane.RegisterRequest{
		{Name: "mem-a", AI: 0.5}, {Name: "mem-b", AI: 0.5}, {Name: "mem-c", AI: 0.5},
	}
	comp := ctrlplane.RegisterRequest{Name: "comp", AI: 10}
	cases := []struct {
		name   string
		policy string
		// unpolled is registered on the member but missing from the demand
		// set the offer was solved for.
		unpolled *ctrlplane.RegisterRequest
		// req carries the offer; weight is the class weight fleetd's key
		// has for it.
		req     ctrlplane.RegisterRequest
		weight  float64
		corrupt func(*ctrlplane.Solved)
		rewrite []int // in flight, through the RoundTripper
		want    string
	}{
		{name: "honest", req: comp, want: "adopted"},
		{name: "wrong length", req: comp, corrupt: func(s *ctrlplane.Solved) { s.Counts = s.Counts[:3] }, want: "invalid"},
		{name: "negative", req: comp, corrupt: func(s *ctrlplane.Solved) { s.Counts[0] = -1 }, want: "invalid"},
		{name: "below floor", req: comp, corrupt: func(s *ctrlplane.Solved) { s.Counts[0] = 0 }, want: "invalid"},
		{name: "over the smallest node", req: comp, corrupt: func(s *ctrlplane.Solved) { s.Counts[3] = 6 }, want: "invalid"},
		{name: "overflowing sum", req: comp, corrupt: func(s *ctrlplane.Solved) { s.Counts[1], s.Counts[2] = 1<<62, 1<<62 }, want: "invalid"},
		{name: "total below even", req: comp, corrupt: func(s *ctrlplane.Solved) { s.Counts = []int{1, 1, 1, 1} }, want: "invalid"},
		{name: "streams' rows out of order", req: comp, corrupt: func(s *ctrlplane.Solved) {
			// (1,1,1,5) in slot order becomes (2,1,1,4): every other check
			// passes, but the search walks only non-decreasing runs.
			s.Counts[slices.Index(s.Counts, 5)] = 4
			s.Counts[slices.Index(s.Counts, 1)] = 2
		}, want: "invalid"},
		{name: "rewritten in flight", req: comp, rewrite: []int{4, 4, 4, 4}, want: "invalid"},
		{name: "another key's digest", req: comp, corrupt: func(s *ctrlplane.Solved) { s.Key++ }, want: "stale"},
		{name: "capped app", req: ctrlplane.RegisterRequest{Name: "comp", AI: 10, MaxThreads: 12}, want: "stale"},
		{name: "prioritized app", req: comp, weight: 4, want: "stale"},
		{name: "app fleetd never polled", req: comp, unpolled: &ctrlplane.RegisterRequest{Name: "walk-in", AI: 2}, want: "stale"},
		{name: "fairshare policy", policy: ctrlplane.PolicyFairShare, req: comp, want: "stale"},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := machine.PaperModel()
			subject, sc := startServer(t, ctrlplane.ServerConfig{Machine: m, Policy: tc.policy})
			twin, tw := startServer(t, ctrlplane.ServerConfig{Machine: m, Policy: tc.policy})
			before := base
			if tc.unpolled != nil {
				before = append(append([]ctrlplane.RegisterRequest(nil), base...), *tc.unpolled)
			}
			for _, r := range before {
				for _, c := range []*client.Client{sc, tw} {
					if _, err := c.Register(ctx, r); err != nil {
						t.Fatal(err)
					}
				}
			}

			demand := demandOf(append(append([]ctrlplane.RegisterRequest(nil), base...), tc.req)...)
			demand[len(demand)-1].Weight = tc.weight
			offer := offerFor(t, m, demand)
			if tc.corrupt != nil {
				tc.corrupt(offer)
			}
			if tc.rewrite != nil {
				sc = client.New(sc.BaseURL(), client.Config{
					MaxAttempts: 1, HTTPClient: &http.Client{Transport: rewriteCounts{tc.rewrite}},
				})
			}

			m0, err := sc.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			withOffer := tc.req
			withOffer.Solved = offer
			got, err := sc.Register(ctx, withOffer)
			if err != nil {
				t.Fatalf("register with the offer: %v", err)
			}
			want, err := tw.Register(ctx, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			m1, err := sc.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(got.Allocation, want.Allocation) {
				t.Errorf("served %+v, the twin without an offer %+v", got.Allocation, want.Allocation)
			}
			gotTable, err := subject.Allocations()
			if err != nil {
				t.Fatal(err)
			}
			wantTable, err := twin.Allocations()
			if err != nil {
				t.Fatal(err)
			}
			if !gotTable.CacheHit {
				t.Error("the register's solution was not filed")
			}
			if !reflect.DeepEqual(gotTable, wantTable) {
				t.Errorf("table after the register:\n got %+v\nwant %+v", gotTable, wantTable)
			}

			a, b := m0.Solver, m1.Solver
			moved := map[string]uint64{
				"adopted": b.Adopted - a.Adopted, "stale": b.Stale - a.Stale,
				"invalid": b.Invalid - a.Invalid, "misses": b.Misses - a.Misses,
			}
			wantMoved := map[string]uint64{"adopted": 0, "stale": 0, "invalid": 0, "misses": 1}
			wantMoved[tc.want] = 1
			if tc.want == "adopted" {
				wantMoved["misses"] = 0
			}
			if !reflect.DeepEqual(moved, wantMoved) {
				t.Errorf("solver counters moved by %v, want %v", moved, wantMoved)
			}
		})
	}
}

// TestAdoptedOfferIsNotState: an adopted offer fills the solver cache
// and nothing else — the register's journal line and the record handed
// to replication are what they are without one.
func TestAdoptedOfferIsNotState(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	m := machine.PaperModel()
	srv, c := startServer(t, ctrlplane.ServerConfig{Machine: m, Store: store})
	var replicated []persist.Record
	srv.Registry().SetObserver(func(r persist.Record) { replicated = append(replicated, r) })

	req := ctrlplane.RegisterRequest{Name: "solo", AI: 0.5}
	req.Solved = offerFor(t, m, demandOf(req))
	ctx := context.Background()
	if _, err := c.Register(ctx, req); err != nil {
		t.Fatal(err)
	}
	mt, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Solver.Adopted != 1 || mt.Solver.Misses != 0 {
		t.Fatalf("solver counters %+v, want the offer adopted", mt.Solver)
	}

	srv.Registry().SetObserver(nil)
	if len(replicated) != 1 || replicated[0].Op != persist.OpRegister {
		t.Fatalf("replication saw %+v, want the one register", replicated)
	}
	wire, err := json.Marshal(replicated[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for what, raw := range map[string][]byte{"replicated record": wire, "journal": journal} {
		if !bytes.Contains(raw, []byte(`"solo"`)) {
			t.Errorf("%s does not hold the register: %s", what, raw)
		}
		if strings.Contains(string(raw), "solved") || strings.Contains(string(raw), "counts") {
			t.Errorf("%s carries the offer: %s", what, raw)
		}
	}
}
