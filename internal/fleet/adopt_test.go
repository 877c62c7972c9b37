package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/machine"
	"repro/internal/solvecache"
)

// memberNet serves member coopds in-process: a RoundTripper that hands
// each request to the named host's handler (refusing the connection
// while the host is down) and then calls the hooks that are set: served
// after every request, registered after every register the member
// accepted, with the request as it was sent and the member's solver
// counters from before and after serving it.
type memberNet struct {
	members    map[string]*ctrlplane.Server
	down       map[string]bool
	served     func(host string, req *http.Request)
	registered func(host string, req ctrlplane.RegisterRequest, before, after ctrlplane.SolverMetrics)
}

// clients is the InventoryConfig.NewClient that dials this net, one
// attempt per call.
func (n *memberNet) clients(endpoint string) *client.Client {
	return client.New(endpoint, client.Config{HTTPClient: &http.Client{Transport: n}, MaxAttempts: 1})
}

func (n *memberNet) solver(host string) ctrlplane.SolverMetrics {
	rec := httptest.NewRecorder()
	n.members[host].Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	var mt ctrlplane.MetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mt); err != nil {
		panic(err)
	}
	return mt.Solver
}

func (n *memberNet) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	srv, ok := n.members[host]
	if !ok || n.down[host] {
		return nil, fmt.Errorf("memberNet: no host %q answers", host)
	}
	var body []byte
	if req.Body != nil {
		body, _ = io.ReadAll(req.Body)
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	register := n.registered != nil && req.Method == http.MethodPost && req.URL.Path == "/v1/register"
	var before ctrlplane.SolverMetrics
	if register {
		before = n.solver(host)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if register && rec.Code == http.StatusOK {
		var rr ctrlplane.RegisterRequest
		if err := json.Unmarshal(body, &rr); err != nil {
			return nil, err
		}
		n.registered(host, rr, before, n.solver(host))
	}
	if n.served != nil {
		n.served(host, req)
	}
	return rec.Result(), nil
}

// TestAdoptedRegistersServeWhatTheMemberWouldSolve is the adoption
// differential. Seeded mixes are placed through Placer.Place on two
// in-process members, then one member is drained and Rebalancer rounds
// relocate its apps onto the other — on PaperModel that pushes the
// survivor past FloorCapacity, so floor-0 optima are shipped too. After
// every register, whatever the member now serves must be, bit for bit,
// what a solver with an empty cache makes of its registry: per-node
// rows, per-app GFLOPS, total and both baselines. And the books must
// balance: a register whose offer is of the member's own post-register
// key never runs a search (it is adopted, or the key was cached), any
// other offer is never adopted.
func TestAdoptedRegistersServeWhatTheMemberWouldSolve(t *testing.T) {
	cases := []struct {
		m    *machine.Machine
		apps int
	}{
		{machine.PaperModel(), FloorCapacity(machine.PaperModel()) + 2},
		{machine.SkylakeQuad(), 6},
		{machine.KNLSNC4(), 6},
	}
	ctx := context.Background()
	for _, c := range cases {
		offers, adopted := 0, uint64(0)
		for seed := int64(0); seed < 6; seed++ {
			label := fmt.Sprintf("%s/seed=%d", c.m.Name, seed)
			net := &memberNet{members: map[string]*ctrlplane.Server{}}
			inv := NewInventory(InventoryConfig{FailAfter: 2, NewClient: net.clients})
			for _, id := range []string{"a", "b"} {
				srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{Machine: c.m, DefaultTTL: 10 * time.Minute})
				if err != nil {
					t.Fatal(err)
				}
				net.members[id] = srv
				if err := inv.Add(id, "http://"+id); err != nil {
					t.Fatal(err)
				}
			}
			net.registered = func(host string, req ctrlplane.RegisterRequest, before, after ctrlplane.SolverMetrics) {
				srv := net.members[host]
				states, _ := srv.Registry().Snapshot()
				fresh, err := ctrlplane.NewSolver(ctrlplane.PolicyRoofline)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Solve(srv.Machine(), states)
				if err != nil {
					t.Fatalf("%s: fresh solve on %s: %v", label, host, err)
				}
				got, err := srv.Allocations()
				if err != nil {
					t.Fatalf("%s: allocations on %s: %v", label, host, err)
				}
				wantRef := fresh.Reference(srv.Machine(), states)
				if got.TotalGFLOPS != want.TotalGFLOPS || !reflect.DeepEqual(got.Reference, wantRef) {
					t.Errorf("%s: %s serves total %v (baselines %+v) after registering %s, a fresh solver %v (%+v)",
						label, host, got.TotalGFLOPS, got.Reference, req.Name, want.TotalGFLOPS, wantRef)
				}
				for i, a := range got.Apps {
					w := want.PerApp[i]
					if a.ID != w.ID || !reflect.DeepEqual(a.PerNode, w.PerNode) || a.PredictedGFLOPS != w.GFLOPS {
						t.Errorf("%s: %s serves %s %v at %v GFLOPS, a fresh solver %s %v at %v",
							label, host, a.ID, a.PerNode, a.PredictedGFLOPS, w.ID, w.PerNode, w.GFLOPS)
					}
				}

				if req.Solved == nil {
					if after.Adopted != before.Adopted {
						t.Errorf("%s: %s adopted something on a register without an offer", label, host)
					}
					return
				}
				offers++
				adopted += after.Adopted - before.Adopted
				own := solvecache.Digest(fresh.Key(srv.Machine(), states))
				switch {
				case req.Solved.Key != own && seed%2 == 0:
					t.Errorf("%s: fleetd solved another key than %s holds after registering %s, with no priority in play", label, host, req.Name)
				case req.Solved.Key == own && after.Misses != before.Misses:
					t.Errorf("%s: %s searched for %s though the offer was of its own key", label, host, req.Name)
				case req.Solved.Key == own && after.Adopted+after.Hits != before.Adopted+before.Hits+1:
					t.Errorf("%s: %s counters %+v -> %+v on an offer of its own key, want one adoption or one hit", label, host, before, after)
				case req.Solved.Key != own && (after.Adopted != before.Adopted || after.Stale != before.Stale+1):
					t.Errorf("%s: %s counters %+v -> %+v on an offer of another key, want it refused as stale", label, host, before, after)
				}
				if after.Invalid != 0 {
					t.Errorf("%s: %s found an offer of fleetd's invalid", label, host)
				}
			}
			inv.Poll(ctx)

			placer, reb := planners(t, inv, ServerConfig{Threshold: 0.01})
			// Odd seeds carry priority classes, whose weights are in fleetd's
			// keys and not in coopd's: those offers must go stale.
			r := rand.New(rand.NewSource(seed))
			for _, spec := range randomSpecs(r, c.m, c.apps, seed%2 == 1) {
				spec.TTLMillis = testTTL
				if _, _, err := placer.Place(ctx, spec); err != nil {
					t.Fatalf("%s: placing %s: %v", label, spec.Name, err)
				}
			}
			if err := inv.SetDraining("a", true); err != nil {
				t.Fatal(err)
			}
			for round := 0; ; round++ {
				plan, err := reb.Round(ctx)
				if err != nil {
					t.Fatalf("%s: round %d: %v", label, round, err)
				}
				if len(plan.Moves) == 0 {
					break
				}
				if round > 2*c.apps {
					t.Fatalf("%s: still moving after %d rounds", label, round)
				}
			}
			if n := appsOn(t, inv, "b"); n != c.apps {
				t.Fatalf("%s: %d apps on b after draining a, want all %d", label, n, c.apps)
			}
		}
		if offers == 0 || adopted == 0 {
			t.Errorf("%s: %d offers shipped, %d adopted; the differential compared nothing", c.m.Name, offers, adopted)
		}
		t.Logf("%s: %d offers shipped, %d adopted", c.m.Name, offers, adopted)
	}
}
