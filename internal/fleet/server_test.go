package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/faultinject"
	"repro/internal/httpapi"
	"repro/internal/machine"
)

// newFleetServer wires a fleet server (not Started — tests drive the
// control loop by hand) over the given inventory and serves it via
// httptest, returning a fleet API client for it.
func newFleetServer(t *testing.T, inv *Inventory) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(ServerConfig{Inventory: inv, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, NewClient(hs.URL, nil)
}

// TestServerPlaceAndMachines exercises the fleetd HTTP surface end to
// end against one real coopd: place over HTTP, observe the machine
// view, drain and undo, and the input-validation error paths.
func TestServerPlaceAndMachines(t *testing.T) {
	ctx := context.Background()
	hs := newCoopd(t)
	inv := NewInventory(InventoryConfig{NewClient: fastClients(nil)})
	if err := inv.Add("a", hs.URL); err != nil {
		t.Fatal(err)
	}
	inv.Poll(ctx)
	_, fc := newFleetServer(t, inv)

	resp, err := fc.Place(ctx, memSpec("web"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Machine != "a" || resp.ID == "" || !near(resp.Score, 64) {
		t.Fatalf("place response %+v, want machine a, an ID, score ~64", resp)
	}
	if len(resp.Endpoints) == 0 {
		t.Fatal("place response misses the machine's endpoints (clients need them to heartbeat)")
	}

	// The machines view reports last-polled totals; refresh it the way
	// the Started control loop would.
	inv.Poll(ctx)
	ms, err := fc.Machines(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Machines) != 1 {
		t.Fatalf("%d machines, want 1", len(ms.Machines))
	}
	mv := ms.Machines[0]
	if mv.Status != StatusHealthy || len(mv.Apps) != 1 || mv.Machine == "" {
		t.Fatalf("machine view %+v, want healthy with 1 app and a topology name", mv)
	}
	if !near(ms.FleetGFLOPS, 64) {
		t.Fatalf("fleet aggregate %g, want ~64", ms.FleetGFLOPS)
	}

	// A plan over a balanced one-machine fleet is empty, served as a
	// read-only dry run.
	plan, err := fc.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 0 || len(plan.StaleDeregs) != 0 {
		t.Fatalf("dry-run plan not empty: %+v", plan)
	}

	// Drain round-trip, and 404 for unknown machines.
	dr, err := fc.Drain(ctx, "a", false)
	if err != nil || !dr.Draining {
		t.Fatalf("drain: %+v, %v", dr, err)
	}
	if _, err := fc.Place(ctx, memSpec("while-draining")); err == nil {
		t.Fatal("placement succeeded with every member draining")
	}
	if dr, err = fc.Drain(ctx, "a", true); err != nil || dr.Draining {
		t.Fatalf("undo drain: %+v, %v", dr, err)
	}
	if _, err := fc.Drain(ctx, "ghost", false); err == nil {
		t.Fatal("drain of unknown machine succeeded")
	}

	// Validation: non-positive AI is a client error, not a crash.
	if _, err := fc.Place(ctx, AppSpec{Name: "zero-ai"}); err == nil {
		t.Fatal("zero-AI spec accepted")
	}

	h, err := fc.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Machines != 1 || h.Healthy != 1 || h.Apps != 1 {
		t.Fatalf("health %+v, want ok with 1 healthy machine and 1 app", h)
	}
}

// TestServerPlaceNoMembers: an empty fleet refuses placements with a
// service-unavailable error rather than a hang or a panic.
func TestServerPlaceNoMembers(t *testing.T) {
	inv := NewInventory(InventoryConfig{NewClient: fastClients(nil)})
	_, fc := newFleetServer(t, inv)
	if _, err := fc.Place(context.Background(), memSpec("homeless")); err == nil {
		t.Fatal("placement succeeded on an empty fleet")
	}
}

// TestServerGangRoundTrip: POST /v1/fleet/gang admits a gang through
// the typed client, the machine view shows every member with the class
// its member registry holds, and validation rejects bad specs with 400.
func TestServerGangRoundTrip(t *testing.T) {
	ctx := context.Background()
	inv := NewInventory(InventoryConfig{NewClient: fastClients(nil)})
	for _, id := range []string{"a", "b"} {
		if err := inv.Add(id, newCoopd(t).URL); err != nil {
			t.Fatal(err)
		}
	}
	inv.Poll(ctx)
	_, fc := newFleetServer(t, inv)

	res, err := fc.PlaceGang(ctx, GangSpec{
		Name: "web", Replicas: 2, Policy: GangSpread,
		App: AppSpec{AI: 0.5, TTLMillis: testTTL, Priority: PriorityLatency},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placements) != 2 || res.Policy != GangSpread {
		t.Fatalf("gang result %+v, want 2 spread placements", res)
	}
	if res.Placements[0].Member == res.Placements[1].Member {
		t.Fatalf("spread gang co-located on %s", res.Placements[0].Member)
	}

	inv.Poll(ctx)
	ms, err := fc.Machines(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, m := range ms.Machines {
		for _, app := range m.Apps {
			seen++
			if app.Priority != PriorityLatency {
				t.Fatalf("member %s lost its class across the poll: %+v", app.Name, app)
			}
		}
	}
	if seen != 2 {
		t.Fatalf("machine view shows %d gang members, want 2", seen)
	}

	for _, bad := range []GangSpec{
		{Name: "", Replicas: 2, App: AppSpec{AI: 0.5}},
		{Name: "x", Replicas: 0, App: AppSpec{AI: 0.5}},
		{Name: "x", Replicas: 2, Policy: "diagonal", App: AppSpec{AI: 0.5}},
		{Name: "x", Replicas: 2, App: AppSpec{AI: -1}},
		{Name: "x", Replicas: 2, App: AppSpec{AI: 0.5, Priority: "urgent"}},
	} {
		if _, err := fc.PlaceGang(ctx, bad); err == nil || !strings.Contains(err.Error(), "400") {
			t.Fatalf("gang %+v admitted, want a 400 validation error (got %v)", bad, err)
		}
	}
}

// TestServerRefusesInvalidAppBeforeDeciding: a spec a member coopd
// would refuse (a negative thread cap or TTL, an oversized name) is a
// 400 from fleetd itself, not a decision coopd then refuses (a 502). For
// a latency gang on a starved fleet that matters: deciding it would
// already have moved preemption victims, and nothing rolls those back.
func TestServerRefusesInvalidAppBeforeDeciding(t *testing.T) {
	ctx := context.Background()
	tiny := func(name string) *machine.Machine { return machine.Uniform(name, 2, 2, 10, 32, 0) }
	inv := NewInventory(InventoryConfig{NewClient: fastClients(nil), FailAfter: 2})
	ids := []string{"a", "b", "c"}
	for _, id := range ids {
		if err := inv.Add(id, newCoopdOn(t, tiny("tiny-"+id)).URL); err != nil {
			t.Fatal(err)
		}
	}
	inv.Poll(ctx)
	registerWithPriority(t, inv, "a", memSpec("batch-1"))
	registerWithPriority(t, inv, "a", memSpec("batch-2"))
	registerWithPriority(t, inv, "b", memSpec("batch-3"))
	registerWithPriority(t, inv, "b", memSpec("batch-4"))
	inv.Poll(ctx)
	_, fc := newFleetServer(t, inv)
	appSets := func() map[string][]string {
		inv.Poll(ctx)
		out := map[string][]string{}
		for _, id := range ids {
			m, _ := inv.Member(id)
			for _, app := range m.Apps {
				out[id] = append(out[id], app.ID)
			}
		}
		return out
	}
	before := appSets()
	is400 := func(err error) bool {
		var apiErr *httpapi.APIError
		return errors.As(err, &apiErr) && apiErr.Status == http.StatusBadRequest
	}

	for _, bad := range []AppSpec{
		{Name: "capped", AI: 0.5, MaxThreads: -1},
		{Name: "ttl", AI: 0.5, TTLMillis: -1},
		{Name: strings.Repeat("n", ctrlplane.MaxNameBytes+1), AI: 0.5},
		{Name: "classy", AI: 0.5, Priority: "urgent"},
	} {
		if _, err := fc.Place(ctx, bad); !is400(err) {
			t.Errorf("place max_threads %d ttl_ms %d name %d bytes priority %q: %v, want 400", bad.MaxThreads, bad.TTLMillis, len(bad.Name), bad.Priority, err)
		}
	}
	_, err := fc.PlaceGang(ctx, GangSpec{
		Name: "lat", Replicas: 2, Policy: GangSpread,
		App: AppSpec{AI: 0.5, TTLMillis: testTTL, MaxThreads: -1, Priority: PriorityLatency},
	})
	if !is400(err) {
		t.Errorf("latency gang with max_threads -1: %v, want 400", err)
	}
	if after := appSets(); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused requests moved apps: before %v, after %v", before, after)
	}
}

// TestServerRejectsUnknownFields: a misspelt request field is a 400 on
// every body-taking fleetd route, not a silently applied default.
// {"priorty":"latency"} used to be accepted and placed as batch — the
// typo dropped the app's priority class, the input to preemption.
func TestServerRejectsUnknownFields(t *testing.T) {
	ctx := context.Background()
	inv := NewInventory(InventoryConfig{NewClient: fastClients(nil)})
	if err := inv.Add("a", newCoopd(t).URL); err != nil {
		t.Fatal(err)
	}
	inv.Poll(ctx)
	srv, _ := newFleetServer(t, inv)
	for path, body := range map[string]string{
		"/v1/fleet/place":   `{"name":"x","ai":2,"priorty":"latency"}`,
		"/v1/fleet/gang":    `{"name":"g","replicas":2,"app":{"ai":2},"polcy":"spread"}`,
		"/v1/fleet/drain":   `{"machine":"a","undoo":true}`,
		"/v1/fleet/upgrade": `{"action":"start","machnes":["a"]}`,
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unknown field") {
			t.Errorf("POST %s %s: %d %s, want 400 naming the unknown field", path, body, rec.Code, rec.Body)
		}
	}
	inv.Poll(ctx)
	if m, _ := inv.Member("a"); len(m.Apps) != 0 || m.Draining {
		t.Errorf("a rejected request took effect: %d apps, draining=%v", len(m.Apps), m.Draining)
	}
	if st := srv.Upgrader().Status(); st.State != UpgradeIdle {
		t.Errorf("a rejected upgrade request started one: %+v", st)
	}
}

// TestClientTypedErrors: fleet.Client failures are *httpapi.APIError, so
// callers tell an unknown machine (404) from a dead member or a running
// upgrade (409) from a fleet with no room (503) by status — and the
// coopd client's predicates read them too.
func TestClientTypedErrors(t *testing.T) {
	ctx := context.Background()
	hs := newCoopd(t)
	part := faultinject.NewPartition()
	inv := NewInventory(InventoryConfig{NewClient: fastClients(part.Transport(nil)), FailAfter: 1})
	if err := inv.Add("a", hs.URL); err != nil {
		t.Fatal(err)
	}
	inv.Poll(ctx)
	_, fc := newFleetServer(t, inv)
	status := func(err error) int {
		var ae *httpapi.APIError
		if !errors.As(err, &ae) {
			t.Errorf("err %v is not an *httpapi.APIError", err)
			return 0
		}
		return ae.Status
	}

	_, err := fc.Drain(ctx, "ghost", false)
	if status(err) != http.StatusNotFound || !client.IsNotFound(err) {
		t.Errorf("drain of an unknown machine: %v, want 404", err)
	}
	if _, err = fc.Upgrade(ctx, UpgradeRequest{Action: "start", Machines: []string{"ghost"}}); status(err) != http.StatusNotFound {
		t.Errorf("upgrade over an unknown machine: %v, want 404", err)
	}
	if _, err = fc.Upgrade(ctx, UpgradeRequest{Action: "start"}); err != nil {
		t.Fatal(err)
	}
	if _, err = fc.Upgrade(ctx, UpgradeRequest{Action: "start"}); status(err) != http.StatusConflict {
		t.Errorf("second upgrade start: %v, want 409", err)
	}
	if _, err = fc.Upgrade(ctx, UpgradeRequest{Action: "abort"}); err != nil {
		t.Fatal(err)
	}

	part.Isolate(hostOf(t, hs.URL))
	inv.Poll(ctx)
	if _, err = fc.Drain(ctx, "a", false); status(err) != http.StatusConflict {
		t.Errorf("drain of a dead member: %v, want 409", err)
	}
	if _, err = fc.Place(ctx, memSpec("homeless")); status(err) != http.StatusServiceUnavailable {
		t.Errorf("place with every member dead: %v, want 503", err)
	}
}

// TestServerMetricsz: fleetd meters its routes — /metricsz counts move
// when /v1/fleet/place is called, errors included — and reports the
// Scorer's solve-cache counters and search work, how the member polls
// went and how the imbalance re-packs went.
func TestServerMetricsz(t *testing.T) {
	ctx := context.Background()
	inv := NewInventory(InventoryConfig{NewClient: fastClients(nil)})
	member := newCoopd(t).URL
	if err := inv.Add("a", member); err != nil {
		t.Fatal(err)
	}
	// Two compute-bound apps already run there: the Scorer's solves sit
	// on a plateau, where the search cuts subtrees that could only tie.
	for _, name := range []string{"dgemm-1", "dgemm-2"} {
		if _, err := fastClients(nil)(member).Register(ctx, compSpec(name).RegisterRequest()); err != nil {
			t.Fatal(err)
		}
	}
	inv.Poll(ctx)
	srv, fc := newFleetServer(t, inv)

	m, err := fc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ep, ok := m.Endpoints["place"]; !ok || ep.Count != 0 {
		t.Fatalf("fresh /metricsz place endpoint = %+v (present %v), want a zero entry", ep, ok)
	}
	if _, err := fc.Place(ctx, memSpec("web")); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Place(ctx, AppSpec{Name: "zero-ai"}); err == nil {
		t.Fatal("zero-AI spec accepted")
	}
	if m, err = fc.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	if ep := m.Endpoints["place"]; ep.Count != 2 || ep.Errors != 1 || ep.MaxMs <= 0 {
		t.Errorf("place endpoint after one placement and one rejection = %+v, want count 2, errors 1", ep)
	}
	if ep := m.Endpoints["metricsz"]; ep.Count != 1 {
		t.Errorf("metricsz endpoint = %+v, want the first read counted", ep)
	}
	hits, misses := srv.Placer().Scorer.CacheStats()
	if c := m.SolveCache; c.Misses == 0 || c.Hits != hits || c.Misses != misses {
		t.Errorf("solve_cache %+v, want the Scorer's counters (%d hits, %d misses)", c, hits, misses)
	}
	// Every miss ran one search, and each search scored a leaf at least;
	// the tie cuts ride along.
	if sc, want := m.Search, srv.Placer().Scorer.search.Stats(); sc.Solves != misses || sc.Leaves < sc.Solves || sc.Ties == 0 || sc != want {
		t.Errorf("search %+v, want %d solves with a leaf each and some tie cuts, the Scorer's %+v", sc, misses, want)
	}
	if m.UptimeSeconds < 0 {
		t.Errorf("uptime_s = %g", m.UptimeSeconds)
	}
	// One poll so far, a first contact. The member's answer to the
	// placement's register kept the copy exact, so neither poll after it
	// re-reads anything.
	inv.Poll(ctx)
	inv.Poll(ctx)
	if m, err = fc.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	if want := (PollMetrics{Unchanged: 2, Full: 1, Acked: 1}); m.Polls != want {
		t.Errorf("polls %+v, want %+v", m.Polls, want)
	}
	// Two quiet rounds over the unchanged fleet: the first re-packs, the
	// second reuses it.
	for i := 0; i < 2; i++ {
		if plan, err := srv.Rebalancer().Round(ctx); err != nil || len(plan.Moves) != 0 {
			t.Fatalf("round %d: %+v, %v: want a quiet round", i, plan, err)
		}
	}
	if m, err = fc.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	if want := (RepackMetrics{Reused: 1, Computed: 1}); m.Repacks != want {
		t.Errorf("repacks %+v after two quiet rounds, want %+v", m.Repacks, want)
	}
}

// TestServerMetriczCountsDecisions: /metricsz decisions counts each
// placement decision once and each equivalence class it scored once,
// however many members the class covers, and the classes the bar cut
// short; a refused request decides nothing.
func TestServerMetriczCountsDecisions(t *testing.T) {
	ctx := context.Background()
	inv := NewInventory(InventoryConfig{NewClient: fastClients(nil)})
	for _, id := range []string{"a", "b", "c"} {
		url := newCoopd(t).URL
		if err := inv.Add(id, url); err != nil {
			t.Fatal(err)
		}
		if id == "c" { // a and b run nothing, c one app: two classes
			if _, err := fastClients(nil)(url).Register(ctx, memSpec("resident").RegisterRequest()); err != nil {
				t.Fatal(err)
			}
		}
	}
	inv.Poll(ctx)
	_, fc := newFleetServer(t, inv)
	// Whichever member the first app joins, the second decision again
	// faces an empty machine and one running a memory-bound app. The
	// first decision scores a (empty) in full, and c's class — a second
	// memory-bound app, which a's lone one already saturates the bandwidth
	// of — falls to the ceiling test against a's marginal. The second
	// decision scores a (now one memory-bound app) in full, and b (empty)
	// against it: b wins, and c is a's class.
	for i, name := range []string{"web-1", "web-2"} {
		if _, err := fc.Place(ctx, memSpec(name)); err != nil {
			t.Fatal(err)
		}
		m, err := fc.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if want := (DecisionMetrics{Count: uint64(i + 1), Classes: 2 * uint64(i+1), Ceiling: 1}); m.Decisions != want {
			t.Errorf("decisions %+v after %d placements, want %+v", m.Decisions, i+1, want)
		}
	}
	if _, err := fc.Place(ctx, AppSpec{Name: "zero-ai"}); err == nil {
		t.Fatal("zero-AI spec accepted")
	}
	if m, err := fc.Metrics(ctx); err != nil || m.Decisions != (DecisionMetrics{Count: 2, Classes: 4, Ceiling: 1}) {
		t.Errorf("decisions %+v (%v) after a refused placement, want the two placements' only", m.Decisions, err)
	}
}

// TestServerPlaceEndpoints: the place response names the chosen
// member's endpoints, read straight from the inventory (AddDomain copied
// them from its caller and nothing changes them), so neither the
// caller's slice nor members added later show through.
func TestServerPlaceEndpoints(t *testing.T) {
	ctx := context.Background()
	eps := []string{newCoopd(t).URL, "http://127.0.0.1:1"} // an HA pair whose first answers
	inv := NewInventory(InventoryConfig{NewClient: fastClients(nil)})
	if err := inv.AddDomain("a", "rack1", eps...); err != nil {
		t.Fatal(err)
	}
	inv.Poll(ctx)
	srv, err := NewServer(ServerConfig{Inventory: inv, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	place := func(name string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/place", strings.NewReader(`{"name":"`+name+`","ai":0.5}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("place %s: %d %s", name, rec.Code, rec.Body)
		}
		var resp PlaceResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Machine != "a" {
			t.Fatalf("placed %s on %s, want a", name, resp.Machine)
		}
		out, err := json.Marshal(resp.Endpoints)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want, err := json.Marshal(eps)
	if err != nil {
		t.Fatal(err)
	}
	if got := place("web-1"); !bytes.Equal(got, want) {
		t.Fatalf("endpoints %s, want %s", got, want)
	}
	eps[0] = "http://rewritten"
	if err := inv.AddDomain("b", "rack2", "http://127.0.0.1:2"); err != nil {
		t.Fatal(err)
	}
	if err := inv.SetDraining("b", true); err != nil { // never polled, never a target anyway
		t.Fatal(err)
	}
	if got := place("web-2"); !bytes.Equal(got, want) {
		t.Fatalf("endpoints %s after the caller's slice changed and b joined, want %s", got, want)
	}
}

// TestServerMetricszCandidates: on a 64-member fleet a placement changes
// one member, so after a warm-up every placement's session copies that
// one snapshot row, rebuilds its candidate and reuses the other 63, and
// /metricsz says so.
func TestServerMetricszCandidates(t *testing.T) {
	ctx := context.Background()
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%02d", i)
	}
	w := newPollWorld(t, ids...)
	w.inv.Poll(ctx)
	srv, err := NewServer(ServerConfig{Inventory: w.inv, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	fc := NewClient(hs.URL, nil)
	if _, err := fc.Place(ctx, memSpec("warm-up")); err != nil {
		t.Fatal(err)
	}
	before, err := fc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := fc.Place(ctx, memSpec(fmt.Sprintf("web-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	after, err := fc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := CandidateMetrics{
		Reused:     after.Candidates.Reused - before.Candidates.Reused,
		Rebuilt:    after.Candidates.Rebuilt - before.Candidates.Rebuilt,
		RowsCopied: after.Candidates.RowsCopied - before.Candidates.RowsCopied,
	}
	if want := (CandidateMetrics{Reused: 63 * n, Rebuilt: n, RowsCopied: n}); got != want {
		t.Fatalf("%d placements: candidates %+v, want %+v", n, got, want)
	}
}
