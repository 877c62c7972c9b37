package ctrlplane_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/ctrlplane/persist"
	"repro/internal/machine"
)

// stateServer is a coopd on a hand-moved clock whose janitor never
// runs, so only the lazy sweep of a read evicts anything.
type stateServer struct {
	srv *ctrlplane.Server
	cli *client.Client
	hs  *httptest.Server
	now *time.Time
}

func newStateServer(t *testing.T, store *persist.Store) *stateServer {
	t.Helper()
	now := time.Unix(1_700_000_000, 0)
	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{
		Machine:    machine.PaperModel(),
		DefaultTTL: time.Hour,
		Clock:      func() time.Time { return now },
		Store:      store,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return &stateServer{srv: srv, cli: client.New(hs.URL, client.Config{MaxAttempts: 1}), hs: hs, now: &now}
}

// raw GETs /v1/state with the query as written, presenting validator
// (when not "") as If-None-Match. It returns the answer's ETag and its
// body, nil for a 304.
func (s *stateServer) raw(t *testing.T, query, validator string) (string, *ctrlplane.StateResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, s.hs.URL+"/v1/state"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if validator != "" {
		req.Header.Set("If-None-Match", validator)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		if body, _ := io.ReadAll(resp.Body); len(body) != 0 {
			t.Fatalf("GET /v1/state%s: a 304 with a %d-byte body", query, len(body))
		}
		return resp.Header.Get("ETag"), nil
	}
	var st ctrlplane.StateResponse
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/state%s: status %d, decode error %v", query, resp.StatusCode, err)
	}
	return resp.Header.Get("ETag"), &st
}

func names(apps []ctrlplane.AppView) []string {
	out := make([]string, len(apps))
	for i, a := range apps {
		out[i] = a.Name
	}
	return out
}

// stateTableIMix is the full /v1/state body for the Table I mix seven
// seconds in, one app beaten at observed AI 0.5, on a coopd without
// -recalibrate (incarnation blanked): the adaptive loop's tracker field
// must leave it byte for byte as it was before the field existed.
const stateTableIMix = `{"incarnation":"","generation":4,"apps":[` +
	`{"id":"comp-4","name":"comp","ai":10,"placement":"numa-perfect","home_node":0,"ttl_ms":3600000,"age_ms":7000,"idle_ms":7000,"beats":0},` +
	`{"id":"mem-a-1","name":"mem-a","ai":0.5,"placement":"numa-perfect","home_node":0,"ttl_ms":3600000,"age_ms":7000,"idle_ms":2000,"beats":1,"observed_ai":0.5},` +
	`{"id":"mem-b-2","name":"mem-b","ai":0.5,"placement":"numa-perfect","home_node":0,"ttl_ms":3600000,"age_ms":7000,"idle_ms":7000,"beats":0},` +
	`{"id":"mem-c-3","name":"mem-c","ai":0.5,"placement":"numa-perfect","home_node":0,"ttl_ms":3600000,"age_ms":7000,"idle_ms":7000,"beats":0}],` +
	`"total_gflops":254,"machine":{"name":"paper-model-4x8","nodes":[` +
	`{"cores":8,"peak_gflops":10,"mem_bandwidth":32},{"cores":8,"peak_gflops":10,"mem_bandwidth":32},` +
	`{"cores":8,"peak_gflops":10,"mem_bandwidth":32},{"cores":8,"peak_gflops":10,"mem_bandwidth":32}]}}`

// TestStateIsOneReadOfAppsTotalAndMachine: the unconditional answer is
// the registry's apps field by field, the total /v1/allocations serves
// and the configured machine, and its bytes are stateTableIMix.
func TestStateIsOneReadOfAppsTotalAndMachine(t *testing.T) {
	ctx := context.Background()
	s := newStateServer(t, nil)
	ids := registerTableIMix(t, s.cli)
	*s.now = s.now.Add(5 * time.Second)
	if _, err := s.cli.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: ids[0], GFlopRate: 3, GBRate: 6}); err != nil {
		t.Fatal(err)
	}
	*s.now = s.now.Add(2 * time.Second)

	st, err := s.cli.State(ctx, ctrlplane.StateQuery{})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := s.cli.Allocations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Incarnation == "" {
		t.Fatalf("first contact answered %+v", st)
	}
	reg, gen := s.srv.Registry().Snapshot()
	if st.Generation != 4 || st.Generation != gen || st.Generation != alloc.Generation {
		t.Fatalf("generation %d, registry %d, /v1/allocations %d, want 4 everywhere", st.Generation, gen, alloc.Generation)
	}
	want := make([]ctrlplane.AppView, len(reg))
	for i, a := range reg {
		want[i] = ctrlplane.AppView{
			ID: a.ID, Name: a.Spec.Name, AI: a.Spec.AI, Placement: a.Spec.Placement.String(),
			HomeNode: int(a.Spec.HomeNode), MaxThreads: a.Spec.MaxThreads, TTLMillis: a.TTL.Milliseconds(),
			AgeMillis: s.now.Sub(a.RegisteredAt).Milliseconds(), IdleMillis: s.now.Sub(a.LastBeat).Milliseconds(),
			Beats: a.Beats, ObservedAI: a.ObservedAI(),
		}
	}
	if !reflect.DeepEqual(st.Apps, want) {
		t.Fatalf("apps\n  %+v\nregistry\n  %+v", st.Apps, want)
	}
	for _, a := range st.Apps {
		if a.ID == ids[0] && (a.Beats != 1 || a.ObservedAI != 0.5 || a.AgeMillis != 7000 || a.IdleMillis != 2000) {
			t.Fatalf("the beaten app reads %+v, want 1 beat at observed AI 0.5, 7 s old and 2 s idle", a)
		}
	}
	if st.TotalGFLOPS != alloc.TotalGFLOPS {
		t.Fatalf("total %v, /v1/allocations %v", st.TotalGFLOPS, alloc.TotalGFLOPS)
	}
	if !reflect.DeepEqual(st.Machine, s.srv.Machine()) {
		t.Fatalf("machine %v, configured %v", st.Machine, s.srv.Machine())
	}
	resp, err := http.Get(s.hs.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if etag, want := resp.Header.Get("ETag"), ctrlplane.StateETag(st.Incarnation, 4); etag != want {
		t.Fatalf("ETag %q, want %q", etag, want)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(strings.Replace(string(body), st.Incarnation, "", 1))
	if got != stateTableIMix {
		t.Fatalf("/v1/state body\n  %s\nwant\n  %s", got, stateTableIMix)
	}
}

// TestStateConditional walks the validator: only the ETag of the current
// incarnation and generation is answered 304, with no body, and only
// once whatever missed its deadline is evicted; a current ?incarnation=
// alone keeps the machine off the wire; everything else is a first
// contact.
func TestStateConditional(t *testing.T) {
	ctx := context.Background()
	s := newStateServer(t, nil)
	short, err := s.cli.Register(ctx, ctrlplane.RegisterRequest{Name: "short", AI: 0.5, TTLMillis: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.cli.Register(ctx, ctrlplane.RegisterRequest{Name: "long", AI: 10}); err != nil {
		t.Fatal(err)
	}
	full, err := s.cli.State(ctx, ctrlplane.StateQuery{})
	if err != nil {
		t.Fatal(err)
	}
	inc, gen := full.Incarnation, full.Generation
	current := ctrlplane.StateETag(inc, gen)

	before, err := s.cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hit, err := s.cli.State(ctx, ctrlplane.StateQuery{Incarnation: inc, Generation: gen, Conditional: true}); !errors.Is(err, client.ErrNotModified) || hit != nil {
		t.Fatalf("current validator answered %+v, %v; want a 304", hit, err)
	}
	after, err := s.cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Solver != before.Solver {
		t.Fatalf("a 304 consulted the solver: %+v -> %+v", before.Solver, after.Solver)
	}
	if ep := after.Endpoints["state"]; ep.Count != before.Endpoints["state"].Count+1 || ep.Errors != 0 {
		t.Fatalf("/metricsz does not meter the 304 as a served request: %+v", ep)
	}

	// A heartbeat moves counters, not the generation: still a 304, and
	// the validator alone decides it — the query is not even parsed.
	if _, err := s.cli.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: short.ID}); err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"?incarnation=" + inc, "", "?incarnation=feedface"} {
		if etag, st := s.raw(t, query, current); st != nil || etag != current {
			t.Fatalf("%q after a heartbeat: %+v, ETag %q; want a 304 tagged %q", query, st, etag, current)
		}
	}

	for _, c := range []struct {
		query, validator string
		machine          bool
	}{
		{"", "", true},
		{"?incarnation=feedface", ctrlplane.StateETag("feedface", gen), true},
		{"?incarnation=" + inc + "0", ctrlplane.StateETag(inc+"0", gen), true},
		{"?incarnation=" + inc, "", false},
		{"?incarnation=" + inc, ctrlplane.StateETag(inc, gen-1), false},
		{"?incarnation=" + inc, ctrlplane.StateETag(inc, gen+1), false},
		{"?incarnation=" + inc, "W/" + current, false},
		{"?incarnation=" + inc, "*", false},
		{"?incarnation=" + inc, current + ", " + current, false},
		{"?incarnation=" + inc, strings.Trim(current, `"`), false},
		{"?incarnation=" + inc + "&generation=2", "", false},
	} {
		etag, st := s.raw(t, c.query, c.validator)
		if st == nil || st.Incarnation != inc || st.Generation != gen || !reflect.DeepEqual(names(st.Apps), []string{"long", "short"}) || st.TotalGFLOPS != full.TotalGFLOPS || etag != current {
			t.Errorf("%q with %q answered %+v, ETag %q; want the full state tagged %q", c.query, c.validator, st, etag, current)
			continue
		}
		if (st.Machine != nil) != c.machine {
			t.Errorf("%q: machine sent = %v, want %v", c.query, st.Machine != nil, c.machine)
		}
	}

	// "short" runs out. No janitor runs here: the conditional read itself
	// must evict it before it compares validators.
	*s.now = s.now.Add(31 * time.Second)
	st, err := s.cli.State(ctx, ctrlplane.StateQuery{Incarnation: inc, Generation: gen, Conditional: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != gen+1 || !reflect.DeepEqual(names(st.Apps), []string{"long"}) || st.Machine != nil {
		t.Fatalf("past short's deadline the conditional read answered %+v, want the full state without it", st)
	}
	if st.TotalGFLOPS != 320 {
		t.Fatalf("total %v with one compute-bound app left, want 320", st.TotalGFLOPS)
	}
}

// TestRegisterAnswersTheTotalOfItsGeneration: a register's answer
// carries the total a /v1/state read at its generation answers, so a
// caller that held the state one generation before may hold it at the
// answer's.
func TestRegisterAnswersTheTotalOfItsGeneration(t *testing.T) {
	ctx := context.Background()
	s := newStateServer(t, nil)
	for i, req := range []ctrlplane.RegisterRequest{
		{Name: "comp", AI: 10},
		{Name: "mem", AI: 0.5, MaxThreads: 6},
		{Name: "bad", AI: 2, Placement: ctrlplane.PlacementBad, HomeNode: 3},
	} {
		resp, err := s.cli.Register(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.cli.State(ctx, ctrlplane.StateQuery{})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Generation != uint64(i+1) || resp.Generation != st.Generation || resp.TotalGFLOPS == 0 || resp.TotalGFLOPS != st.TotalGFLOPS {
			t.Fatalf("register %d answered generation %d, total %v; /v1/state reads %d, %v", i, resp.Generation, resp.TotalGFLOPS, st.Generation, st.TotalGFLOPS)
		}
	}
}

// TestStateIncarnationGuardsAgainstABA: a generation number alone can
// come round again with other apps behind it — after a restart without
// state, and after a replica installs a leader's snapshot. Both are new
// incarnations and answer in full.
func TestStateIncarnationGuardsAgainstABA(t *testing.T) {
	ctx := context.Background()
	old := newStateServer(t, nil)
	for _, name := range []string{"a", "b"} {
		if _, err := old.cli.Register(ctx, ctrlplane.RegisterRequest{Name: name, AI: 2}); err != nil {
			t.Fatal(err)
		}
	}
	cached, err := old.cli.State(ctx, ctrlplane.StateQuery{})
	if err != nil {
		t.Fatal(err)
	}
	held := ctrlplane.StateQuery{Incarnation: cached.Incarnation, Generation: cached.Generation, Conditional: true}

	// The daemon is restarted empty and two other apps register: the
	// generation is 2 again.
	restarted := newStateServer(t, nil)
	for _, name := range []string{"x", "y"} {
		if _, err := restarted.cli.Register(ctx, ctrlplane.RegisterRequest{Name: name, AI: 2}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := restarted.cli.State(ctx, held)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != held.Generation || st.Incarnation == held.Incarnation || st.Machine == nil || !reflect.DeepEqual(names(st.Apps), []string{"x", "y"}) {
		t.Fatalf("a restarted daemon back at generation %d answered %+v, want its own state in full", held.Generation, st)
	}

	// The old daemon, as a follower, installs that state as a snapshot:
	// same process, same generation number, other apps.
	if st, err := old.cli.State(ctx, held); !errors.Is(err, client.ErrNotModified) {
		t.Fatalf("before the snapshot install: %+v, %v; want a 304", st, err)
	}
	if err := old.srv.Registry().ResetFromSnapshot(restarted.srv.Registry().PersistSnapshot()); err != nil {
		t.Fatal(err)
	}
	st, err = old.cli.State(ctx, held)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != held.Generation || st.Incarnation == held.Incarnation || st.Machine == nil || !reflect.DeepEqual(names(st.Apps), []string{"x", "y"}) {
		t.Fatalf("after a snapshot install at generation %d the daemon answered %+v, want the installed state in full", held.Generation, st)
	}
}

// TestIncarnationIsNotState: the incarnation is in no snapshot and no
// journal, so a daemon recovering its state dir resumes the generation
// under a new incarnation.
func TestIncarnationIsNotState(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	open := func() *persist.Store {
		st, err := persist.Open(dir, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	first := newStateServer(t, open())
	registerTableIMix(t, first.cli)
	before, err := first.cli.State(ctx, ctrlplane.StateQuery{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(first.srv.Registry().PersistSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(snap), before.Incarnation) {
		t.Fatalf("the snapshot carries the incarnation %s: %s", before.Incarnation, snap)
	}

	second := newStateServer(t, open())
	after, err := second.cli.State(ctx, ctrlplane.StateQuery{Incarnation: before.Incarnation, Generation: before.Generation, Conditional: true})
	if err != nil {
		t.Fatal(err)
	}
	if after.Incarnation == before.Incarnation || after.Generation != before.Generation || after.Machine == nil || len(after.Apps) != 4 {
		t.Fatalf("the recovered daemon answered %+v to the validator of its previous life (generation %d)", after, before.Generation)
	}
}
