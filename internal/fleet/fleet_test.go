package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/machine"
)

// testTTL keeps test apps alive without heartbeats for the whole test.
const testTTL = int64(10 * 60 * 1000)

// newCoopd starts a paper-model coopd over httptest and returns its
// base URL. The server is not Started (no janitor goroutine); reads
// sweep lazily and the long test TTL keeps apps alive regardless.
func newCoopd(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{
		Machine:    machine.PaperModel(),
		DefaultTTL: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs
}

// fastClients builds an inventory client factory that fails fast (one
// attempt, short timeout) so dead-machine polls do not stall tests.
// rt, when non-nil, wraps the transport (fault injection).
func fastClients(rt http.RoundTripper) func(string) *client.Client {
	return func(endpoint string) *client.Client {
		hc := &http.Client{Timeout: 2 * time.Second}
		if rt != nil {
			hc.Transport = rt
		}
		return client.New(endpoint, client.Config{
			HTTPClient: hc, MaxAttempts: 1, RequestTimeout: 2 * time.Second,
		})
	}
}

// planners builds a Placer and Rebalancer over inv with cfg's knobs,
// sharing one Scorer, exactly as NewServer wires them.
func planners(t testing.TB, inv *Inventory, cfg ServerConfig) (*Placer, *Rebalancer) {
	t.Helper()
	cfg.Inventory = inv
	pl, reb, err := newPlanners(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl, reb
}

// The paper's Table I ingredients: memory-bound (AI 0.5) and
// compute-bound (AI 10) apps, plus a NUMA-bad variant.
func memSpec(name string) AppSpec {
	return AppSpec{Name: name, AI: 0.5, TTLMillis: testTTL}
}

func compSpec(name string) AppSpec {
	return AppSpec{Name: name, AI: 10, TTLMillis: testTTL}
}

func badSpec(name string) AppSpec {
	return AppSpec{Name: name, AI: 0.5, Placement: ctrlplane.PlacementBad, HomeNode: 0, TTLMillis: testTTL}
}

// tableIMixSpecs is the fleet-sized demand: 6 memory-bound + 2
// compute-bound apps, interleaved so placement decisions are exercised
// in a non-trivial order. Greedy marginal scoring lands them as
// {3 mem + 1 comp} on two machines (the Table I mix each) only after a
// machine loss forces a re-pack; initially they spread {mem,comp} /
// {mem,comp} / {4 mem}.
func tableIMixSpecs() []AppSpec {
	return []AppSpec{
		memSpec("mem-1"), memSpec("mem-2"), memSpec("mem-3"),
		compSpec("comp-1"), compSpec("comp-2"),
		memSpec("mem-4"), memSpec("mem-5"), memSpec("mem-6"),
	}
}

// assertTableIRanking asserts a coopd serves the paper's Table I
// numbers for its local demand set: optimal ~254 GFLOPS beating the
// even split ~140 beating node-per-app ~128, strictly ordered.
func assertTableIRanking(t *testing.T, label string, cli *client.Client) {
	t.Helper()
	resp, err := cli.Allocations(context.Background())
	if err != nil {
		t.Fatalf("%s: allocations: %v", label, err)
	}
	if len(resp.Apps) != 4 {
		t.Fatalf("%s: %d apps in allocation, want the Table I mix of 4", label, len(resp.Apps))
	}
	if resp.TotalGFLOPS < 250 || resp.TotalGFLOPS > 260 {
		t.Fatalf("%s: optimal %v GFLOPS, want ~254", label, resp.TotalGFLOPS)
	}
	ref := resp.Reference
	if ref == nil {
		t.Fatalf("%s: no reference allocations", label)
	}
	if ref.EvenGFLOPS < 135 || ref.EvenGFLOPS > 145 {
		t.Fatalf("%s: even split %v GFLOPS, want ~140", label, ref.EvenGFLOPS)
	}
	if ref.NodePerAppGFLOPS < 123 || ref.NodePerAppGFLOPS > 133 {
		t.Fatalf("%s: node-per-app %v GFLOPS, want ~128", label, ref.NodePerAppGFLOPS)
	}
	if !(resp.TotalGFLOPS > ref.EvenGFLOPS && ref.EvenGFLOPS > ref.NodePerAppGFLOPS) {
		t.Fatalf("%s: ranking not strict: optimal %v, even %v, node-per-app %v",
			label, resp.TotalGFLOPS, ref.EvenGFLOPS, ref.NodePerAppGFLOPS)
	}
}

// appsOn returns how many apps machine id hosts according to the
// inventory.
func appsOn(t *testing.T, inv *Inventory, id string) int {
	t.Helper()
	m, ok := inv.Member(id)
	if !ok {
		t.Fatalf("unknown member %s", id)
	}
	return len(m.Apps)
}
