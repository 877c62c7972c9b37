package ctrlplane_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/machine"
)

// handlerTransport serves every request in process through h: the whole
// exchange (encode, route, decode, answer, read back) with no sockets.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// rotation serves every request in process through hs[at].
type rotation struct {
	hs []http.Handler
	at int
}

func (t *rotation) RoundTrip(req *http.Request) (*http.Response, error) {
	return handlerTransport{t.hs[t.at]}.RoundTrip(req)
}

// heartbeater registers Table III's mix twice (eight apps) on each of n
// SkylakeQuad coopds served in process, which therefore give the apps
// the same IDs, and returns a heartbeat of the i-th app mod 8 through
// one typed client after warming every app's answer: registries that do
// not change, so every answer comes from a served table. The client
// beats the eight apps on one coopd, then on the next: with n = 1 each
// heartbeat presents the answer its coopd gave last time, which still
// stands (a 204); with n = 2 it presents the other coopd's, which does
// not (a 200).
func heartbeater(tb testing.TB, n int) (beat func(i int)) {
	tr := &rotation{}
	ctx := context.Background()
	var ids []string
	for range n {
		srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{Machine: machine.SkylakeQuad()})
		if err != nil {
			tb.Fatal(err)
		}
		tr.hs = append(tr.hs, srv.Handler())
		reg := client.New("http://coopd", client.Config{HTTPClient: &http.Client{Transport: handlerTransport{srv.Handler()}}, MaxAttempts: 1})
		ids = ids[:0]
		for i := 0; i < 2; i++ {
			for _, ai := range []float64{1.0 / 32, 1.0 / 32, 1.0 / 32, 1} {
				resp, err := reg.Register(ctx, ctrlplane.RegisterRequest{Name: "app", AI: ai})
				if err != nil {
					tb.Fatal(err)
				}
				ids = append(ids, resp.ID)
			}
		}
	}
	cli := client.New("http://coopd", client.Config{HTTPClient: &http.Client{Transport: tr}, MaxAttempts: 1})
	beat = func(i int) {
		tr.at = i / len(ids) % n
		resp, err := cli.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: ids[i%len(ids)], Running: 4, Workers: 8, GFlopRate: 1.5, GBRate: 48})
		if err != nil || resp.Allocation == nil {
			tb.Fatalf("heartbeat: %+v, %v", resp, err)
		}
	}
	for i := range 2 * n * len(ids) {
		beat(i)
	}
	return beat
}

// BenchmarkAllocateHeartbeat measures the request coopd serves most: a
// heartbeat through the typed client whose held answer still stands,
// answered 204.
func BenchmarkAllocateHeartbeat(b *testing.B) {
	beat := heartbeater(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		beat(i)
	}
}

// BenchmarkAllocateHeartbeatChanged measures a heartbeat whose held
// answer no longer stands: a full answer from the served table, which
// the client then holds.
func BenchmarkAllocateHeartbeatChanged(b *testing.B) {
	beat := heartbeater(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		beat(i)
	}
}

// TestHeartbeatExchangeAllocs holds one warm heartbeat exchange, both
// ends of it, under a ceiling, for each of the two answers: a held
// answer that stands (204: no table read, no body, no decode) and one
// that does not (200: the full answer, which the client then holds).
func TestHeartbeatExchangeAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		coopds  int
		ceiling float64
	}{
		{"held", 1, 32},
		{"changed", 2, 53},
	} {
		beat := heartbeater(t, tc.coopds)
		i := 0
		n := testing.AllocsPerRun(200, func() { beat(i); i++ })
		t.Logf("a warm %s heartbeat exchange allocates %.1f objects", tc.name, n)
		if n > tc.ceiling {
			t.Errorf("a warm %s heartbeat exchange allocates %.1f objects, ceiling %v", tc.name, n, tc.ceiling)
		}
	}
}
