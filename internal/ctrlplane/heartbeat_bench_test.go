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

// heartbeater registers Table III's mix twice (eight apps) on a
// SkylakeQuad coopd served in process, through the typed client, and
// returns a heartbeat of the i-th app mod 8 after warming every app's
// answer: a registry that does not change, so every answer comes from
// the served table.
func heartbeater(tb testing.TB) (beat func(i int)) {
	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{Machine: machine.SkylakeQuad()})
	if err != nil {
		tb.Fatal(err)
	}
	cli := client.New("http://coopd", client.Config{HTTPClient: &http.Client{Transport: handlerTransport{srv.Handler()}}, MaxAttempts: 1})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 2; i++ {
		for _, ai := range []float64{1.0 / 32, 1.0 / 32, 1.0 / 32, 1} {
			resp, err := cli.Register(ctx, ctrlplane.RegisterRequest{Name: "app", AI: ai})
			if err != nil {
				tb.Fatal(err)
			}
			ids = append(ids, resp.ID)
		}
	}
	beat = func(i int) {
		resp, err := cli.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: ids[i%len(ids)], Running: 4, Workers: 8, GFlopRate: 1.5, GBRate: 48})
		if err != nil || resp.Allocation == nil {
			tb.Fatalf("heartbeat: %+v, %v", resp, err)
		}
	}
	for i := range ids {
		beat(i)
	}
	return beat
}

// BenchmarkAllocateHeartbeat measures the request coopd serves most: a
// heartbeat through the typed client, answered from the served table.
func BenchmarkAllocateHeartbeat(b *testing.B) {
	beat := heartbeater(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		beat(i)
	}
}

// TestHeartbeatExchangeAllocs holds one warm heartbeat exchange, both
// ends of it, under a ceiling: the client hands the request to the
// transport (no http.Client.Do and its header clone) and coopd decodes
// it with a pooled strict decoder.
func TestHeartbeatExchangeAllocs(t *testing.T) {
	const ceiling = 53
	beat := heartbeater(t)
	i := 0
	n := testing.AllocsPerRun(200, func() { beat(i); i++ })
	t.Logf("a warm heartbeat exchange allocates %.1f objects", n)
	if n > ceiling {
		t.Errorf("a warm heartbeat exchange allocates %.1f objects, ceiling %d", n, ceiling)
	}
}
