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

// BenchmarkAllocateHeartbeat measures the request coopd serves most: a
// heartbeat of one of eight apps on SkylakeQuad (Table III's mix twice)
// against a registry that does not change, through the typed client, so
// every answer comes from the served table.
func BenchmarkAllocateHeartbeat(b *testing.B) {
	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{Machine: machine.SkylakeQuad()})
	if err != nil {
		b.Fatal(err)
	}
	cli := client.New("http://coopd", client.Config{HTTPClient: &http.Client{Transport: handlerTransport{srv.Handler()}}, MaxAttempts: 1})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 2; i++ {
		for _, ai := range []float64{1.0 / 32, 1.0 / 32, 1.0 / 32, 1} {
			resp, err := cli.Register(ctx, ctrlplane.RegisterRequest{Name: "app", AI: ai})
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, resp.ID)
		}
	}
	beat := func(i int) {
		resp, err := cli.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: ids[i%len(ids)], Running: 4, Workers: 8, GFlopRate: 1.5, GBRate: 48})
		if err != nil || resp.Allocation == nil {
			b.Fatalf("heartbeat: %+v, %v", resp, err)
		}
	}
	for i := range ids {
		beat(i) // the table and each app's answer
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		beat(i)
	}
}
