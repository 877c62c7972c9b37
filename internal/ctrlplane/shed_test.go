package ctrlplane_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/machine"
)

// TestServerShedsAndCounts: a server with MaxInFlight=1 sheds the
// overlapping request with a typed 503 and surfaces the count in
// /metricsz. The in-flight slot is held deterministically by parking a
// register request mid-body (the admitted handler blocks reading it),
// and the probe on the same endpoint goes out only once the server has
// reported that admission, so it must be shed.
func TestServerShedsAndCounts(t *testing.T) {
	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{Machine: machine.PaperModel(), MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan string, 1) // the first admission; later ones are dropped
	ctrlplane.OnAdmit(srv, func(name string) {
		select {
		case admitted <- name:
		default:
		}
	})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	c := client.New(hs.URL, client.Config{MaxAttempts: 2, BaseBackoff: 5 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	pr, pw := io.Pipe()
	slowReq, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/register", pr)
	if err != nil {
		t.Fatal(err)
	}
	slowReq.Header.Set("Content-Type", "application/json")
	parked := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(slowReq)
		if err == nil {
			resp.Body.Close()
		}
		parked <- err
	}()
	if _, err := pw.Write([]byte(`{"name":"slow`)); err != nil {
		t.Fatal(err)
	}
	select {
	case name := <-admitted:
		if name != "register" {
			t.Fatalf("first admitted request went to %q, want register", name)
		}
	case <-ctx.Done():
		t.Fatal("the parked register was never admitted")
	}

	// The parked request holds the register endpoint's only slot; a
	// probe register must come back 503 + overloaded.
	if _, err := c.Register(ctx, ctrlplane.RegisterRequest{Name: "probe", AI: 1}); !client.IsOverloaded(err) {
		t.Fatalf("probe register err = %v, want typed overloaded 503", err)
	}

	// Unpark: the held request completes normally — admitted work is
	// served, only the excess was refused.
	if _, err := pw.Write([]byte(`","ai":0.5}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-parked; err != nil {
		t.Fatalf("parked register failed: %v", err)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, ep := range m.Endpoints {
		total += ep.Shed
	}
	if total == 0 {
		t.Error("sheds happened but /metricsz shows a zero shed count")
	}
}
