package ctrlplane_test

import (
	"context"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
)

// TestServerShedsAndCounts: a server with MaxInFlight=1 sheds the
// overlapping request with a typed 503 and surfaces the count in
// /metricsz. The in-flight slot is held deterministically by parking a
// register request mid-body (the admitted handler blocks reading it),
// so the probe on the same endpoint must be shed.
func TestServerShedsAndCounts(t *testing.T) {
	_, c := startServer(t, ctrlplane.ServerConfig{MaxInFlight: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	pr, pw := io.Pipe()
	slowReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL()+"/v1/register", pr)
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

	// The parked request holds the register endpoint's only slot; a
	// probe register must come back 503 + overloaded once the handler
	// has been admitted (poll for the admission race only).
	var probeErr error
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, probeErr = c.Register(ctx, ctrlplane.RegisterRequest{Name: "probe", AI: 1})
		if client.IsOverloaded(probeErr) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !client.IsOverloaded(probeErr) {
		t.Fatalf("probe register err = %v, want typed overloaded 503", probeErr)
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
