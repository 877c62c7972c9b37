package ctrlplane_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/machine"
)

// TestTracezShowsNewestRequests: /tracez is every route's window of its
// last 1024 requests as the meter keeps it. More heartbeats than the
// window holds leave only the newest; a route with few requests keeps
// them all. Spans are named by route pattern, never by a path with an
// app ID in it, and each request has a lane of its own.
func TestTracezShowsNewestRequests(t *testing.T) {
	const window = 1024
	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{Machine: machine.PaperModel()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	serve := func(method, path, body string, want int) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s: %d %s, want %d", method, path, rec.Code, rec.Body, want)
		}
		return rec.Body.Bytes()
	}
	if got := strings.TrimSpace(string(serve("GET", "/tracez", "", http.StatusOK))); got != "[]" {
		t.Fatalf("an idle coopd's /tracez = %q, want []", got)
	}

	var ids []string
	for i := 0; i < 3; i++ {
		var resp ctrlplane.RegisterResponse
		if err := json.Unmarshal(serve("POST", "/v1/register", fmt.Sprintf(`{"name":"app%d","ai":1}`, i), http.StatusOK), &resp); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.ID)
	}
	const beats = window + 100
	for i := 0; i < beats; i++ {
		serve("POST", "/v1/heartbeat", `{"id":"`+ids[0]+`"}`, http.StatusOK)
	}
	serve("DELETE", "/v1/apps/"+ids[1], "", http.StatusNoContent)
	serve("DELETE", "/v1/apps/"+ids[2], "", http.StatusNoContent)

	var events []struct {
		Name, Ph, PID string
		TID           int
	}
	if err := json.Unmarshal(serve("GET", "/tracez", "", http.StatusOK), &events); err != nil {
		t.Fatal(err)
	}
	patterns := map[string]string{
		"register":   "POST /v1/register",
		"heartbeat":  "POST /v1/heartbeat",
		"deregister": "DELETE /v1/apps/{id}",
		"tracez":     "GET /tracez",
	}
	// The lanes each route must show: its request numbers in the window.
	want := map[string][2]int{"register": {1, 3}, "heartbeat": {beats - window + 1, beats}, "deregister": {1, 2}, "tracez": {1, 1}}
	lanes := map[string]map[int]bool{}
	for _, ev := range events {
		if ev.Ph != "X" || ev.Name != patterns[ev.PID] {
			t.Fatalf("event %+v, want a complete span named %q", ev, patterns[ev.PID])
		}
		if lanes[ev.PID] == nil {
			lanes[ev.PID] = map[int]bool{}
		}
		if lanes[ev.PID][ev.TID] {
			t.Fatalf("%s lane %d holds two spans", ev.PID, ev.TID)
		}
		lanes[ev.PID][ev.TID] = true
	}
	for pid, r := range want {
		if len(lanes[pid]) != r[1]-r[0]+1 {
			t.Errorf("%s: %d spans, want lanes %d..%d", pid, len(lanes[pid]), r[0], r[1])
		}
		for n := r[0]; n <= r[1]; n++ {
			if !lanes[pid][n] {
				t.Errorf("%s: request %d missing, want lanes %d..%d", pid, n, r[0], r[1])
				break
			}
		}
	}
	if len(lanes) != len(want) {
		t.Errorf("spans of %d routes, want those of %d: %v", len(lanes), len(want), patterns)
	}
}
