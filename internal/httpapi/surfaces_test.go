package httpapi_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/persist"
	"repro/internal/ctrlplane/replica"
	"repro/internal/fleet"
	"repro/internal/httpapi"
	"repro/internal/machine"
)

// route is one registered route of a surface; body marks the ones that
// decode a JSON request body.
type route struct {
	method, path string
	body         bool
}

var coopdRoutes = []route{
	{"POST", "/v1/register", true},
	{"POST", "/v1/heartbeat", true},
	{"POST", "/v1/report", true},
	{"DELETE", "/v1/apps/app-1", false},
	{"GET", "/v1/allocations", false},
	{"GET", "/v1/state", false},
	{"GET", "/healthz", false},
	{"GET", "/metricsz", false},
	{"GET", "/tracez", false},
}

// coopdGone are reads GET /v1/state (and, for the adaptive loop's
// counters, /metricsz) took over: coopd no longer serves them, and
// neither does a replica wrapping it.
var coopdGone = []string{"/v1/apps", "/v1/machine", "/v1/drift"}

var replicaRoutes = []route{
	{"GET", "/v1/replica/status", false},
	{"POST", "/v1/replica/announce", true},
	{"GET", "/v1/replicate", false},
}

var fleetdRoutes = []route{
	{"POST", "/v1/fleet/place", true},
	{"POST", "/v1/fleet/gang", true},
	{"GET", "/v1/fleet/machines", false},
	{"GET", "/v1/fleet/plan", false},
	{"POST", "/v1/fleet/drain", true},
	{"POST", "/v1/fleet/upgrade", true},
	{"GET", "/v1/fleet/upgrade", false},
	{"GET", "/healthz", false},
	{"GET", "/metricsz", false},
}

func newCoopd(t *testing.T, store *persist.Store) *ctrlplane.Server {
	t.Helper()
	// Recalibrate mounts /v1/report's decoder (it 404s first otherwise).
	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{Machine: machine.PaperModel(), Store: store, Recalibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// do serves one request straight through the surface's Handler() — no
// http.Server, so nothing but the scaffold stands between an oversized
// or malformed request and the handler — and decodes an error body.
func do(t *testing.T, h http.Handler, method, path string, body io.Reader) (*httptest.ResponseRecorder, httpapi.ErrorResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
	var er httpapi.ErrorResponse
	if rec.Code >= 400 {
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&er); err != nil || er.Error == "" {
			t.Errorf("%s %s: %d body is not an ErrorResponse (%v): %q", method, path, rec.Code, err, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: %d Content-Type = %q, want application/json", method, path, rec.Code, ct)
		}
	}
	return rec, er
}

// TestRouteTable holds every registered route of the three surfaces —
// coopd, a replica's Node.Handler() (its own routes and the coopd it
// wraps) and fleetd — to the scaffold's contract: a wrong method is 405
// with an Allow header, a body over the cap is refused before the
// handler runs, an unknown JSON field is 400, an unserved path (the
// removed coopd reads included) is 404, and every body with a status
// >= 400 is an ErrorResponse.
func TestRouteTable(t *testing.T) {
	coopd := newCoopd(t, nil)

	store, err := persist.Open(t.TempDir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	wrapped := newCoopd(t, store)
	node, err := replica.NewNode(replica.Config{Self: "http://self", Server: wrapped, Bootstrap: true})
	if err != nil {
		t.Fatal(err)
	}

	inv := fleet.NewInventory(fleet.InventoryConfig{})
	fleetd, err := fleet.NewServer(fleet.ServerConfig{Inventory: inv})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleetd.Close)

	surfaces := []struct {
		name   string
		h      http.Handler
		routes []route
		// published is the surface's /metricsz endpoint count: the table
		// above must not fall behind the routes the surface registers.
		published int
		gone      []string
	}{
		{"coopd", coopd.Handler(), coopdRoutes, len(coopdRoutes), coopdGone},
		{"replica", node.Handler(), append(append([]route{}, replicaRoutes...), coopdRoutes...), len(coopdRoutes), coopdGone},
		{"fleetd", fleetd.Handler(), fleetdRoutes, len(fleetdRoutes), nil},
	}
	huge := `{"pad":"` + strings.Repeat("x", httpapi.MaxBodyBytes) + `"}`
	for _, s := range surfaces {
		t.Run(s.name, func(t *testing.T) {
			for _, rt := range s.routes {
				// PATCH is registered nowhere.
				rec, _ := do(t, s.h, "PATCH", rt.path, nil)
				if rec.Code != http.StatusMethodNotAllowed || !strings.Contains(rec.Header().Get("Allow"), rt.method) {
					t.Errorf("PATCH %s: %d, Allow %q; want 405 allowing %s", rt.path, rec.Code, rec.Header().Get("Allow"), rt.method)
				}
				if !rt.body {
					continue
				}
				rec, er := do(t, s.h, rt.method, rt.path, strings.NewReader(`{"no_such_field":1}`))
				if rec.Code != http.StatusBadRequest || !strings.Contains(er.Error, "no_such_field") {
					t.Errorf("%s %s with an unknown field: %d %q, want 400 naming the field", rt.method, rt.path, rec.Code, er.Error)
				}
				// Declared length over the cap: refused unread.
				rec, _ = do(t, s.h, rt.method, rt.path, strings.NewReader(huge))
				if rec.Code != http.StatusRequestEntityTooLarge {
					t.Errorf("%s %s with a %d-byte body: %d, want 413", rt.method, rt.path, len(huge), rec.Code)
				}
				// Undeclared length (chunked): the decoder stops at the cap.
				rec, er = do(t, s.h, rt.method, rt.path, struct{ io.Reader }{strings.NewReader(huge)})
				if rec.Code != http.StatusBadRequest || !strings.Contains(er.Error, "invalid request body") {
					t.Errorf("%s %s with a chunked %d-byte body: %d %q, want 400 from the decoder", rt.method, rt.path, len(huge), rec.Code, er.Error)
				}
			}
			for _, path := range append([]string{"/no/such/route"}, s.gone...) {
				if rec, _ := do(t, s.h, "GET", path, nil); rec.Code != http.StatusNotFound {
					t.Errorf("GET %s: %d, want 404", path, rec.Code)
				}
			}
			rec, _ := do(t, s.h, "GET", "/metricsz", nil)
			var m struct {
				Endpoints map[string]httpapi.EndpointMetrics `json:"endpoints"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || len(m.Endpoints) != s.published {
				t.Errorf("/metricsz publishes %d endpoints (%v), the route table has %d", len(m.Endpoints), err, s.published)
			}
		})
	}
	// None of the refused requests reached a handler's effect.
	if n := coopd.Registry().Len() + wrapped.Registry().Len(); n != 0 {
		t.Errorf("%d apps registered by requests that were all refused", n)
	}
}
