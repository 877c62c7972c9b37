package fleet

import (
	"context"
	"net/http"
	"strings"
	"time"

	"repro/internal/httpapi"
)

// Client is the typed client for the fleetd HTTP API, used by `coopctl
// fleet` and tests. It is deliberately thinner than the coopd client
// (no retries: fleet operations are operator-driven, and a placement
// retried blindly could double-register).
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the fleetd at baseURL. httpClient may
// be nil (a dedicated client with a 10s timeout is used).
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 10 * time.Second}
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: httpClient}
}

// do performs one API call; in/out may be nil. A non-2xx answer is an
// *httpapi.APIError, so callers tell 404 (unknown machine) from 409
// (dead member, upgrade running) from 503 (no candidate) by status.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	_, err := httpapi.Call(ctx, c.hc, method, c.base+path, "", in, out)
	return err
}

// Place asks the fleet to place an app and returns the chosen machine
// and app ID.
func (c *Client) Place(ctx context.Context, spec AppSpec) (*PlaceResponse, error) {
	return httpapi.Typed[PlaceResponse](ctx, c.do, http.MethodPost, "/v1/fleet/place", spec)
}

// PlaceGang asks the fleet to admit a gang atomically.
func (c *Client) PlaceGang(ctx context.Context, g GangSpec) (*GangResult, error) {
	return httpapi.Typed[GangResult](ctx, c.do, http.MethodPost, "/v1/fleet/gang", g)
}

// Machines lists the fleet's members.
func (c *Client) Machines(ctx context.Context) (*MachinesResponse, error) {
	return httpapi.Typed[MachinesResponse](ctx, c.do, http.MethodGet, "/v1/fleet/machines", nil)
}

// Plan returns the rebalancer's current dry-run plan.
func (c *Client) Plan(ctx context.Context) (*Plan, error) {
	return httpapi.Typed[Plan](ctx, c.do, http.MethodGet, "/v1/fleet/plan", nil)
}

// Drain toggles draining on a member.
func (c *Client) Drain(ctx context.Context, machineID string, undo bool) (*DrainResponse, error) {
	req := DrainRequest{Machine: machineID, Undo: undo}
	return httpapi.Typed[DrainResponse](ctx, c.do, http.MethodPost, "/v1/fleet/drain", req)
}

// Upgrade starts or aborts a rolling upgrade.
func (c *Client) Upgrade(ctx context.Context, req UpgradeRequest) (*UpgradeStatus, error) {
	return httpapi.Typed[UpgradeStatus](ctx, c.do, http.MethodPost, "/v1/fleet/upgrade", req)
}

// UpgradeStatus reads the rolling-upgrade controller's state.
func (c *Client) UpgradeStatus(ctx context.Context) (*UpgradeStatus, error) {
	return httpapi.Typed[UpgradeStatus](ctx, c.do, http.MethodGet, "/v1/fleet/upgrade", nil)
}

// Health reads the fleet /healthz.
func (c *Client) Health(ctx context.Context) (*FleetHealthResponse, error) {
	return httpapi.Typed[FleetHealthResponse](ctx, c.do, http.MethodGet, "/healthz", nil)
}

// Metrics reads the fleet /metricsz.
func (c *Client) Metrics(ctx context.Context) (*FleetMetricsResponse, error) {
	return httpapi.Typed[FleetMetricsResponse](ctx, c.do, http.MethodGet, "/metricsz", nil)
}
