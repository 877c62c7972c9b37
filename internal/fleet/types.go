package fleet

// Wire types for the fleetd HTTP API:
//
//	POST /v1/fleet/place    AppSpec          -> PlaceResponse
//	POST /v1/fleet/gang     GangSpec         -> GangResult
//	GET  /v1/fleet/machines                  -> MachinesResponse
//	GET  /v1/fleet/plan                      -> Plan (read-only dry run)
//	POST /v1/fleet/drain    DrainRequest     -> DrainResponse
//	POST /v1/fleet/upgrade  UpgradeRequest   -> UpgradeStatus
//	GET  /v1/fleet/upgrade                   -> UpgradeStatus
//	GET  /healthz                            -> FleetHealthResponse
//	GET  /metricsz                           -> FleetMetricsResponse
//
// Routes are mounted through internal/httpapi like coopd's: a wrong
// method is 405 + Allow, a request body may not carry unknown fields,
// and every error body is an httpapi.ErrorResponse, which the typed
// clients return as *httpapi.APIError.

import (
	"repro/internal/httpapi"
	"repro/internal/roofline"
	"repro/internal/solvecache"
)

// Member status strings reported in MachineView.
const (
	StatusHealthy = "healthy"
	// StatusSuspect marks a member with failed polls that has not yet
	// crossed the FailAfter threshold.
	StatusSuspect = "suspect"
	StatusDead    = "dead"
	// StatusUnknown marks a member never successfully polled.
	StatusUnknown = "unknown"
	// StatusQuarantined marks a member the flap detector benched: too
	// many alive<->dead transitions in a short window. It may be
	// answering polls, but it is not a placement target until the
	// quarantine backoff expires.
	StatusQuarantined = "quarantined"
)

// MachineView is one member machine on the wire.
type MachineView struct {
	ID string `json:"id"`
	// Domain is the member's failure domain (rack/zone).
	Domain    string   `json:"domain,omitempty"`
	Endpoints []string `json:"endpoints"`
	// Status is healthy, suspect, dead, quarantined, or unknown.
	Status   string `json:"status"`
	Draining bool   `json:"draining,omitempty"`
	// QuarantinedForMillis is how much of the quarantine backoff remains
	// (present only while quarantined).
	QuarantinedForMillis int64 `json:"quarantined_for_ms,omitempty"`
	// Machine is the topology's display name ("" until known).
	Machine string `json:"machine,omitempty"`
	// Apps is the member's demand set as the fleet last saw it.
	Apps []PlacedApp `json:"apps"`
	// NUMABadApps counts numa-bad registrations (the anti-affinity
	// input).
	NUMABadApps int `json:"numa_bad_apps,omitempty"`
	// TotalGFLOPS and Generation are those of the member's last full
	// read or acknowledged register.
	TotalGFLOPS float64 `json:"total_gflops"`
	Generation  uint64  `json:"generation"`
	// SinceSeenMillis is the time since the last successful poll (-1
	// when never polled).
	SinceSeenMillis int64 `json:"since_seen_ms"`
	Failures        int   `json:"failures,omitempty"`
	// StaleApps lists re-homed app IDs pending cleanup on revival.
	StaleApps []string `json:"stale_apps,omitempty"`
}

// MachinesResponse is the /v1/fleet/machines body.
type MachinesResponse struct {
	Machines []MachineView `json:"machines"`
	// FleetGFLOPS sums healthy members' served aggregates.
	FleetGFLOPS float64 `json:"fleet_gflops"`
}

// PlaceResponse confirms a placement.
type PlaceResponse struct {
	// Machine is the chosen member; ID is the app's handle on that
	// machine's coopd (heartbeats go directly to the machine).
	Machine string `json:"machine"`
	ID      string `json:"id"`
	// Endpoints are the chosen machine's coopd URLs, so the caller can
	// reach its app without a fleet round trip.
	Endpoints []string `json:"endpoints"`
	// Score is the marginal fleet GFLOPS of the placement; After is the
	// machine's predicted aggregate with the app.
	Score float64 `json:"score"`
	After float64 `json:"after"`
}

// DrainRequest asks the rebalancer to empty a member.
type DrainRequest struct {
	Machine string `json:"machine"`
	// Undo re-enables placements instead.
	Undo bool `json:"undo,omitempty"`
}

// DrainResponse acknowledges a drain toggle.
type DrainResponse struct {
	Machine  string `json:"machine"`
	Draining bool   `json:"draining"`
}

// FleetHealthResponse is the fleet /healthz body.
type FleetHealthResponse struct {
	Status      string `json:"status"`
	Machines    int    `json:"machines"`
	Healthy     int    `json:"healthy"`
	Dead        int    `json:"dead"`
	Quarantined int    `json:"quarantined,omitempty"`
	Draining    int    `json:"draining"`
	Apps        int    `json:"apps"`
}

// PollMetrics counts member polls by outcome, and the registers that
// spared one. Unchanged polls found the member at the incarnation and
// generation the inventory held and read nothing (a 304); Full polls
// re-read its state (first contact, a change on either side, or the poll
// after a failed one); Failed polls got no answer from any endpoint.
// Acked counts the fleet's own registers whose answer kept the copy
// exact, so the poll after them need not re-read what the fleet just
// wrote. Fenced counts member answers — to polls and to the fleet's own
// calls — refused because they came from a replica older than one
// already heard (a lagging follower or a deposed leader; see
// client.Group). A fleet at rest should be nearly all Unchanged.
type PollMetrics struct {
	Unchanged uint64 `json:"unchanged"`
	Full      uint64 `json:"full"`
	Failed    uint64 `json:"failed"`
	Acked     uint64 `json:"acked"`
	Fenced    uint64 `json:"fenced"`
}

// RepackMetrics counts the imbalance pass's re-packs by outcome.
// Computed ran the greedy from-scratch re-pack (a failed one too);
// Reused found the re-pack of byte-equal inputs memoized and solved
// nothing. Rounds over a fleet at rest should be nearly all Reused.
type RepackMetrics struct {
	Reused   uint64 `json:"reused"`
	Computed uint64 `json:"computed"`
}

// CandidateMetrics counts the planning sessions' candidates by where
// they came from. Reused candidates were taken as an earlier session left
// them, their member's demand unchanged since; Rebuilt ones were derived
// from the member's snapshot row again (first sight, a change on the
// member, or a session that committed onto the candidate). RowsCopied
// counts the snapshot rows the sessions copied from member records that
// changed since their pooled row was written. A placement on a fleet
// otherwise at rest copies one row and rebuilds one candidate: the
// member it changed.
type CandidateMetrics struct {
	Reused     uint64 `json:"reused"`
	Rebuilt    uint64 `json:"rebuilt"`
	RowsCopied uint64 `json:"rows_copied"`
}

// DecisionMetrics counts the Scorer's placement decisions (Count) and
// the class marginals they scored (Classes). A decision scores each
// equivalence class among its candidates once, however many members the
// class covers, so Classes/Count is the mean number of classes a
// decision faced. Ceiling and BelowBar count the classes whose with-app
// solve a decision's bar cut short (see decide): Ceiling those the
// root test pruned — the machine's ceiling with the app, less what it
// delivers now, is below the bar — which touch the solve memo not at
// all, so count as neither a hit nor a miss; BelowBar the solves that
// searched and ended below the bar, each a memo miss whose outcome the
// memo keeps, unless a concurrent solve left an entry there that
// answers every bar it does. A class that a kept below-bar outcome
// prunes is a memo hit and counts in neither.
type DecisionMetrics struct {
	Count    uint64 `json:"count"`
	Classes  uint64 `json:"classes"`
	Ceiling  uint64 `json:"ceiling"`
	BelowBar uint64 `json:"below_bar"`
}

// FleetMetricsResponse is the fleet /metricsz body: how hard the Scorer
// worked, how the member polls, the planning candidates, the decisions
// and the imbalance re-packs went and what every endpoint served, in
// coopd's shapes.
type FleetMetricsResponse struct {
	UptimeSeconds float64             `json:"uptime_s"`
	SolveCache    solvecache.Counters `json:"solve_cache"`
	Polls         PollMetrics         `json:"polls"`
	Candidates    CandidateMetrics    `json:"candidates"`
	Decisions     DecisionMetrics     `json:"decisions"`
	Repacks       RepackMetrics       `json:"repacks"`
	// Endpoints is keyed by the route names NewServer mounts.
	Endpoints map[string]httpapi.EndpointMetrics `json:"endpoints"`
	// Search is how hard the Scorer's searches worked: the solves its
	// cache misses ran, and their leaf and bound evaluations.
	Search roofline.SearchStats `json:"search"`
}

// UpgradeRequest drives the rolling-upgrade controller
// (POST /v1/fleet/upgrade).
type UpgradeRequest struct {
	// Action is "start" or "abort".
	Action string `json:"action"`
	// Machines is the serial drain order for "start"; empty means every
	// member in ID order.
	Machines []string `json:"machines,omitempty"`
	// HealthFloor aborts the upgrade when the placeable fraction of the
	// fleet (healthy and not draining) falls below it. 0 selects the
	// default (0.5).
	HealthFloor float64 `json:"health_floor,omitempty"`
}

// UpgradeStatus is the controller's wire view (GET /v1/fleet/upgrade
// and the response to every POST).
type UpgradeStatus struct {
	// State is idle, running, done, or aborted.
	State string `json:"state"`
	// Current is the machine draining now ("" between machines).
	Current string `json:"current,omitempty"`
	// Queue lists machines not yet drained; Done lists completed ones.
	Queue []string `json:"queue,omitempty"`
	Done  []string `json:"done,omitempty"`
	// HealthFloor is the abort floor the run was started with.
	HealthFloor float64 `json:"health_floor,omitempty"`
	// Reason explains an aborted state.
	Reason string `json:"reason,omitempty"`
}
