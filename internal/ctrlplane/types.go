// Package ctrlplane is the networked allocation control plane: an HTTP
// server (stdlib only) where cooperating applications register their
// roofline profile (arithmetic intensity, NUMA placement), heartbeat
// execution statistics, and receive per-NUMA-node thread allocations
// solved by internal/roofline over a configured internal/machine
// topology.
//
// It turns the paper's Fig. 1 in-process agent into a service: the
// registry tracks live applications (heartbeat-liveness eviction frees
// a silent application's cores), the solver runs the roofline
// optimization behind the shared internal/solvecache (keyed by topology
// hash and sorted demand set), and every request is metered by the
// HTTP scaffold shared with fleetd (internal/httpapi) and traced
// (internal/trace).
//
// The wire protocol is JSON over HTTP:
//
//	POST   /v1/register    RegisterRequest   -> RegisterResponse
//	POST   /v1/heartbeat   HeartbeatRequest  -> HeartbeatResponse
//	POST   /v1/report      ReportRequest     -> ReportResponse
//	DELETE /v1/apps/{id}                     -> 204
//	GET    /v1/allocations                   -> AllocationsResponse
//	GET    /v1/state                         -> StateResponse, ETag (If-None-Match: 304)
//	GET    /healthz                          -> HealthResponse
//	GET    /metricsz                         -> MetricsResponse
//	GET    /tracez                           -> Chrome trace-event JSON: each route's last 1024 requests
//
// See internal/ctrlplane/client for the typed Go client.
package ctrlplane

import (
	"strconv"

	"repro/internal/httpapi"
	"repro/internal/machine"
	"repro/internal/roofline"
	"repro/internal/solvecache"
)

// Placement names used on the wire (roofline.Placement as a string).
const (
	PlacementPerfect = "numa-perfect"
	PlacementBad     = "numa-bad"
)

// Priority classes used on the wire, ordered system > latency > batch
// (the empty class is batch); RegisterRequest.Spec refuses any other.
// coopd stores an app's class verbatim with its record and never reads
// it: the class is fleetd's scheduling input (internal/fleet), and the
// member registry is the one place it lives.
const (
	PrioritySystem  = "system"
	PriorityLatency = "latency"
	PriorityBatch   = "batch"
)

// MaxNameBytes caps RegisterRequest.Name. IDs keep 32 characters of the
// name; the rest is carried, journaled and replicated verbatim, so it
// must not be the network's to size.
const MaxNameBytes = 256

// RegisterRequest announces an application to the control plane.
type RegisterRequest struct {
	// Name labels the application in allocations and reports (at most
	// MaxNameBytes; longer names are refused with 400).
	Name string `json:"name"`
	// AI is the application's arithmetic intensity (FLOP/byte). > 0.
	AI float64 `json:"ai"`
	// Placement is "numa-perfect" (default) or "numa-bad".
	Placement string `json:"placement,omitempty"`
	// HomeNode holds all data of a numa-bad application.
	HomeNode int `json:"home_node,omitempty"`
	// MaxThreads caps the total threads allocated to this application;
	// 0 means "as many as the solver wants".
	MaxThreads int `json:"max_threads,omitempty"`
	// TTLMillis overrides the server's heartbeat deadline for this
	// application; 0 uses the server default. An application that does
	// not heartbeat within its TTL is evicted and its cores
	// reallocated to the survivors.
	TTLMillis int64 `json:"ttl_ms,omitempty"`
	// Priority is the application's class: "system", "latency" or
	// "batch" (the default; see PrioritySystem). It is journaled,
	// replicated and echoed on /v1/state, never solved on.
	Priority string `json:"priority,omitempty"`
	// MovedRound is the fleet round of the app's last move, kept like Priority.
	MovedRound uint64 `json:"moved_round,omitempty"`
	// Solved, when set, offers the optimum the sender (fleetd's placement
	// decision) already solved for the demand set this machine holds once
	// the registration lands. It is a cache fill, never state: the server
	// adopts it only when it would otherwise run that very solve and the
	// counts validate; it is not journaled, replicated or echoed.
	Solved *Solved `json:"solved,omitempty"`
}

// Solved is an offered solve. Key is solvecache.Digest of the demand
// set's cache key as the sender derived it; Counts[s] is the per-node
// thread count of the app in the key's slot s.
type Solved struct {
	Key    uint64 `json:"key"`
	Counts []int  `json:"counts"`
}

// AppAllocation is one application's slice of the machine.
type AppAllocation struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// PerNode[j] is the thread count on NUMA node j (the paper's
	// thread-control option 3).
	PerNode []int `json:"per_node"`
	// Threads is the machine-wide total (sum of PerNode).
	Threads int `json:"threads"`
	// PredictedGFLOPS is the roofline model's rate for this app under
	// the served allocation.
	PredictedGFLOPS float64 `json:"predicted_gflops"`
}

// RegisterResponse confirms a registration.
type RegisterResponse struct {
	// ID is the handle for heartbeats and deregistration.
	ID string `json:"id"`
	// Generation is the registry generation after this registration;
	// it increases whenever the live application set changes.
	Generation uint64 `json:"generation"`
	// TTLMillis is the effective heartbeat deadline.
	TTLMillis int64 `json:"ttl_ms"`
	// Allocation is this application's slice under the new optimum.
	Allocation *AppAllocation `json:"allocation,omitempty"`
	// TotalGFLOPS is the machine-wide prediction of that optimum, sent
	// only when it was solved for the registry exactly at Generation: the
	// total a /v1/state read at Generation would answer.
	TotalGFLOPS float64 `json:"total_gflops,omitempty"`
}

// HeartbeatRequest keeps an application alive and reports its stats
// (the runtime monitoring data the paper's agent consumes each period).
type HeartbeatRequest struct {
	ID string `json:"id"`
	// TasksExecuted counts completed tasks since start.
	TasksExecuted uint64 `json:"tasks_executed,omitempty"`
	// Running/Pending/Workers mirror taskrt.Stats.
	Running int `json:"running,omitempty"`
	Pending int `json:"pending,omitempty"`
	Workers int `json:"workers,omitempty"`
	// GFlopRate and GBRate are the observed compute and memory-traffic
	// rates; their ratio is an online AI estimate the server records.
	GFlopRate float64 `json:"gflop_rate,omitempty"`
	GBRate    float64 `json:"gb_rate,omitempty"`
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	// Generation is the registry generation Allocation was solved at.
	Generation uint64 `json:"generation"`
	// Allocation is the app's current slice, so a heartbeat doubles as
	// an allocation poll.
	Allocation *AppAllocation `json:"allocation,omitempty"`
}

// AppView is the registry's public record of one application.
type AppView struct {
	ID         string  `json:"id"`
	Name       string  `json:"name"`
	AI         float64 `json:"ai"`
	Placement  string  `json:"placement"`
	HomeNode   int     `json:"home_node"`
	MaxThreads int     `json:"max_threads,omitempty"`
	TTLMillis  int64   `json:"ttl_ms"`
	Priority   string  `json:"priority,omitempty"`
	MovedRound uint64  `json:"moved_round,omitempty"`
	// AgeMillis and IdleMillis are times since registration and since
	// the last heartbeat.
	AgeMillis  int64  `json:"age_ms"`
	IdleMillis int64  `json:"idle_ms"`
	Beats      uint64 `json:"beats"`
	// ObservedAI is GFlopRate/GBRate from the last heartbeat (0 when
	// the app has not reported rates).
	ObservedAI float64 `json:"observed_ai,omitempty"`
	// FittedAI is the online-recalibrated arithmetic intensity currently
	// substituted for the declared AI in the solver (0: declared model
	// in effect). Set only when the adaptive loop confirmed drift.
	FittedAI float64 `json:"fitted_ai,omitempty"`
	// Drifted reports that a fitted model is applied for this app.
	Drifted bool `json:"drifted,omitempty"`
	// Tracker is the adaptive loop's view of this app, present only
	// when coopd runs -recalibrate and the app has reported telemetry
	// (an app whose fit was inherited across a failover has none until
	// it reports again). Tracker changes do not bump the generation, so
	// a conditional read answered 304 does not refresh them.
	Tracker *AppTracker `json:"tracker,omitempty"`
}

// ReportSample is one observed throughput measurement in a telemetry
// report (the wire form of adapt.Sample).
type ReportSample struct {
	// GFLOPS and GBps are the observed compute and memory-traffic rates
	// over the sampling interval; their ratio is the observed AI.
	GFLOPS float64 `json:"gflops"`
	GBps   float64 `json:"gbps"`
	// Threads is the thread count the rates were observed under (0:
	// unknown).
	Threads int `json:"threads,omitempty"`
}

// ReportRequest delivers an application's telemetry samples to the
// adaptive-recalibration loop (POST /v1/report; requires a coopd
// started with -recalibrate).
type ReportRequest struct {
	ID      string         `json:"id"`
	Samples []ReportSample `json:"samples"`
}

// AppTracker is the adaptive loop's view of one application: the
// detector's state and the streaming fit it has drawn from the app's
// telemetry (the applied model is AppView.FittedAI/Drifted).
type AppTracker struct {
	// State is the drift detector's state: "steady", "suspect", or
	// "drifted".
	State string `json:"state"`
	// FittedAI and Confidence are the current streaming fit.
	FittedAI   float64 `json:"fitted_ai,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	// RelErr is the fitted-vs-declared relative AI error.
	RelErr float64 `json:"rel_err,omitempty"`
	// Samples and Windows count the telemetry ingested for this app.
	Samples uint64 `json:"samples,omitempty"`
	Windows uint64 `json:"windows,omitempty"`
	// Resolves counts the re-solves this app triggered (0 for a
	// correctly-declared steady app).
	Resolves uint64 `json:"resolves,omitempty"`
}

// ReportResponse acknowledges a telemetry report with the app's
// tracker after ingesting the samples.
type ReportResponse struct {
	Generation uint64 `json:"generation"`
	AppTracker
	// Drifted reports whether a fitted model is applied in the solver
	// after this report.
	Drifted bool `json:"drifted,omitempty"`
}

// StateQuery is what a GET /v1/state caller already holds of this
// server's state.
type StateQuery struct {
	// Incarnation is the StateResponse.Incarnation of the caller's last
	// full read or acknowledged register ("" on first contact), sent as
	// ?incarnation=…. While it matches, a full answer leaves the machine
	// out.
	Incarnation string
	// Generation, presented only when Conditional, is the generation of
	// that copy. Present it only while the copy is still exactly the
	// member's state at the pair: the client sends
	// StateETag(Incarnation, Generation) as If-None-Match, and while both
	// are current the answer is a 304 with no body.
	Generation  uint64
	Conditional bool
}

// StateETag is the entity tag of the /v1/state representation at one
// incarnation and generation: every full answer carries it as ETag, and
// a request presenting it as If-None-Match while it is current is
// answered 304.
func StateETag(incarnation string, generation uint64) string {
	var buf [64]byte
	return string(appendStateETag(buf[:0], incarnation, generation))
}

// appendStateETag appends StateETag(incarnation, generation) to b.
func appendStateETag(b []byte, incarnation string, generation uint64) []byte {
	b = append(b, '"')
	b = append(b, incarnation...)
	b = append(b, '.')
	b = strconv.AppendUint(b, generation, 10)
	return append(b, '"')
}

// StateResponse is the /v1/state body: everything a fleet scheduler
// tracks of one machine — the demand set, the solved aggregate, the
// topology — read from one registry snapshot, so the generation is the
// generation of exactly these apps.
type StateResponse struct {
	// Incarnation is an opaque id of this life of the registry's state:
	// it changes when the daemon restarts and when a replica installs a
	// leader's snapshot. A generation means nothing across incarnations.
	Incarnation string `json:"incarnation"`
	Generation  uint64 `json:"generation"`
	// Apps is the live set, sorted by ID (absent when empty).
	Apps []AppView `json:"apps,omitempty"`
	// TotalGFLOPS is the model's machine-wide prediction for Apps, as in
	// AllocationsResponse.
	TotalGFLOPS float64 `json:"total_gflops,omitempty"`
	// Machine is the topology, sent only when the query's incarnation is
	// not this one (first contact, or the daemon restarted — possibly on
	// another machine description).
	Machine *machine.Machine `json:"machine,omitempty"`
}

// ReferenceAllocations reports the paper's structured baselines for the
// current demand mix, so clients can see what the optimization buys
// (Table I/II: uneven 254 vs even 140 vs one-node-per-app 128 GFLOPS).
type ReferenceAllocations struct {
	// EvenGFLOPS is the "same share of every node" allocation
	// (Fig. 2 b); 0 when infeasible (cores not divisible).
	EvenGFLOPS float64 `json:"even_gflops,omitempty"`
	// NodePerAppGFLOPS dedicates node i to app i (Fig. 2 c); 0 when
	// there are more apps than nodes.
	NodePerAppGFLOPS float64 `json:"node_per_app_gflops,omitempty"`
}

// AllocationsResponse is the machine-wide allocation table.
type AllocationsResponse struct {
	Generation uint64 `json:"generation"`
	// Machine is the topology's display name.
	Machine string `json:"machine"`
	// Policy is the solver policy ("roofline" or "fairshare").
	Policy string          `json:"policy"`
	Apps   []AppAllocation `json:"apps"`
	// TotalGFLOPS is the model's machine-wide prediction.
	TotalGFLOPS float64               `json:"total_gflops"`
	Reference   *ReferenceAllocations `json:"reference,omitempty"`
	// CacheHit reports whether the answer ran no search: the table served
	// for this generation or the solver cache held it.
	CacheHit bool `json:"cache_hit"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status        string  `json:"status"`
	Machine       string  `json:"machine"`
	UptimeSeconds float64 `json:"uptime_s"`
	Apps          int     `json:"apps"`
	Generation    uint64  `json:"generation"`
}

// EndpointMetrics summarizes one endpoint's request history.
type EndpointMetrics = httpapi.EndpointMetrics

// SolverMetrics summarizes the allocation cache.
type SolverMetrics = solvecache.Counters

// PersistMetrics summarizes the daemon's crash-recovery store.
type PersistMetrics struct {
	// Enabled reports whether a state dir is configured.
	Enabled bool `json:"enabled"`
	// RestoredApps is how many applications the last restart recovered.
	RestoredApps int `json:"restored_apps,omitempty"`
	// Failures counts journal appends that failed.
	Failures uint64 `json:"failures,omitempty"`
	// TornRecords counts corrupt journal tails discarded at startup.
	TornRecords int `json:"torn_records,omitempty"`
	// Compactions counts journal-into-snapshot folds.
	Compactions uint64 `json:"compactions,omitempty"`
	// FlushError is the first background write-behind flush failure, if
	// any. Once set, further set mutations are rejected (503s) rather
	// than acknowledged unpersisted.
	FlushError string `json:"flush_error,omitempty"`
}

// AdaptMetrics summarizes the adaptive-recalibration loop.
type AdaptMetrics struct {
	// Enabled reports whether the daemon runs with -recalibrate.
	Enabled bool `json:"enabled"`
	// Tracked/Drifted/Applied count apps with telemetry, in the drifted
	// state, and with a fitted model substituted in the solver.
	Tracked int `json:"tracked,omitempty"`
	Drifted int `json:"drifted,omitempty"`
	Applied int `json:"applied,omitempty"`
	// Samples and Windows count ingested telemetry.
	Samples uint64 `json:"samples,omitempty"`
	Windows uint64 `json:"windows,omitempty"`
	// Threshold is the configured relative-error drift threshold.
	Threshold float64 `json:"threshold"`
	// DriftsConfirmed/DriftsCleared/Refits/PhaseChanges count detector
	// events since start.
	DriftsConfirmed uint64 `json:"drifts_confirmed,omitempty"`
	DriftsCleared   uint64 `json:"drifts_cleared,omitempty"`
	Refits          uint64 `json:"refits,omitempty"`
	PhaseChanges    uint64 `json:"phase_changes,omitempty"`
}

// TableMetrics counts how heartbeats and allocation reads were answered:
// from the table served for the registry's current version (Hits), or
// by a snapshot and solve that installed a new one (Solves). The solver
// counters see only the solves.
type TableMetrics struct {
	Hits   uint64 `json:"hits"`
	Solves uint64 `json:"solves"`
}

// MetricsResponse is the /metricsz body. SolverSearch is how hard the
// solver's searches worked: the solves its cache misses ran, and their
// leaf and bound evaluations. Table is how the served table answered.
type MetricsResponse struct {
	UptimeSeconds float64                    `json:"uptime_s"`
	Apps          int                        `json:"apps"`
	Generation    uint64                     `json:"generation"`
	Evictions     uint64                     `json:"evictions"`
	Solver        SolverMetrics              `json:"solver"`
	SolverSearch  roofline.SearchStats       `json:"solver_search"`
	Table         TableMetrics               `json:"table"`
	Endpoints     map[string]EndpointMetrics `json:"endpoints"`
	Persist       *PersistMetrics            `json:"persist,omitempty"`
	Adapt         *AdaptMetrics              `json:"adapt,omitempty"`
}

// The error body and its machine-readable codes are shared with fleetd
// and live in internal/httpapi.
const (
	ErrCodeUnknownApp = httpapi.ErrCodeUnknownApp
	ErrCodeNotLeader  = httpapi.ErrCodeNotLeader
	ErrCodeOverloaded = httpapi.ErrCodeOverloaded
)

// ErrorResponse carries an error message on non-2xx statuses.
type ErrorResponse = httpapi.ErrorResponse

// Replication headers stamped on every response by an HA replica, so
// clients can fence against deposed leaders without new body fields.
const (
	// HeaderEpoch is the replica's fencing epoch (monotonic across
	// leadership changes). A client that has seen epoch E rejects
	// responses from any replica still announcing an older epoch.
	HeaderEpoch = "X-Coop-Epoch"
	// HeaderRole is "leader" or "follower".
	HeaderRole = "X-Coop-Role"
	// HeaderLeader is the current leader's advertised URL, a discovery
	// hint for multi-endpoint clients.
	HeaderLeader = "X-Coop-Leader"
)

// ReplicaStatusResponse is the /v1/replica/status body: one replica's
// view of the HA pair — its role, the lease, and how far behind the
// leader's journal it is.
type ReplicaStatusResponse struct {
	// Role is "leader" or "follower" ("standalone" never serves this
	// endpoint — a plain coopd 404s it).
	Role string `json:"role"`
	// Self is this replica's advertised URL; Leader is its view of the
	// current leader.
	Self   string `json:"self"`
	Leader string `json:"leader,omitempty"`
	// Epoch is the fencing epoch (bumps on every promotion).
	Epoch uint64 `json:"epoch"`
	// Generation mirrors the registry generation.
	Generation uint64 `json:"generation"`
	// LeaseRemainingMillis: leader — time until its lease would expire
	// without renewal; follower — time until it would start campaigning.
	LeaseRemainingMillis int64 `json:"lease_remaining_ms"`
	// AppliedSeq is the last replication-stream record applied
	// (follower) or the last record published (leader).
	AppliedSeq uint64 `json:"applied_seq"`
	// LagMillis is the time since the follower last heard from the
	// leader (0 on the leader itself) — the replication lag bound.
	LagMillis int64 `json:"lag_ms"`
	// Promotions counts this process's follower->leader transitions.
	Promotions uint64 `json:"promotions"`
	// Peers lists the other replicas' advertised URLs.
	Peers []string `json:"peers,omitempty"`
}
