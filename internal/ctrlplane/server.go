package ctrlplane

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/ctrlplane/persist"
	"repro/internal/freelist"
	"repro/internal/httpapi"
	"repro/internal/machine"
	"repro/internal/roofline"
	"repro/internal/trace"
)

// ServerConfig tunes the control-plane server.
type ServerConfig struct {
	// Machine is the topology allocations are computed over. Required.
	Machine *machine.Machine
	// Policy selects the solver (PolicyRoofline, default, or
	// PolicyFairShare).
	Policy string
	// DefaultTTL is the heartbeat deadline for apps that do not request
	// their own (default 15s).
	DefaultTTL time.Duration
	// SweepInterval is the janitor period for liveness eviction
	// (default DefaultTTL/4). The janitor runs only between Start and
	// Close; read endpoints also sweep lazily, so allocations never
	// include an app past its deadline.
	SweepInterval time.Duration
	// Clock is the time source (nil: time.Now), injectable for tests.
	Clock func() time.Time
	// Store, when set, makes the registry crash-durable: the registry
	// recovers from it (TTLs re-armed, generation resumed; NewServer
	// fails if the journal does not replay) and journals every later
	// mutation. The caller owns the store's lifetime and must Close it
	// after the server.
	Store *persist.Store
	// MaxInFlight bounds concurrently served requests per endpoint;
	// excess requests are shed with 503 + Retry-After (and counted in
	// /metricsz) instead of queueing. 0: unbounded.
	MaxInFlight int
	// Recalibrate enables the adaptive loop (internal/adapt): telemetry
	// ingest on POST /v1/report, online refitting of each app's demand
	// model, and fitted-model substitution into the solver on confirmed
	// drift. Off by default — without it /v1/report is rejected and the
	// declared models are authoritative.
	Recalibrate bool
	// Adapt tunes the adaptive loop (zero fields take the documented
	// adapt defaults). Ignored unless Recalibrate.
	Adapt adapt.Config
}

// Server is the allocation control plane. Create with NewServer, mount
// Handler on any http.Server, and call Start/Close around its lifetime
// to run the eviction janitor.
type Server struct {
	cfg    ServerConfig
	reg    *Registry
	solver *Solver
	adapt  *adapt.Store // nil unless cfg.Recalibrate
	routes *httpapi.Routes
	start  time.Time

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// serve holds per-request scratch (registry snapshot, solution,
	// response allocation) for the reads that solve for themselves: a
	// register's answer and a /v1/state read.
	serve freelist.List[serveScratch]

	// table is the allocation last served to heartbeats and allocation
	// reads, with the registry version it was solved at; tableHits and
	// tableSolves count the answers it gave and the solves that
	// installed it.
	table                  atomic.Pointer[servedTable]
	tableHits, tableSolves atomic.Uint64
}

// servedTable is the allocation served for one registry version. The
// registry promises that the live set and every fitted model are a
// function of (incarnation, generation), and the machine and policy are
// fixed per server, so every request that reads that version is
// answered from it. Immutable once installed, but for each app's
// heartbeat answer, encoded on first use, and the paper's baselines,
// computed on the first allocation read.
type servedTable struct {
	incarnation string
	generation  uint64
	sol         Solution // PerApp sorted by ID, as the registry snapshot was
	answers     []atomic.Pointer[[]byte]

	// apps is the snapshot sol was solved from, kept until refOnce
	// evaluates ref (nil: no baseline fits) from it.
	apps    []AppState
	refOnce sync.Once
	ref     *ReferenceAllocations
}

// serveScratch is one request's reusable serve-path memory.
type serveScratch struct {
	apps  []AppState
	sol   Solution
	alloc AppAllocation
}

// NewServer validates the configuration and builds the server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Machine == nil {
		return nil, errors.New("ctrlplane: no machine configured")
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyRoofline
	}
	solver, err := NewSolver(cfg.Policy)
	if err != nil {
		return nil, err
	}
	if cfg.DefaultTTL <= 0 {
		cfg.DefaultTTL = 15 * time.Second
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.DefaultTTL / 4
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &Server{
		cfg:    cfg,
		reg:    NewRegistry(cfg.DefaultTTL, cfg.Clock),
		solver: solver,
		routes: httpapi.NewRoutes(cfg.Clock, cfg.MaxInFlight),
		start:  cfg.Clock(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if cfg.Store != nil {
		if err := s.reg.AttachStore(cfg.Store); err != nil {
			return nil, err
		}
	}
	if cfg.Recalibrate {
		s.adapt = adapt.NewStore(cfg.Adapt)
	}
	s.routes.Handle("POST /v1/register", "register", s.handleRegister)
	s.routes.Handle("POST /v1/heartbeat", "heartbeat", s.handleHeartbeat)
	s.routes.Handle("POST /v1/report", "report", s.handleReport)
	s.routes.Handle("DELETE /v1/apps/{id}", "deregister", s.handleDeregister)
	s.routes.Handle("GET /v1/allocations", "allocations", s.handleAllocations)
	s.routes.Handle("GET /v1/state", "state", s.handleState)
	s.routes.Handle("GET /healthz", "healthz", s.handleHealthz)
	s.routes.Handle("GET /metricsz", "metricsz", s.handleMetricsz)
	s.routes.Handle("GET /tracez", "tracez", s.handleTracez)
	return s, nil
}

// Handler returns the HTTP handler serving the control-plane API.
func (s *Server) Handler() http.Handler { return s.routes }

// Registry exposes the application registry (for embedding and tests).
func (s *Server) Registry() *Registry { return s.reg }

// Machine exposes the configured topology.
func (s *Server) Machine() *machine.Machine { return s.cfg.Machine }

// Start launches the background eviction janitor.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.cfg.SweepInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sweep()
			}
		}
	}()
}

// sweep runs a TTL eviction pass and drops the evicted applications'
// telemetry trackers with it.
func (s *Server) sweep() {
	evicted := s.reg.Sweep()
	if s.adapt != nil && len(evicted) > 0 {
		s.adapt.Remove(evicted...)
	}
}

// Close stops the janitor and waits for it to exit. Safe to call
// multiple times, with or without a prior Start.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	if s.started.Load() {
		<-s.done
	}
}

// Spec checks a registration against a machine of nodes NUMA nodes and
// converts it to the registry's spec: an empty name becomes "app", and a
// name over MaxNameBytes, an AI <= 0, an unknown placement, a numa-bad
// home node the machine lacks, a negative thread cap, a negative TTL or
// an unknown priority class is refused. The register handler, fleetd's
// request check and fleetsim's scenario check all use it, so a demand
// coopd refuses is never decided on by the fleet.
func (req RegisterRequest) Spec(nodes int) (AppSpec, error) {
	if req.Name == "" {
		req.Name = "app"
	}
	pl := roofline.NUMAPerfect
	switch {
	case len(req.Name) > MaxNameBytes:
		return AppSpec{}, fmt.Errorf("name is %d bytes, limit %d", len(req.Name), MaxNameBytes)
	case req.AI <= 0:
		return AppSpec{}, fmt.Errorf("ai must be > 0, got %g", req.AI)
	case req.Placement == PlacementBad:
		pl = roofline.NUMABad
		if req.HomeNode < 0 || req.HomeNode >= nodes {
			return AppSpec{}, fmt.Errorf("home_node %d out of range (machine has %d nodes)", req.HomeNode, nodes)
		}
	case req.Placement != "" && req.Placement != PlacementPerfect:
		return AppSpec{}, fmt.Errorf("unknown placement %q (want %q or %q)", req.Placement, PlacementPerfect, PlacementBad)
	}
	if req.MaxThreads < 0 {
		return AppSpec{}, fmt.Errorf("max_threads must be >= 0, got %d", req.MaxThreads)
	}
	if req.TTLMillis < 0 {
		return AppSpec{}, fmt.Errorf("ttl_ms must be >= 0, got %d", req.TTLMillis)
	}
	switch req.Priority {
	case "", PriorityBatch, PriorityLatency, PrioritySystem:
	default:
		return AppSpec{}, fmt.Errorf("unknown priority %q (want %q, %q or %q)", req.Priority, PrioritySystem, PriorityLatency, PriorityBatch)
	}
	return AppSpec{
		Name:       req.Name,
		AI:         req.AI,
		Placement:  pl,
		HomeNode:   machine.NodeID(req.HomeNode),
		MaxThreads: req.MaxThreads,
		Priority:   req.Priority,
		MovedRound: req.MovedRound,
	}, nil
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !httpapi.Decode(w, r, &req) {
		return
	}
	spec, err := req.Spec(s.cfg.Machine.NumNodes())
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st, gen, err := s.reg.Register(spec, time.Duration(req.TTLMillis)*time.Millisecond)
	if err != nil {
		// Durability is unavailable; 503 invites a retry once the state
		// dir recovers rather than handing out an unpersisted ID.
		httpapi.WriteError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	sc := s.serve.Get()
	defer s.serve.Put(sc)
	alloc, solvedAt, err := s.allocationInto(sc, st.ID, req.Solved)
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, "solving allocation: %v", err)
		return
	}
	resp := RegisterResponse{
		ID:         st.ID,
		Generation: gen,
		TTLMillis:  st.TTL.Milliseconds(),
		Allocation: alloc,
	}
	if solvedAt == gen {
		// Nothing changed between the registration and the snapshot the
		// solve read: the total is the registry's at gen, which lets a
		// caller holding the state at gen-1 hold it at gen.
		resp.TotalGFLOPS = sc.sol.TotalGFLOPS
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !httpapi.Decode(w, r, &req) {
		return
	}
	if err := s.reg.Heartbeat(req); err != nil {
		httpapi.WriteErrorCode(w, http.StatusNotFound, ErrCodeUnknownApp, "%s: %v (evicted after missing its heartbeat deadline, or never registered)", req.ID, err)
		return
	}
	body, err := s.heartbeatAnswer(req.ID)
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, "solving allocation: %v", err)
		return
	}
	httpapi.WriteEncoded(w, http.StatusOK, body)
}

// heartbeatAnswer is the encoded HeartbeatResponse for app id at the
// registry's current version, from the served table.
func (s *Server) heartbeatAnswer(id string) ([]byte, error) {
	t, _, err := s.servedTable()
	if err != nil {
		return nil, err
	}
	return t.answer(id)
}

// servedTable returns the table of the registry's current version: the
// installed one when it was solved at that version (hit reports so),
// else a fresh snapshot and solve, which becomes the installed table.
func (s *Server) servedTable() (t *servedTable, hit bool, err error) {
	inc, gen := s.reg.Version()
	if t := s.table.Load(); t != nil && t.generation == gen && t.incarnation == inc {
		s.tableHits.Add(1)
		return t, true, nil
	}
	t = &servedTable{}
	t.apps, t.incarnation, t.generation = s.reg.SnapshotInto(nil)
	if err := s.solver.SolveInto(&t.sol, s.cfg.Machine, t.apps); err != nil {
		return nil, false, err
	}
	t.answers = make([]atomic.Pointer[[]byte], len(t.sol.PerApp))
	s.tableSolves.Add(1)
	s.table.Store(t)
	return t, false, nil
}

// answer is app id's encoded HeartbeatResponse at the table's version,
// encoded once per app and then served as stored. An app the table does
// not hold (it left in the meantime) is answered with no allocation.
func (t *servedTable) answer(id string) ([]byte, error) {
	i, ok := slices.BinarySearchFunc(t.sol.PerApp, id, func(a AppSolution, id string) int { return strings.Compare(a.ID, id) })
	resp := HeartbeatResponse{Generation: t.generation}
	if !ok {
		return httpapi.Encode(resp)
	}
	if b := t.answers[i].Load(); b != nil {
		return *b, nil
	}
	alloc := appAllocation(&t.sol.PerApp[i])
	resp.Allocation = &alloc
	b, err := httpapi.Encode(resp)
	if err != nil {
		return nil, err
	}
	t.answers[i].Store(&b) // concurrent first uses store equal bytes
	return b, nil
}

// appAllocation renders one app's solved slice for the wire.
func appAllocation(a *AppSolution) AppAllocation {
	threads := 0
	for _, c := range a.PerNode {
		threads += c
	}
	return AppAllocation{ID: a.ID, Name: a.Name, PerNode: a.PerNode, Threads: threads, PredictedGFLOPS: a.GFLOPS}
}

func (s *Server) handleDeregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.reg.Deregister(id) {
		httpapi.WriteErrorCode(w, http.StatusNotFound, ErrCodeUnknownApp, "%s: %v", id, ErrUnknownApp)
		return
	}
	if s.adapt != nil {
		s.adapt.Remove(id)
	}
	w.WriteHeader(http.StatusNoContent)
}

// appViews renders registry records as the wire's AppView list, each
// with its adaptive-loop tracker when trackers (nil: no -recalibrate)
// holds one.
func appViews(apps []AppState, now time.Time, trackers *adapt.Store) []AppView {
	views := make([]AppView, len(apps))
	for i := range apps {
		a := &apps[i]
		views[i] = AppView{
			ID:         a.ID,
			Name:       a.Spec.Name,
			AI:         a.Spec.AI,
			Placement:  a.Spec.Placement.String(),
			HomeNode:   int(a.Spec.HomeNode),
			MaxThreads: a.Spec.MaxThreads,
			TTLMillis:  a.TTL.Milliseconds(),
			Priority:   a.Spec.Priority,
			MovedRound: a.Spec.MovedRound,
			AgeMillis:  now.Sub(a.RegisteredAt).Milliseconds(),
			IdleMillis: now.Sub(a.LastBeat).Milliseconds(),
			Beats:      a.Beats,
			ObservedAI: a.ObservedAI(),
		}
		if a.Fitted != nil {
			views[i].FittedAI = a.Fitted.AI
			views[i].Drifted = true
		}
		if trackers != nil {
			if v, ok := trackers.View(a.ID); ok {
				t := appTracker(v)
				views[i].Tracker = &t
			}
		}
	}
	return views
}

// appTracker renders an adaptive-loop tracker for the wire.
func appTracker(v adapt.TrackerView) AppTracker {
	return AppTracker{
		State:      v.State.String(),
		FittedAI:   v.FittedAI,
		Confidence: v.Confidence,
		RelErr:     v.RelErr,
		Samples:    v.Samples,
		Windows:    v.Windows,
		Resolves:   v.Resolves,
	}
}

// handleState serves everything a fleet scheduler tracks of this
// machine from one registry snapshot, tagged with its StateETag — or,
// when If-None-Match is still that tag once overdue apps are evicted, a
// 304 with no body: no query parsing, no snapshot, no solver lookup, no
// encoding. A full answer leaves the machine out for a caller whose
// ?incarnation= is this one.
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	s.sweep()
	inc, gen := s.reg.Version()
	if v := r.Header.Get("If-None-Match"); v != "" {
		var buf [64]byte
		if string(appendStateETag(buf[:0], inc, gen)) == v {
			w.Header().Set("ETag", v)
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	sc := s.serve.Get()
	defer s.serve.Put(sc)
	var resp StateResponse
	sc.apps, resp.Incarnation, resp.Generation = s.reg.SnapshotInto(sc.apps[:0])
	if err := s.solver.SolveInto(&sc.sol, s.cfg.Machine, sc.apps); err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, "solving allocation: %v", err)
		return
	}
	resp.Apps = appViews(sc.apps, s.cfg.Clock(), s.adapt)
	resp.TotalGFLOPS = sc.sol.TotalGFLOPS
	if r.URL.Query().Get("incarnation") != resp.Incarnation {
		resp.Machine = s.cfg.Machine
	}
	w.Header().Set("ETag", StateETag(resp.Incarnation, resp.Generation))
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAllocations(w http.ResponseWriter, r *http.Request) {
	s.sweep()
	resp, err := s.Allocations()
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, "solving allocation: %v", err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// Allocations renders the served table of the registry's current
// version as the machine-wide allocation table (also used by embedders
// that skip HTTP). Its Reference is shared by every read of the version:
// the caller must not modify it.
func (s *Server) Allocations() (*AllocationsResponse, error) {
	t, hit, err := s.servedTable()
	if err != nil {
		return nil, err
	}
	resp := t.sol.Table(s.cfg.Machine.Name, s.solver.Policy(), t.generation)
	resp.CacheHit = resp.CacheHit || hit
	t.refOnce.Do(func() {
		t.ref = s.solver.Reference(s.cfg.Machine, t.apps)
		t.apps = nil
	})
	resp.Reference = t.ref
	return resp, nil
}

// Table renders the solution as the machine-wide allocation table: every
// app's slice with its thread total. The table's slices are its own: sol
// may be shared or reused. The paper's baselines are the caller's to add
// (Solver.Reference).
func (sol *Solution) Table(machineName, policy string, gen uint64) *AllocationsResponse {
	resp := &AllocationsResponse{
		Generation:  gen,
		Machine:     machineName,
		Policy:      policy,
		Apps:        make([]AppAllocation, len(sol.PerApp)),
		TotalGFLOPS: sol.TotalGFLOPS,
		CacheHit:    sol.FromCache,
	}
	for i := range sol.PerApp {
		resp.Apps[i] = appAllocation(&sol.PerApp[i])
		resp.Apps[i].PerNode = slices.Clone(resp.Apps[i].PerNode)
	}
	return resp
}

// allocationInto solves for the live set — adopting offer (nil: none)
// when the solver would otherwise search for exactly that — and renders
// one app's slice as the scratch's response allocation, with the
// generation of the snapshot solved. The returned pointer aliases sc and
// is only valid until sc goes back to the pool.
func (s *Server) allocationInto(sc *serveScratch, id string, offer *Solved) (*AppAllocation, uint64, error) {
	var gen uint64
	sc.apps, _, gen = s.reg.SnapshotInto(sc.apps[:0])
	if err := s.solver.solveInto(&sc.sol, s.cfg.Machine, sc.apps, offer); err != nil {
		return nil, gen, err
	}
	for i := range sc.sol.PerApp {
		a := &sc.sol.PerApp[i]
		if a.ID != id {
			continue
		}
		sc.alloc = appAllocation(a)
		return &sc.alloc, gen, nil
	}
	return nil, gen, nil // evicted between registration and solve
}

// handleReport ingests an application's telemetry samples into the
// adaptive loop and applies its verdict: on confirmed drift the fitted
// model is substituted for the declared one (journaled, generation
// bump, fresh solve on the next allocation read); on confirmed return
// to declared behaviour the substitution is cleared.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if s.adapt == nil {
		httpapi.WriteError(w, http.StatusNotFound, "adaptive recalibration disabled (start coopd with -recalibrate)")
		return
	}
	var req ReportRequest
	if !httpapi.Decode(w, r, &req) {
		return
	}
	if req.ID == "" {
		httpapi.WriteError(w, http.StatusBadRequest, "missing id")
		return
	}
	if len(req.Samples) == 0 {
		httpapi.WriteError(w, http.StatusBadRequest, "no samples")
		return
	}
	st, ok := s.reg.App(req.ID)
	if !ok {
		httpapi.WriteErrorCode(w, http.StatusNotFound, ErrCodeUnknownApp, "%s: %v", req.ID, ErrUnknownApp)
		return
	}
	appliedAI := 0.0
	if st.Fitted != nil {
		appliedAI = st.Fitted.AI
	}
	samples := make([]adapt.Sample, len(req.Samples))
	for i, sm := range req.Samples {
		samples[i] = adapt.Sample{GFLOPS: sm.GFLOPS, GBps: sm.GBps, Threads: sm.Threads}
	}
	out := s.adapt.Report(req.ID, st.Spec.AI, appliedAI, samples)
	switch out.Action {
	case adapt.ActionSet:
		_, err := s.reg.SetFitted(req.ID, FittedModel{
			AI:         out.FittedAI,
			PeakGFLOPS: out.PeakPerThread,
			Confidence: out.Confidence,
			UpdatedAt:  s.cfg.Clock(),
		})
		if err != nil {
			httpapi.WriteError(w, http.StatusServiceUnavailable, "applying fitted model: %v", err)
			return
		}
		appliedAI = out.FittedAI
	case adapt.ActionClear:
		if _, err := s.reg.ClearFitted(req.ID); err != nil {
			httpapi.WriteError(w, http.StatusServiceUnavailable, "clearing fitted model: %v", err)
			return
		}
		appliedAI = 0
	}
	httpapi.WriteJSON(w, http.StatusOK, ReportResponse{
		Generation: s.reg.Generation(),
		AppTracker: appTracker(out.TrackerView),
		Drifted:    appliedAI > 0,
	})
}

// RestoredApps reports how many applications were recovered from the
// state dir at construction (0 without a store).
func (s *Server) RestoredApps() int { return s.reg.RestoredApps() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		Machine:       s.cfg.Machine.Name,
		UptimeSeconds: s.cfg.Clock().Sub(s.start).Seconds(),
		Apps:          s.reg.Len(),
		Generation:    s.reg.Generation(),
	})
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	resp := MetricsResponse{
		UptimeSeconds: s.cfg.Clock().Sub(s.start).Seconds(),
		Apps:          s.reg.Len(),
		Generation:    s.reg.Generation(),
		Evictions:     s.reg.Evictions(),
		Solver:        s.solver.Metrics(),
		SolverSearch:  s.solver.search.Stats(),
		Table:         TableMetrics{Hits: s.tableHits.Load(), Solves: s.tableSolves.Load()},
		Endpoints:     s.routes.Metrics(),
	}
	if s.cfg.Store != nil {
		resp.Persist = &PersistMetrics{
			Enabled:      true,
			RestoredApps: s.reg.RestoredApps(),
			Failures:     s.reg.PersistFailures(),
			TornRecords:  s.cfg.Store.TornRecords(),
			Compactions:  s.cfg.Store.Compactions(),
		}
		if err := s.cfg.Store.FlushErr(); err != nil {
			resp.Persist.FlushError = err.Error()
		}
	}
	if s.adapt != nil {
		m := s.adapt.Metrics()
		applied := 0
		apps, _ := s.reg.Snapshot()
		for i := range apps {
			if apps[i].Fitted != nil {
				applied++
			}
		}
		resp.Adapt = &AdaptMetrics{
			Enabled:         true,
			Tracked:         m.Tracked,
			Drifted:         m.Drifted,
			Applied:         applied,
			Threshold:       s.adapt.Config().DriftThreshold,
			Samples:         m.Samples,
			Windows:         m.Windows,
			DriftsConfirmed: m.Confirmed,
			DriftsCleared:   m.Cleared,
			Refits:          m.Refits,
			PhaseChanges:    m.PhaseChanges,
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	data, err := trace.ChromeJSON(s.routes.Spans())
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, "encoding trace: %v", err)
		return
	}
	httpapi.WriteEncoded(w, http.StatusOK, data)
}
