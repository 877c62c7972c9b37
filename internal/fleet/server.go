package fleet

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/roofline"
)

// Server exposes the placement subsystem over HTTP. Create with
// NewServer, mount Handler, and call Start/Close around its lifetime to
// run the background poll + rebalance loop (handlers work without
// Start; /v1/fleet/plan and place poll on demand in tests that drive
// rounds manually).
type Server struct {
	cfg *ServerConfig // resolved, shared with the Placer and Rebalancer
	inv *Inventory
	pl  *Placer
	reb *Rebalancer
	upg *Upgrader
	// routes meters every endpoint for /metricsz; fleetd mounts no /tracez
	// (a request-span buffer, tried here, cost place_uniform +11 % heap).
	routes *httpapi.Routes
	start  time.Time

	// placeMu serializes placement decisions so two concurrent place
	// calls cannot both pick the same "emptiest" machine unseen.
	placeMu sync.Mutex

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewServer resolves cfg (see ServerConfig) and builds the server and
// its Placer/Rebalancer around the configured inventory.
func NewServer(cfg ServerConfig) (*Server, error) {
	pl, reb, err := newPlanners(cfg)
	if err != nil {
		return nil, err
	}
	inv := pl.Inv
	s := &Server{
		cfg:    pl.cfg,
		inv:    inv,
		pl:     pl,
		reb:    reb,
		upg:    &Upgrader{Inv: inv, Logf: pl.cfg.Logf},
		routes: httpapi.NewRoutes(inv.now, 0),
		start:  inv.now(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	s.routes.Handle("POST /v1/fleet/place", "place", s.handlePlace)
	s.routes.Handle("POST /v1/fleet/gang", "gang", s.handleGang)
	s.routes.Handle("GET /v1/fleet/machines", "machines", s.handleMachines)
	s.routes.Handle("GET /v1/fleet/plan", "plan", s.handlePlan)
	s.routes.Handle("POST /v1/fleet/drain", "drain", s.handleDrain)
	s.routes.Handle("POST /v1/fleet/upgrade", "upgrade", s.handleUpgrade)
	s.routes.Handle("GET /v1/fleet/upgrade", "upgrade_status", s.handleUpgradeStatus)
	s.routes.Handle("GET /healthz", "healthz", s.handleHealthz)
	s.routes.Handle("GET /metricsz", "metricsz", s.handleMetricsz)
	return s, nil
}

// newPlanners resolves cfg and builds the Placer and Rebalancer it
// configures over one Scorer: NewServer's wiring, and the constructor
// tests use when they need no HTTP surface.
func newPlanners(cfg ServerConfig) (*Placer, *Rebalancer, error) {
	if cfg.Inventory == nil {
		return nil, nil, errors.New("fleet: no inventory configured")
	}
	spec, err := roofline.ObjectiveSpecByName(cfg.Objective)
	if err = errors.Join(err, cfg.resolve(), cfg.Inventory.cfgErr); err != nil {
		return nil, nil, err
	}
	sc := NewScorer()
	sc.DomainSpread, sc.Objective = cfg.DomainSpread, spec
	return &Placer{Inv: cfg.Inventory, Scorer: sc, cfg: &cfg},
		&Rebalancer{Inv: cfg.Inventory, Scorer: sc, cfg: &cfg}, nil
}

// Config returns the server's configuration as resolved.
func (s *Server) Config() ServerConfig { return *s.cfg }

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.routes }

// Inventory returns the underlying inventory.
func (s *Server) Inventory() *Inventory { return s.inv }

// Placer returns the underlying placer.
func (s *Server) Placer() *Placer { return s.pl }

// Rebalancer returns the underlying rebalancer.
func (s *Server) Rebalancer() *Rebalancer { return s.reb }

// Upgrader returns the rolling-upgrade controller.
func (s *Server) Upgrader() *Upgrader { return s.upg }

// Start launches the background poll + rebalance loop.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(s.done)
		ctx := context.Background()
		poll := time.NewTicker(s.cfg.PollInterval)
		defer poll.Stop()
		reb := time.NewTicker(s.cfg.RebalanceInterval)
		defer reb.Stop()
		s.inv.Poll(ctx)
		for {
			select {
			case <-s.stop:
				return
			case <-poll.C:
				s.inv.Poll(ctx)
			case <-reb.C:
				s.placeMu.Lock()
				if _, err := s.reb.Round(ctx); err != nil {
					s.cfg.logf("fleet: rebalance round: %v", err)
				}
				// The upgrade controller ticks at rebalance cadence: drain
				// progress is produced by rounds, so that is how often it
				// can be observed.
				if msg := s.upg.Step(ctx); msg != "" {
					s.cfg.logf("%s", msg)
				}
				s.placeMu.Unlock()
			}
		}
	}()
}

// Close stops the background loop (idempotent; safe without Start).
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	if s.started.Load() {
		<-s.done
	}
}

// writePlaceError maps a failed placement: nothing can host the app
// (503, worth retrying once capacity returns) or a member refused it.
func writePlaceError(w http.ResponseWriter, err error) {
	status := http.StatusBadGateway
	if errors.Is(err, ErrNoCandidate) {
		status = http.StatusServiceUnavailable
	}
	httpapi.WriteError(w, status, "%v", err)
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	var spec AppSpec
	if !httpapi.Decode(w, r, &spec) {
		return
	}
	if err := spec.Validate(); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.placeMu.Lock()
	d, placed, err := s.pl.Place(r.Context(), spec)
	s.placeMu.Unlock()
	if err != nil {
		writePlaceError(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, PlaceResponse{
		Machine: d.Member, ID: placed.ID, Endpoints: s.inv.endpoints(d.Member),
		Score: d.Score, After: d.After,
	})
}

func (s *Server) handleGang(w http.ResponseWriter, r *http.Request) {
	var g GangSpec
	if !httpapi.Decode(w, r, &g) {
		return
	}
	if err := g.validate(); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.placeMu.Lock()
	res, err := s.pl.PlaceGang(r.Context(), g)
	s.placeMu.Unlock()
	if err != nil {
		writePlaceError(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, res)
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, s.machines())
}

// machines builds the wire view from the current snapshot.
func (s *Server) machines() *MachinesResponse {
	now := s.inv.now()
	resp := &MachinesResponse{}
	for _, m := range s.inv.Snapshot() {
		v := MachineView{
			ID: m.ID, Domain: m.Domain, Endpoints: m.Endpoints, Draining: m.Draining,
			Apps: m.Apps, NUMABadApps: m.NUMABadApps(),
			TotalGFLOPS: m.TotalGFLOPS, Generation: m.Generation,
			Failures: m.Failures, StaleApps: m.Stale,
			SinceSeenMillis: -1, Status: m.status(),
		}
		if v.Apps == nil {
			v.Apps = []PlacedApp{}
		}
		if m.Topology != nil {
			v.Machine = m.Topology.Name
		}
		if !m.LastSeen.IsZero() {
			v.SinceSeenMillis = now.Sub(m.LastSeen).Milliseconds()
		}
		if left := m.QuarantineUntil.Sub(now); m.Quarantined && left > 0 {
			v.QuarantinedForMillis = left.Milliseconds()
		}
		if m.Healthy() {
			resp.FleetGFLOPS += m.TotalGFLOPS
		}
		resp.Machines = append(resp.Machines, v)
	}
	return resp
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.inv.Poll(r.Context())
	plan, err := s.reb.Plan(r.Context())
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, plan)
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req DrainRequest
	if !httpapi.Decode(w, r, &req) {
		return
	}
	if err := s.inv.SetDraining(req.Machine, !req.Undo); err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrUnknownMember):
			status = http.StatusNotFound
		case errors.Is(err, ErrMemberDead):
			status = http.StatusConflict
		}
		httpapi.WriteError(w, status, "%v", err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, DrainResponse{Machine: req.Machine, Draining: !req.Undo})
}

func (s *Server) handleUpgradeStatus(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, s.upg.Status())
}

func (s *Server) handleUpgrade(w http.ResponseWriter, r *http.Request) {
	var req UpgradeRequest
	if !httpapi.Decode(w, r, &req) {
		return
	}
	switch req.Action {
	case "start":
		st, err := s.upg.Start(req.Machines, req.HealthFloor)
		if err != nil {
			status := http.StatusBadRequest
			switch {
			case errors.Is(err, ErrUpgradeRunning):
				status = http.StatusConflict
			case errors.Is(err, ErrUnknownMember):
				status = http.StatusNotFound
			}
			httpapi.WriteError(w, status, "%v", err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, st)
	case "abort":
		httpapi.WriteJSON(w, http.StatusOK, s.upg.Abort("operator abort"))
	default:
		httpapi.WriteError(w, http.StatusBadRequest, "action must be start or abort")
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := FleetHealthResponse{Status: "ok"}
	for _, m := range s.inv.Snapshot() {
		resp.Machines++
		switch m.status() {
		case StatusQuarantined:
			resp.Quarantined++
		case StatusDead:
			resp.Dead++
		case StatusHealthy, StatusSuspect:
			resp.Healthy++
		}
		if m.Draining {
			resp.Draining++
		}
		resp.Apps += len(m.Apps)
	}
	if resp.Dead > 0 || resp.Quarantined > 0 || resp.Healthy == 0 {
		resp.Status = "degraded"
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, FleetMetricsResponse{
		UptimeSeconds: s.inv.now().Sub(s.start).Seconds(),
		SolveCache:    s.pl.Scorer.cache.Counters(),
		Search:        s.pl.Scorer.search.Stats(),
		Polls:         s.inv.Polls(),
		Candidates:    s.inv.Candidates(),
		Decisions:     s.pl.Scorer.Decisions(),
		Repacks:       s.reb.Repacks(),
		Endpoints:     s.routes.Metrics(),
	})
}
