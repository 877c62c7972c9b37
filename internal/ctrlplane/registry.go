package ctrlplane

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ctrlplane/persist"
	"repro/internal/machine"
	"repro/internal/roofline"
)

// ErrUnknownApp is returned for heartbeats or deregistrations of an
// application the registry does not know — typically one already
// evicted for missing its heartbeat deadline.
var ErrUnknownApp = errors.New("ctrlplane: unknown application")

// AppSpec is the performance character an application registers with:
// what the roofline solver needs to place it.
type AppSpec struct {
	Name       string
	AI         float64
	Placement  roofline.Placement
	HomeNode   machine.NodeID
	MaxThreads int // 0: uncapped
}

// FittedModel is an online-fitted demand model (internal/adapt) that
// the registry substitutes for an application's declared spec once
// drift is confirmed.
type FittedModel struct {
	AI         float64
	PeakGFLOPS float64
	Confidence float64
	UpdatedAt  time.Time
}

// AppState is one registered application's full record.
type AppState struct {
	ID           string
	Spec         AppSpec
	TTL          time.Duration
	RegisteredAt time.Time
	LastBeat     time.Time
	Beats        uint64
	LastStats    HeartbeatRequest
	// Fitted, when non-nil, is the recalibrated demand model currently
	// replacing the declared Spec in the solver (see EffectiveSpec).
	Fitted *FittedModel
}

// EffectiveSpec is the spec the solver should plan with: the declared
// one, with the AI replaced by the fitted model when one is applied.
// Placement, home node, and the thread cap stay declared — the adaptive
// loop recalibrates demand, it does not reinterpret intent.
func (a *AppState) EffectiveSpec() AppSpec {
	spec := a.Spec
	if a.Fitted != nil && a.Fitted.AI > 0 {
		spec.AI = a.Fitted.AI
	}
	return spec
}

// ObservedAI estimates the arithmetic intensity from the last
// heartbeat's rates (0 when no rates were reported).
func (a *AppState) ObservedAI() float64 {
	if a.LastStats.GBRate <= 0 {
		return 0
	}
	return a.LastStats.GFlopRate / a.LastStats.GBRate
}

// Registry is the concurrency-safe application registry. Every change
// to the live set (register, deregister, eviction) bumps the
// generation, which clients use to watch for reallocations.
type Registry struct {
	mu           sync.Mutex
	apps         map[string]*AppState
	gen          uint64
	seq          uint64
	evictions    uint64
	defaultTTL   time.Duration
	clock        func() time.Time
	store        *persist.Store
	persistFails uint64
	// sweepsOff disables TTL eviction: a replication follower mirrors
	// the leader's evict records instead of running its own sweeps, so
	// the two replicas never disagree about who evicted whom.
	sweepsOff bool
}

// NewRegistry creates a registry. defaultTTL is the heartbeat deadline
// for applications that do not request their own; clock is the time
// source (nil: time.Now), injectable for deterministic tests.
func NewRegistry(defaultTTL time.Duration, clock func() time.Time) *Registry {
	if defaultTTL <= 0 {
		defaultTTL = 15 * time.Second
	}
	if clock == nil {
		clock = time.Now
	}
	return &Registry{
		apps:       map[string]*AppState{},
		defaultTTL: defaultTTL,
		clock:      clock,
	}
}

// AttachStore restores the registry from the store's recovered state
// and installs it so every later mutation is journaled. Restored
// applications get a fresh TTL window (LastBeat = now) — after a daemon
// restart each survivor has one full deadline to resume heartbeating
// before it is evicted. The generation, sequence, and eviction counters
// resume from the persisted values so client-visible generations stay
// monotonic across the restart.
func (r *Registry) AttachStore(st *persist.Store) {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := st.Restored()
	now := r.clock()
	for _, rec := range snap.Apps {
		a := recordToState(rec)
		a.LastBeat = now
		r.apps[a.ID] = &a
	}
	if snap.Generation > r.gen {
		r.gen = snap.Generation
	}
	if snap.Seq > r.seq {
		r.seq = snap.Seq
	}
	if snap.Evictions > r.evictions {
		r.evictions = snap.Evictions
	}
	r.store = st
}

// stateToRecord converts to the store's persistence-friendly form.
func stateToRecord(a AppState) persist.AppRecord {
	rec := persist.AppRecord{
		ID:           a.ID,
		Name:         a.Spec.Name,
		AI:           a.Spec.AI,
		Placement:    int(a.Spec.Placement),
		HomeNode:     int(a.Spec.HomeNode),
		MaxThreads:   a.Spec.MaxThreads,
		TTLMillis:    a.TTL.Milliseconds(),
		RegisteredAt: a.RegisteredAt.UnixNano(),
		LastBeat:     a.LastBeat.UnixNano(),
		Beats:        a.Beats,
	}
	if a.Fitted != nil {
		rec.FittedAI = a.Fitted.AI
		rec.FittedPeak = a.Fitted.PeakGFLOPS
		rec.FittedConfidence = a.Fitted.Confidence
		rec.FittedAt = a.Fitted.UpdatedAt.UnixNano()
	}
	return rec
}

func recordToState(rec persist.AppRecord) AppState {
	st := AppState{
		ID: rec.ID,
		Spec: AppSpec{
			Name:       rec.Name,
			AI:         rec.AI,
			Placement:  roofline.Placement(rec.Placement),
			HomeNode:   machine.NodeID(rec.HomeNode),
			MaxThreads: rec.MaxThreads,
		},
		TTL:          time.Duration(rec.TTLMillis) * time.Millisecond,
		RegisteredAt: time.Unix(0, rec.RegisteredAt),
		LastBeat:     time.Unix(0, rec.LastBeat),
		Beats:        rec.Beats,
	}
	if rec.FittedAI > 0 {
		st.Fitted = &FittedModel{
			AI:         rec.FittedAI,
			PeakGFLOPS: rec.FittedPeak,
			Confidence: rec.FittedConfidence,
			UpdatedAt:  time.Unix(0, rec.FittedAt),
		}
	}
	return st
}

// Register adds an application and returns its state and the new
// generation. With a store attached the registration is journaled (and
// fsynced) before it is committed, so an acknowledged ID is never lost
// to a daemon crash; a persistence failure rejects the registration.
func (r *Registry) Register(spec AppSpec, ttl time.Duration) (AppState, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ttl <= 0 {
		ttl = r.defaultTTL
	}
	now := r.clock()
	st := &AppState{
		ID:           fmt.Sprintf("%s-%d", sanitizeID(spec.Name), r.seq+1),
		Spec:         spec,
		TTL:          ttl,
		RegisteredAt: now,
		LastBeat:     now,
	}
	if r.store != nil {
		if err := r.store.AppendRegister(stateToRecord(*st), r.gen+1, r.seq+1); err != nil {
			r.persistFails++
			return AppState{}, 0, fmt.Errorf("persisting registration: %w", err)
		}
	}
	r.seq++
	r.apps[st.ID] = st
	r.gen++
	return *st, r.gen, nil
}

// sanitizeID keeps IDs URL-path- and report-safe regardless of what
// the network supplies as a name.
func sanitizeID(name string) string {
	var b strings.Builder
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
			b.WriteRune(c)
		case c >= 'A' && c <= 'Z':
			b.WriteRune(c + ('a' - 'A'))
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "app"
	}
	const maxLen = 32
	s := b.String()
	if len(s) > maxLen {
		s = s[:maxLen]
	}
	return s
}

// Heartbeat refreshes an application's liveness deadline and records
// its stats. ErrUnknownApp means the app was evicted or never existed.
func (r *Registry) Heartbeat(hb HeartbeatRequest) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.apps[hb.ID]
	if !ok {
		return ErrUnknownApp
	}
	st.LastBeat = r.clock()
	st.Beats++
	st.LastStats = hb
	if r.store != nil {
		// Best-effort: a lost heartbeat record costs at most one re-armed
		// TTL window after a restart, never an acknowledged registration.
		if err := r.store.AppendHeartbeat(st.ID, st.LastBeat.UnixNano(), st.Beats); err != nil {
			r.persistFails++
		}
	}
	return nil
}

// Deregister removes an application; it reports whether it was present.
func (r *Registry) Deregister(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.apps[id]; !ok {
		return false
	}
	delete(r.apps, id)
	r.gen++
	if r.store != nil {
		// Best-effort: if this record is lost the app resurrects on
		// restart and is TTL-evicted one window later — cores are
		// reclaimed either way, just more slowly.
		if err := r.store.AppendDeregister(id, r.gen); err != nil {
			r.persistFails++
		}
	}
	return true
}

// App returns one application's state by ID.
func (r *Registry) App(id string) (AppState, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.apps[id]
	if !ok {
		return AppState{}, false
	}
	return *st, true
}

// SetFitted substitutes a fitted demand model for the application's
// declared one. The substitution is journaled (and fsynced) before it
// is committed — a recalibration that changed the allocation must
// survive a crash and, via journal streaming, a leader failover. The
// generation bumps so clients watching for reallocation wake up.
func (r *Registry) SetFitted(id string, f FittedModel) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.apps[id]
	if !ok {
		return 0, ErrUnknownApp
	}
	if r.store != nil {
		rec := &persist.FittedRecord{
			AI:         f.AI,
			PeakGFLOPS: f.PeakGFLOPS,
			Confidence: f.Confidence,
			At:         f.UpdatedAt.UnixNano(),
		}
		if err := r.store.AppendFitted(id, rec, r.gen+1); err != nil {
			r.persistFails++
			return 0, fmt.Errorf("persisting fitted model: %w", err)
		}
	}
	// Fresh pointer, never an in-place mutation: snapshots taken by the
	// serve path share the previous pointer concurrently.
	fm := f
	st.Fitted = &fm
	r.gen++
	return r.gen, nil
}

// ClearFitted removes an applied fitted model, returning the app to its
// declared spec. No-op (and no generation bump) when none is applied.
func (r *Registry) ClearFitted(id string) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.apps[id]
	if !ok {
		return 0, ErrUnknownApp
	}
	if st.Fitted == nil {
		return r.gen, nil
	}
	if r.store != nil {
		if err := r.store.AppendFitted(id, nil, r.gen+1); err != nil {
			r.persistFails++
			return 0, fmt.Errorf("persisting fitted-model clear: %w", err)
		}
	}
	st.Fitted = nil
	r.gen++
	return r.gen, nil
}

// Sweep evicts every application whose last heartbeat is older than its
// TTL and returns the evicted IDs. Evictions bump the generation, so
// the next allocation read reflects the reclaimed cores.
func (r *Registry) Sweep() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sweepsOff {
		return nil
	}
	now := r.clock()
	var evicted []string
	for id, st := range r.apps {
		if now.Sub(st.LastBeat) > st.TTL {
			delete(r.apps, id)
			evicted = append(evicted, id)
		}
	}
	if len(evicted) > 0 {
		r.evictions += uint64(len(evicted))
		r.gen++
		sort.Strings(evicted)
		if r.store != nil {
			if err := r.store.AppendEvict(evicted, r.gen, r.evictions); err != nil {
				r.persistFails++
			}
		}
	}
	return evicted
}

// Snapshot returns the live applications (sorted by ID for determinism)
// and the current generation.
func (r *Registry) Snapshot() ([]AppState, uint64) {
	return r.SnapshotInto(nil)
}

// SnapshotInto is Snapshot appending into a caller-owned buffer
// (typically buf[:0] of a pooled slice), so steady-state serve paths
// take their registry view without allocating. The sort is an insertion
// sort: no allocation, and the map iteration feeds it near-random order
// of a small set.
func (r *Registry) SnapshotInto(buf []AppState) ([]AppState, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := buf
	for _, st := range r.apps {
		out = append(out, *st)
	}
	for a := len(buf) + 1; a < len(out); a++ {
		for b := a; b > len(buf) && out[b].ID < out[b-1].ID; b-- {
			out[b], out[b-1] = out[b-1], out[b]
		}
	}
	return out, r.gen
}

// Len returns the number of live applications.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.apps)
}

// Generation returns the current generation counter.
func (r *Registry) Generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

// Evictions returns the total number of liveness evictions.
func (r *Registry) Evictions() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evictions
}

// PersistFailures counts best-effort journal appends that failed (a
// registration-append failure instead rejects the registration and is
// also counted here).
func (r *Registry) PersistFailures() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.persistFails
}

// SetSweepsEnabled turns TTL eviction on or off. A replication follower
// disables sweeps (it mirrors the leader's evict records instead); a
// follower promoted to leader re-enables them.
func (r *Registry) SetSweepsEnabled(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepsOff = !on
}

// RearmTTLs resets every application's liveness deadline to a full TTL
// from now. A promoted follower calls this so replication lag in
// (buffered, best-effort) heartbeat records does not read as a fleet of
// missed deadlines the moment sweeping resumes.
func (r *Registry) RearmTTLs() {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock()
	for _, st := range r.apps {
		st.LastBeat = now
	}
}

// Promote marks a leadership change: it bumps the generation (clients
// re-read allocations under the new leader) and journals a promote
// record carrying the new fencing epoch, so neither counter can regress
// across a restart. Returns the new generation.
func (r *Registry) Promote(epoch uint64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen++
	if r.store != nil {
		if err := r.store.AppendPromote(r.gen, epoch); err != nil {
			r.persistFails++
		}
	}
	return r.gen
}

// ApplyRecord folds one replicated journal record from the leader into
// the registry, keeping the leader's ID/generation/sequence numbering,
// and mirrors it into this replica's own store. This is the follower
// half of journal streaming: the same record stream that makes the
// leader durable makes the follower a replica.
func (r *Registry) ApplyRecord(rec persist.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch rec.Op {
	case persist.OpRegister:
		if rec.App == nil {
			return errors.New("ctrlplane: replicated register without app record")
		}
		a := recordToState(*rec.App)
		r.apps[a.ID] = &a
		r.gen, r.seq = rec.Gen, rec.Seq
	case persist.OpHeartbeat:
		if st, ok := r.apps[rec.ID]; ok {
			st.LastBeat = time.Unix(0, rec.Beat)
			st.Beats = rec.Beats
		}
	case persist.OpDeregister:
		delete(r.apps, rec.ID)
		r.gen = rec.Gen
	case persist.OpEvict:
		for _, id := range rec.IDs {
			delete(r.apps, id)
		}
		r.gen = rec.Gen
		r.evictions = rec.Evictions
	case persist.OpPromote:
		r.gen = rec.Gen
	case persist.OpFitted:
		if st, ok := r.apps[rec.ID]; ok {
			if rec.Fitted != nil {
				st.Fitted = &FittedModel{
					AI:         rec.Fitted.AI,
					PeakGFLOPS: rec.Fitted.PeakGFLOPS,
					Confidence: rec.Fitted.Confidence,
					UpdatedAt:  time.Unix(0, rec.Fitted.At),
				}
			} else {
				st.Fitted = nil
			}
		}
		r.gen = rec.Gen
	default:
		return fmt.Errorf("ctrlplane: unknown replicated op %q", rec.Op)
	}
	if r.store != nil {
		if err := r.store.AppendRecord(rec); err != nil {
			r.persistFails++
		}
	}
	return nil
}

// ResetFromSnapshot replaces the registry's entire state with a
// leader-shipped snapshot (and resets this replica's store to match).
// Used when a follower is too far behind the leader's journal tail for
// a suffix to exist — first sync, or rejoin after a partition.
func (r *Registry) ResetFromSnapshot(snap persist.Snapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.apps = make(map[string]*AppState, len(snap.Apps))
	for _, rec := range snap.Apps {
		a := recordToState(rec)
		r.apps[a.ID] = &a
	}
	r.gen, r.seq, r.evictions = snap.Generation, snap.Seq, snap.Evictions
	if r.store != nil {
		if err := r.store.ResetTo(snap); err != nil {
			r.persistFails++
			return err
		}
	}
	return nil
}

// PersistSnapshot renders the current registry state in the persist
// wire form — what a leader ships to a follower needing a full sync.
func (r *Registry) PersistSnapshot() persist.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := persist.Snapshot{
		Generation: r.gen,
		Seq:        r.seq,
		Evictions:  r.evictions,
		Apps:       make([]persist.AppRecord, 0, len(r.apps)),
	}
	for _, st := range r.apps {
		snap.Apps = append(snap.Apps, stateToRecord(*st))
	}
	sort.Slice(snap.Apps, func(i, j int) bool { return snap.Apps[i].ID < snap.Apps[j].ID })
	return snap
}
