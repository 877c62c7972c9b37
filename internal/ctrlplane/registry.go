package ctrlplane

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
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
	// Priority and MovedRound (see RegisterRequest) are kept for the
	// fleet: the solver never reads them.
	Priority   string
	MovedRound uint64
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
// heartbeat's rates: 0 when no rates were reported or when their ratio
// is not finite (an extreme heartbeat must not make the registry's view
// unencodable).
func (a *AppState) ObservedAI() float64 {
	if a.LastStats.GBRate <= 0 {
		return 0
	}
	ai := a.LastStats.GFlopRate / a.LastStats.GBRate
	if math.IsInf(ai, 0) || math.IsNaN(ai) {
		return 0
	}
	return ai
}

// Registry is the concurrency-safe application registry and the only
// owner of coopd's state. Every change to that state is one
// persist.Record folded in by apply: a leader request builds the record
// and commits it, a follower commits the leader's records, and crash
// recovery commits the journal's. Every change to the live set
// (register, deregister, eviction) bumps the generation, which clients
// use to watch for reallocations.
type Registry struct {
	mu sync.Mutex
	// The replicated state: written by apply and reset, nothing else.
	apps      map[string]*AppState
	gen       uint64
	seq       uint64
	evictions uint64
	epoch     uint64 // replication fencing epoch (0 standalone)

	// incarnation names one life of the state above: drawn at construction
	// and again by reset, never journaled or replicated. Generations are
	// only comparable within one incarnation — a restart counts them from
	// 0 again and a snapshot install jumps them anywhere — so a reader
	// that caches by generation presents both (see Version).
	incarnation string

	defaultTTL   time.Duration
	clock        func() time.Time
	store        *persist.Store
	observer     func(persist.Record)
	persistFails uint64
	restored     int
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
		apps:        map[string]*AppState{},
		incarnation: newIncarnation(),
		defaultTTL:  defaultTTL,
		clock:       clock,
	}
}

// newIncarnation draws an opaque id no other registry life shares.
func newIncarnation() string { return strconv.FormatUint(rand.Uint64(), 16) }

// journalPolicy is the durability contract, one row per op. sync ops
// are fsynced before commit returns (persist.Options.WriteBehind
// relaxes that to the flush interval); a reject op that cannot be
// journaled is refused, so its acknowledgement is never lost to a
// crash, while the others are applied anyway and the failure counted:
// a lost deregister or evict resurrects the app until its TTL evicts it
// again, a lost heartbeat costs at most one re-armed TTL window.
var journalPolicy = map[string]struct{ sync, reject bool }{
	persist.OpRegister:   {sync: true, reject: true},
	persist.OpFitted:     {sync: true, reject: true},
	persist.OpDeregister: {sync: true},
	persist.OpEvict:      {sync: true},
	persist.OpPromote:    {sync: true},
	persist.OpHeartbeat:  {},
}

// commit is the one write path: validate rec, journal it at its op's
// tier, apply it, publish it. at is this registry's own clock reading
// for a record it originated; the zero time marks a record that
// originated elsewhere — the leader's stream or the recovered journal —
// which was acknowledged there and is therefore applied even when this
// replica cannot persist it. The only errors are a malformed record
// and a refused reject-tier op; in both cases nothing changed.
func (r *Registry) commit(rec persist.Record, at time.Time) error {
	pol, ok := journalPolicy[rec.Op]
	switch {
	case !ok:
		return fmt.Errorf("unknown op %q", rec.Op)
	case rec.Op == persist.OpRegister && rec.App == nil:
		return errors.New("register record without an app")
	}
	var full bool // the journal wants compacting once rec is applied
	if r.store != nil {
		var err error
		full, err = r.store.Append(rec, pol.sync)
		if err != nil {
			r.persistFails++
			if pol.reject && !at.IsZero() {
				return err
			}
		}
	}
	r.apply(rec, at)
	if full {
		if err := r.store.Compact(r.snapshotLocked()); err != nil {
			r.persistFails++
		}
	}
	if r.observer != nil {
		r.observer(rec)
	}
	return nil
}

// apply folds one validated record into the state. Counters only move
// forward, so a record delivered twice (replication is at-least-once)
// cannot regress them. A non-zero at replaces the record's wall-clock
// nanoseconds as the liveness timestamp, keeping the leader's TTL
// arithmetic on its clock's monotonic reading.
func (r *Registry) apply(rec persist.Record, at time.Time) {
	switch rec.Op {
	case persist.OpRegister:
		a := recordToState(*rec.App)
		if !at.IsZero() {
			a.RegisteredAt, a.LastBeat = at, at
		}
		r.apps[a.ID] = &a
		r.seq = max(r.seq, rec.Seq)
	case persist.OpHeartbeat:
		if st, ok := r.apps[rec.ID]; ok {
			beat := at
			if beat.IsZero() {
				beat = time.Unix(0, rec.Beat)
			}
			st.LastBeat, st.Beats = beat, rec.Beats
		}
	case persist.OpDeregister:
		delete(r.apps, rec.ID)
	case persist.OpEvict:
		for _, id := range rec.IDs {
			delete(r.apps, id)
		}
		r.evictions = max(r.evictions, rec.Evictions)
	case persist.OpFitted:
		if st, ok := r.apps[rec.ID]; ok {
			// Fresh pointer, never an in-place mutation: snapshots taken
			// by the serve path share the previous pointer concurrently.
			var fm *FittedModel
			if f := rec.Fitted; f != nil {
				fm = &FittedModel{AI: f.AI, PeakGFLOPS: f.PeakGFLOPS, Confidence: f.Confidence, UpdatedAt: time.Unix(0, f.At)}
			}
			st.Fitted = fm
		}
	case persist.OpPromote:
		r.epoch = max(r.epoch, rec.Epoch)
	}
	r.gen = max(r.gen, rec.Gen)
}

// reset replaces the whole state with snap (the epoch never regresses)
// under a fresh incarnation: whatever a reader cached of the old state,
// the new one may reach the same generation with other apps.
func (r *Registry) reset(snap persist.Snapshot) {
	r.incarnation = newIncarnation()
	r.apps = make(map[string]*AppState, len(snap.Apps))
	for _, rec := range snap.Apps {
		a := recordToState(rec)
		r.apps[a.ID] = &a
	}
	r.gen, r.seq, r.evictions = snap.Generation, snap.Seq, snap.Evictions
	r.epoch = max(r.epoch, snap.Epoch)
}

// AttachStore recovers the registry from the store — snapshot, then
// every journal record through commit, so a record a follower would
// refuse fails the recovery too, naming its line — and installs the
// store so every later mutation is journaled. Recovered applications
// get a fresh TTL window (LastBeat = now): after a daemon restart each
// survivor has one full deadline to resume heartbeating before it is
// evicted. Generation, sequence, eviction count and epoch resume from
// the persisted values. Call it before the registry is shared.
func (r *Registry) AttachStore(st *persist.Store) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap, recs := st.Recovered()
	r.reset(snap)
	for i, rec := range recs {
		if err := r.commit(rec, time.Time{}); err != nil {
			return fmt.Errorf("ctrlplane: replaying journal line %d: %w", i+1, err)
		}
	}
	r.rearmLocked()
	r.restored = len(r.apps)
	r.store = st
	return nil
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
		Priority:     a.Spec.Priority,
		MovedRound:   a.Spec.MovedRound,
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
			Priority:   rec.Priority,
			MovedRound: rec.MovedRound,
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
// TTLs have the journal's millisecond resolution.
func (r *Registry) Register(spec AppSpec, ttl time.Duration) (AppState, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ttl < time.Millisecond {
		ttl = r.defaultTTL
	}
	now := r.clock()
	app := stateToRecord(AppState{
		ID:           fmt.Sprintf("%s-%d", sanitizeID(spec.Name), r.seq+1),
		Spec:         spec,
		TTL:          ttl,
		RegisteredAt: now,
		LastBeat:     now,
	})
	if err := r.commit(persist.Record{Op: persist.OpRegister, App: &app, Gen: r.gen + 1, Seq: r.seq + 1}, now); err != nil {
		return AppState{}, 0, fmt.Errorf("persisting registration: %w", err)
	}
	return *r.apps[app.ID], r.gen, nil
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
// its stats (in memory only: they are not journaled). ErrUnknownApp
// means the app was evicted or never existed.
func (r *Registry) Heartbeat(hb HeartbeatRequest) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.apps[hb.ID]
	if !ok {
		return ErrUnknownApp
	}
	now := r.clock()
	_ = r.commit(persist.Record{Op: persist.OpHeartbeat, ID: hb.ID, Beat: now.UnixNano(), Beats: st.Beats + 1}, now) // never refused: see journalPolicy
	st.LastStats = hb
	return nil
}

// Deregister removes an application; it reports whether it was present.
func (r *Registry) Deregister(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.apps[id]; !ok {
		return false
	}
	_ = r.commit(persist.Record{Op: persist.OpDeregister, ID: id, Gen: r.gen + 1}, r.clock()) // never refused: see journalPolicy
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
	return r.commitFitted(id, &persist.FittedRecord{
		AI:         f.AI,
		PeakGFLOPS: f.PeakGFLOPS,
		Confidence: f.Confidence,
		At:         f.UpdatedAt.UnixNano(),
	})
}

// ClearFitted removes an applied fitted model, returning the app to its
// declared spec. No-op (and no generation bump) when none is applied.
func (r *Registry) ClearFitted(id string) (uint64, error) {
	return r.commitFitted(id, nil)
}

func (r *Registry) commitFitted(id string, f *persist.FittedRecord) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.apps[id]
	if !ok {
		return 0, ErrUnknownApp
	}
	if f == nil && st.Fitted == nil {
		return r.gen, nil
	}
	if err := r.commit(persist.Record{Op: persist.OpFitted, ID: id, Fitted: f, Gen: r.gen + 1}, r.clock()); err != nil {
		return 0, fmt.Errorf("persisting fitted model: %w", err)
	}
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
			evicted = append(evicted, id)
		}
	}
	if len(evicted) > 0 {
		sort.Strings(evicted)
		_ = r.commit(persist.Record{ // never refused: see journalPolicy
			Op: persist.OpEvict, IDs: evicted,
			Gen: r.gen + 1, Evictions: r.evictions + uint64(len(evicted)),
		}, now)
	}
	return evicted
}

// Snapshot returns the live applications (sorted by ID for determinism)
// and the current generation.
func (r *Registry) Snapshot() ([]AppState, uint64) {
	apps, _, gen := r.SnapshotInto(nil)
	return apps, gen
}

// SnapshotInto is Snapshot appending into a caller-owned buffer
// (typically buf[:0] of a pooled slice), so steady-state serve paths
// take their registry view without allocating, plus the incarnation the
// snapshot was taken in — all three under one lock. The sort is an
// insertion sort: no allocation, and the map iteration feeds it
// near-random order of a small set.
func (r *Registry) SnapshotInto(buf []AppState) (apps []AppState, incarnation string, gen uint64) {
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
	return out, r.incarnation, r.gen
}

// Version returns the registry's incarnation and generation. The live
// set and every fitted model are a function of the pair: while a reader
// is handed back the pair it holds, what it read under it still stands
// (heartbeat counters and timestamps excepted, they move without a
// generation).
func (r *Registry) Version() (incarnation string, gen uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.incarnation, r.gen
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

// PersistFailures counts journal appends and compactions that failed,
// refused registrations included.
func (r *Registry) PersistFailures() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.persistFails
}

// RestoredApps reports how many applications AttachStore recovered.
func (r *Registry) RestoredApps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.restored
}

// HasStore reports whether mutations are journaled to a state dir.
func (r *Registry) HasStore() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store != nil
}

// Epoch returns the highest replication fencing epoch the registry has
// committed (0 for a standalone daemon).
func (r *Registry) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// SetObserver installs fn to see every committed record, in commit
// order — the feed of the replication log. fn runs under the registry
// lock and must not call back into the registry. Pass nil to remove.
func (r *Registry) SetObserver(fn func(persist.Record)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observer = fn
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
	r.rearmLocked()
}

func (r *Registry) rearmLocked() {
	now := r.clock()
	for _, st := range r.apps {
		st.LastBeat = now
	}
}

// Promote marks a leadership change: it bumps the generation (clients
// re-read allocations under the new leader) and commits a promote
// record carrying the new fencing epoch, so neither counter can regress
// across a restart. Returns the new generation.
func (r *Registry) Promote(epoch uint64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	_ = r.commit(persist.Record{Op: persist.OpPromote, Gen: r.gen + 1, Epoch: epoch}, r.clock()) // never refused: see journalPolicy
	return r.gen
}

// ApplyRecord commits one replicated journal record from the leader,
// keeping the leader's ID/generation/sequence numbering. This is the
// follower half of journal streaming: the same record stream that makes
// the leader durable makes the follower a replica.
func (r *Registry) ApplyRecord(rec persist.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.commit(rec, time.Time{}); err != nil {
		return fmt.Errorf("ctrlplane: replicated record: %w", err)
	}
	return nil
}

// ResetFromSnapshot replaces the registry's entire state with a
// leader-shipped snapshot (and this replica's state dir with it).
// Used when a follower is too far behind the leader's journal tail for
// a suffix to exist — first sync, or rejoin after a partition.
func (r *Registry) ResetFromSnapshot(snap persist.Snapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reset(snap)
	if r.store != nil {
		if err := r.store.Compact(r.snapshotLocked()); err != nil {
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
	return r.snapshotLocked()
}

func (r *Registry) snapshotLocked() persist.Snapshot {
	snap := persist.Snapshot{
		Generation: r.gen,
		Seq:        r.seq,
		Evictions:  r.evictions,
		Epoch:      r.epoch,
		Apps:       make([]persist.AppRecord, 0, len(r.apps)),
	}
	for _, st := range r.apps {
		snap.Apps = append(snap.Apps, stateToRecord(*st))
	}
	sort.Slice(snap.Apps, func(i, j int) bool { return snap.Apps[i].ID < snap.Apps[j].ID })
	return snap
}
