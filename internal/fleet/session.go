package fleet

import (
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/freelist"
	"repro/internal/machine"
	"repro/internal/roofline"
)

// candidate is one member's scoring state during a planning session.
// Decisions accumulate: each chosen app is committed so later decisions
// in the same session see the earlier simulated moves.
type candidate struct {
	id     string
	member int // index in the session's snapshot
	topo   *machine.Machine
	demand []roofline.App
	// ids parallels demand: the member-local app ID behind each entry
	// ("" for apps committed during the session). snap counts the
	// leading entries loaded from the snapshot, so demand[:snap] is the
	// member's polled demand set whatever the session committed since.
	ids  []string
	snap int
	apps int
	bad  int // numa-bad registrations

	// domain is the member's failure domain and groups its
	// per-cooperating-group app counts (group = app name with the
	// trailing "-<n>" replica suffix stripped); the map is kept with the
	// pooled candidate between sessions.
	domain string
	groups map[string]int

	// keyBuf holds the candidate's equivalence-class key (topology hash
	// + objective + sorted demand segments), built lazily into a reused
	// backing array, and class and dom number the key and the domain in
	// tab, the class table of the Scorer that built them. before is that
	// Scorer's solve of the class, once a marginal read it (its solved is
	// nil until then, and for the empty demand set). All five hold only
	// while tab is the deciding Scorer's table: commit, remove and reset
	// drop tab and before — the only invalidation the content-addressed
	// scheme needs — and a full table is replaced (Scorer.table).
	keyBuf     []byte
	class, dom int32
	tab        *classTable
	before     solveOutcome

	// version is the demand version (see demandVersions) of the snapshot
	// row the candidate was loaded from: the next reset takes the
	// candidate as it is for a row of the same member at the same
	// version. 0 means never: loaded without demand, or changed since by
	// commit or remove.
	version uint64
}

// groupOf derives an app's cooperating-group label from its name: one
// trailing "-<digits>" replica suffix is stripped, so web-0..web-9 form
// group "web". A name without the suffix is its own group.
func groupOf(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}

// classKey returns the candidate's equivalence-class key and numbers it
// and the candidate's domain in t (c.class, c.dom). All three are cached
// on the candidate until commit, remove or reset changes what they
// describe, or a decision reads them from another table: one pooled
// session serves Scorers of any objective, each with a table of its own.
func (c *candidate) classKey(sc *Scorer, s *scoreScratch, t *classTable) []byte {
	if c.tab != t {
		key, _ := sc.demandKey(&s.key, c.topo, c.demand)
		c.keyBuf = append(c.keyBuf[:0], key...)
		c.class, c.dom = t.ids(c.keyBuf, c.domain)
		c.tab, c.before = t, solveOutcome{}
	}
	return c.keyBuf
}

// commit folds an app into the candidate so subsequent decisions
// against it see the app; id is its member-local ID when it is already
// registered there. A spec the model rejects (should not happen — coopd
// validated it) still counts as an app but adds no demand. The cached
// class key is dropped: the demand multiset changed, so the candidate
// naturally re-keys into its new equivalence class, and the candidate
// no longer matches its member's snapshot row: the next session
// rebuilds it.
func (c *candidate) commit(spec AppSpec, id string) {
	if app, err := spec.rooflineApp(); err == nil {
		c.demand = append(c.demand, app)
		c.ids = append(c.ids, id)
	}
	c.apps++
	if spec.numaBad() {
		c.bad++
	}
	c.groups[groupOf(spec.Name)]++
	c.tab, c.before, c.version = nil, solveOutcome{}, 0
}

// remove is commit's inverse for evictions: it drops the demand entry
// at index i (the spec describes the app backing it).
func (c *candidate) remove(i int, spec AppSpec) {
	c.demand = slices.Delete(c.demand, i, i+1)
	c.ids = slices.Delete(c.ids, i, i+1)
	if i < c.snap {
		c.snap--
	}
	c.apps--
	if spec.numaBad() {
		c.bad--
	}
	g := groupOf(spec.Name)
	if n := c.groups[g]; n > 1 {
		c.groups[g] = n - 1
	} else {
		delete(c.groups, g)
	}
	c.tab, c.before, c.version = nil, solveOutcome{}, 0
}

// candidateSet owns reusable scoring candidates, one per snapshot
// position: reset rebuilds the set from a member snapshot while keeping
// the candidate structs and their demand backing arrays, and takes a
// candidate whose member's demand did not change since it was loaded as
// it is, so a decision re-derives only the members that changed. Not
// safe for concurrent use; every session owns its own.
type candidateSet struct {
	all []*candidate // by snapshot position, grown monotonically
	out []*candidate

	// reused and rebuilt count the last reset's candidates.
	reused, rebuilt int
}

// reset rebuilds the set from healthy, non-draining members (ID order
// preserved from the snapshot). withDemand=false leaves every
// candidate's demand set empty — the imbalance re-pack's from-scratch
// starting state. Every candidate carries its failure domain and
// per-group app counts.
//
// A candidate loaded with demand from the same member at the same
// demand version is reused as it is — demand, IDs, counts, groups and
// cached class key — since everything it holds derives from what that
// version names.
func (cs *candidateSet) reset(members []Member, withDemand bool) []*candidate {
	cs.out, cs.reused, cs.rebuilt = cs.out[:0], 0, 0
	for len(cs.all) < len(members) {
		cs.all = append(cs.all, &candidate{})
	}
	for i := range members {
		m := &members[i]
		if !m.Healthy() || m.Draining {
			continue
		}
		c := cs.all[i]
		c.member = i
		cs.out = append(cs.out, c)
		if withDemand && m.version != 0 && c.version == m.version && c.id == m.ID {
			cs.reused++
			continue
		}
		cs.rebuilt++
		c.id, c.topo = m.ID, m.Topology
		c.demand, c.ids, c.tab, c.before = c.demand[:0], c.ids[:0], nil, solveOutcome{}
		c.apps, c.bad = 0, 0
		c.domain = m.Domain
		if c.domain == "" {
			c.domain = m.ID // every machine its own domain by default
		}
		if c.groups == nil {
			c.groups = map[string]int{}
		}
		clear(c.groups)
		if withDemand {
			for _, a := range m.Apps {
				c.commit(a.EffectiveSpec(), a.ID)
			}
		}
		c.snap = len(c.demand)
		c.version = 0
		if withDemand {
			c.version = m.version
		}
	}
	return cs.out
}

// keepCands appends the candidates keep admits to dst.
func keepCands(dst, cands []*candidate, keep func(*candidate) bool) []*candidate {
	for _, c := range cands {
		if keep(c) {
			dst = append(dst, c)
		}
	}
	return dst
}

// appKey names one registration fleet-wide: app IDs are machine-local.
type appKey struct{ member, app string }

// session is one planning pass over one inventory snapshot. It owns
// what every planner — single placement, gang admission, the
// rebalancer's passes — works on: the member view with its
// stale-duplicate set, the candidate set and its by-ID index, host
// class ranks, the round clock, the pool and demand scratch, and the
// move ledger. Planning through a session does no I/O and touches no
// inventory state; the result is a list of Moves for the executor
// (Inventory.relocate). Sessions are pooled together with their
// snapshot buffers, so a decision on a warm fleet allocates nothing for
// either. Not safe for concurrent use.
type session struct {
	sc      *Scorer
	members []Member
	cur     candidateSet
	cands   []*candidate // healthy, non-draining members, ID order

	// dup marks stale duplicates (see staleDuplicates); round is the
	// round being planned and cooldown its CooldownRounds. All three stay
	// zero outside a rebalance round. byID and ranks are built on first
	// use.
	dup             map[appKey]bool
	round, cooldown uint64
	byID            map[string]*candidate
	ranks           map[string]int

	fresh  candidateSet   // the imbalance pass's from-scratch re-pack
	owned  []ownedApp     // the imbalance pass's apps, in re-pack order
	key    []byte         // the imbalance pass's re-pack memo key
	pool   []*candidate   // pick's filtered view
	demand []roofline.App // demand-rebuild scratch

	// The ledger: every planned move lands in moves through move, which
	// debits budget; exhausted counts what the budget pushed out.
	moves    []Move
	deferred int
	budget   int
}

var sessions freelist.List[session]

// openSession starts a planning session over the inventory's current
// snapshot with an unlimited ledger. Callers must close the session.
func openSession(sc *Scorer, inv *Inventory) *session {
	s := sessions.Get()
	var copied int
	s.sc = sc
	s.members, copied = inv.snapshotInto(s.members)
	s.cands = s.cur.reset(s.members, true)
	inv.rowsCopied.Add(uint64(copied))
	inv.reused.Add(uint64(s.cur.reused))
	inv.rebuilt.Add(uint64(s.cur.rebuilt))
	s.budget = math.MaxInt
	return s
}

// close returns the session to the pool, dropping everything that was
// handed to the caller. The snapshot buffer stays with the session for
// the next one to overwrite, which is sound because nothing a session
// hands out points into it: moves, decisions and stale-duplicate records
// carry copied specs and (immutable) strings only
// (TestSessionOutputsDoNotAliasSnapshot).
func (s *session) close() {
	s.dup, s.round, s.cooldown, s.byID, s.ranks = nil, 0, 0, nil, nil
	s.moves, s.deferred = nil, 0
	sessions.Put(s)
}

// cand returns the candidate for a member ID, nil when the member is
// not a placement target (dead, quarantined, draining, never polled).
func (s *session) cand(id string) *candidate {
	if s.byID == nil {
		s.byID = make(map[string]*candidate, len(s.cands))
		for _, c := range s.cands {
			s.byID[c.id] = c
		}
	}
	return s.byID[id]
}

// rank returns a member's highest hosted class rank in the snapshot —
// the inversion test for a starved machine, and the inversion-avoidance
// input for victim destinations: pushing a machine that hosts a class
// above the victim's over its floor capacity would only move the
// inversion, not fix it.
func (s *session) rank(id string) int {
	if s.ranks == nil {
		s.ranks = make(map[string]int, len(s.members))
		for i := range s.members {
			top := 0
			for _, a := range s.members[i].Apps {
				top = max(top, ClassRank(a.Priority))
			}
			s.ranks[s.members[i].ID] = top
		}
	}
	return s.ranks[id]
}

// staleDuplicates lists the registrations revived members still carry
// for apps that were re-homed while the member was dead (or quarantined
// — its coopd still answers, so the duplicate can be deregistered), and
// marks them in dup: duplicates are excluded from move planning and the
// imbalance aggregate.
func (s *session) staleDuplicates() []StaleDereg {
	var out []StaleDereg
	for i := range s.members {
		m := &s.members[i]
		if !m.Alive() {
			continue
		}
		for _, id := range m.Stale {
			if slices.ContainsFunc(m.Apps, func(a PlacedApp) bool { return a.ID == id }) {
				out = append(out, StaleDereg{Member: m.ID, AppID: id})
				if s.dup == nil {
					s.dup = map[appKey]bool{}
				}
				s.dup[appKey{m.ID, id}] = true
			}
		}
	}
	return out
}

// frozen reports whether the quiet passes must leave the app alone: a
// stale duplicate awaiting cleanup, or inside its post-move cooldown.
func (s *session) frozen(member string, a *PlacedApp) bool {
	return s.dup[appKey{member, a.ID}] || s.roundsLeft(a.MovedRound) > 0
}

// roundsLeft counts the rounds, the planned one included, the cooldown
// of an app moved in round moved holds: rounds moved..moved+cooldown.
func (s *session) roundsLeft(moved uint64) int {
	if age := s.round - moved; moved != 0 && s.cooldown > 0 && age <= s.cooldown {
		return int(s.cooldown-age) + 1
	}
	return 0
}

// cooldowns is Plan.Cooldowns; nil when no app is cooling down.
func (s *session) cooldowns() (out map[string]int) {
	for i := range s.members {
		for j := range s.members[i].Apps {
			a := &s.members[i].Apps[j]
			if n := s.roundsLeft(a.MovedRound); n > 0 && n > out[a.Name] {
				if out == nil {
					out = map[string]int{}
				}
				out[a.Name] = n
			}
		}
	}
	return out
}

// pick decides spec against the candidates keep admits (nil: all of
// them). The filtered view stays in s.pool until the next pick, so a
// caller can tell an empty pool from a failed decision.
func (s *session) pick(spec AppSpec, keep func(*candidate) bool) (*Decision, *candidate, error) {
	if keep == nil {
		return s.sc.decide(spec, s.cands)
	}
	s.pool = keepCands(s.pool[:0], s.cands, keep)
	return s.sc.decide(spec, s.pool)
}

// exhausted reports whether the ledger is spent, counting the move the
// caller was about to plan as deferred when it is.
func (s *session) exhausted() bool {
	if s.budget > 0 {
		return false
	}
	s.deferred++
	return true
}

// move is the ledger's one entry point: it records the relocation of a
// registered app to the candidate decision d chose (the zero Decision
// for a target no decision scored), commits it there so later decisions
// see it, and debits the budget.
func (s *session) move(app *PlacedApp, from, reason string, to *candidate, d *Decision) {
	spec := app.EffectiveSpec()
	s.moves = append(s.moves, Move{
		AppID: app.ID, App: spec, From: from, To: to.id, Reason: reason, Score: d.Score, solved: d.solved, moved: app.MovedRound,
	})
	to.commit(spec, "")
	s.budget--
}

// without solves demand minus its entry i — what the machine keeps if
// that app leaves.
func (s *session) without(topo *machine.Machine, demand []roofline.App, i int) (float64, error) {
	s.demand = append(append(s.demand[:0], demand[:i]...), demand[i+1:]...)
	return s.sc.SolveTotal(topo, s.demand)
}

// evict is preemption's shared machinery. When a higher-class app (or
// gang member) cannot be admitted floor-feasibly, the fleet evicts the
// cheapest lower-class victims — by lost aggregate GFLOPS per freed
// floor slot — and re-homes them where they cannot cause a priority
// inversion. Two clients use it: the Rebalancer's planPreempt pass
// repairs inversions the urgent evacuation left behind (a latency app
// re-homed onto a full machine during a loss), and gang admission makes
// room for a high-class gang member before anything registers. Victim
// moves carry ReasonPreempt, go through the ledger like every other
// move, and start the moved app's cooldown when executed.
//
// evict frees up to need floor slots on candidate c by evicting its
// cheapest victims below rank among the apps the snapshot shows there;
// apps the session froze, already evicted, or committed during the
// session are never chosen. Cheapest means smallest aggregate loss
// on c, measured by re-solving c's demand without each eligible victim
// — one-shot, not re-ranked between evictions; the solve memo makes
// each measurement one cached ±1 solve. Each victim is re-homed by an
// ordinary decision over the other candidates, restricted — when
// possible — to machines that either have free floor capacity or host
// nothing above the victim's own class. Returns the planned moves (nil
// when no eviction is possible).
func (s *session) evict(c *candidate, rank, need int) []Move {
	if need <= 0 || rank <= 0 {
		return nil
	}
	type victim struct {
		app  *PlacedApp
		at   int // its entry in c.demand while nothing is evicted yet
		loss float64
	}
	var victims []victim
	apps := s.members[c.member].Apps
	for i := range apps {
		a := &apps[i]
		if at := slices.Index(c.ids, a.ID); at >= 0 && ClassRank(a.Priority) < rank && !s.frozen(c.id, a) {
			victims = append(victims, victim{app: a, at: at})
		}
	}
	if len(victims) == 0 {
		return nil
	}
	base, err := s.sc.SolveTotal(c.topo, c.demand)
	if err != nil {
		return nil
	}
	scored := victims[:0]
	for _, v := range victims {
		after, err := s.without(c.topo, c.demand, v.at)
		if err != nil {
			continue
		}
		v.loss = base - after
		scored = append(scored, v)
	}
	sort.Slice(scored, func(a, b int) bool {
		if scored[a].loss != scored[b].loss {
			return scored[a].loss < scored[b].loss
		}
		return scored[a].app.ID < scored[b].app.ID
	})
	// Evicting every lower-class app still relieves the inversion —
	// whatever starvation remains is among equals.
	planned := len(s.moves)
	for _, v := range scored[:min(need, len(scored))] {
		spec, vrank := v.app.EffectiveSpec(), ClassRank(v.app.Priority)
		d, dst, err := s.pick(spec, func(cc *candidate) bool {
			return cc != c && (len(cc.demand)+1 <= FloorCapacity(cc.topo) || s.rank(cc.id) <= vrank)
		})
		if len(s.pool) == 0 {
			// No inversion-safe machine: settle for anything but c.
			d, dst, err = s.pick(spec, func(cc *candidate) bool { return cc != c })
			if len(s.pool) == 0 {
				break // single-machine fleet: nowhere to put victims
			}
		}
		if err != nil {
			continue
		}
		c.remove(slices.Index(c.ids, v.app.ID), spec)
		s.move(v.app, c.id, ReasonPreempt, dst, d)
	}
	return s.moves[planned:]
}
