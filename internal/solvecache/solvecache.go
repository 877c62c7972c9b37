// Package solvecache is the one content-addressed memo between a demand
// set and its solved optimum. coopd's ctrlplane.Solver and fleetd's
// fleet.Scorer both key their solves through Key and store them in a
// Cache; nothing else in the repository encodes demand keys, bounds an
// LRU or memoizes topology hashes.
//
// Key layout: 8-byte big-endian topology hash, one tag-length byte and
// the caller's tag (the policy or objective the values were solved
// under), then one SegBytes-wide segment per app in sorted order. Apps
// with equal segments are interchangeable to the solver, so permuted or
// renamed demand sets deliberately collide; any change to the demand
// multiset changes the key, so entries are never invalidated — stale
// ones age out of the LRU.
package solvecache

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/machine"
	"repro/internal/roofline"
)

// SegBytes is the fixed width of one app's key segment: 8-byte AI float
// bits, 1 placement byte, 4-byte home node, 8-byte objective weight
// bits, 4-byte thread cap — every per-app field a cached value can
// depend on (names excluded on purpose).
const SegBytes = 25

// maxTopoEntries bounds the pointer-keyed topology-hash memo; past it
// the map is simply dropped (hashes recompute in microseconds).
const maxTopoEntries = 8192

// FNV-64a parameters.
const (
	offset64 = 0xcbf29ce484222325
	prime64  = 0x100000001b3
)

// TopologyHash fingerprints a machine for cache keying; two machines
// with identical topologies (name, nodes, links) share solutions. The
// hash walks the fields directly (FNV-64a) so keying allocates nothing.
func TopologyHash(m *machine.Machine) uint64 {
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for i := 0; i < len(m.Name); i++ {
		h ^= uint64(m.Name[i])
		h *= prime64
	}
	mix(uint64(len(m.Nodes)))
	for _, n := range m.Nodes {
		mix(uint64(n.Cores))
		mix(math.Float64bits(n.PeakGFLOPS))
		mix(math.Float64bits(n.MemBandwidth))
	}
	if m.LinkBandwidth == nil {
		mix(0)
		return h
	}
	mix(1)
	for _, row := range m.LinkBandwidth {
		for _, bw := range row {
			mix(math.Float64bits(bw))
		}
	}
	return h
}

// Key builds one demand set's cache key in a reused buffer: Reset, one
// Add per app, then Sort — or Insert of one app into another finished
// key. The zero value is ready to use.
type Key struct {
	buf  []byte
	segs int // offset of the first segment in buf
	perm []int
}

// Reset starts a key for a machine with the given topology hash, solved
// under tag (at most 255 bytes).
func (k *Key) Reset(topoHash uint64, tag string) {
	k.buf = binary.BigEndian.AppendUint64(k.buf[:0], topoHash)
	k.buf = append(k.buf, byte(len(tag)))
	k.buf = append(k.buf, tag...)
	k.segs = len(k.buf)
}

// Add appends one app's segment; maxThreads 0 means uncapped.
func (k *Key) Add(a *roofline.App, maxThreads int) {
	k.buf = appendSeg(k.buf, a, maxThreads)
}

func appendSeg(buf []byte, a *roofline.App, maxThreads int) []byte {
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(a.AI))
	buf = append(buf, byte(a.Placement))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(a.HomeNode)))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(a.Weight))
	return binary.BigEndian.AppendUint32(buf, uint32(maxThreads))
}

// Insert builds into k the key of key's demand set plus one app: key, a
// finished key (not k's own), with the app's segment inserted after
// every segment that does not sort above it. That is byte for byte the
// key Reset, one Add per app with this one last, and Sort build, found
// by a binary search over the sorted segments instead of a sort and
// without hashing the topology again. The result is valid until the
// next Reset or Insert; it is a finished key, not one to Add to.
func (k *Key) Insert(key []byte, a *roofline.App, maxThreads int) []byte {
	var seg [SegBytes]byte
	appendSeg(seg[:0], a, maxThreads)
	segs := 9 + int(key[8]) // hash, tag length, tag
	lo, hi := 0, (len(key)-segs)/SegBytes
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if at := segs + mid*SegBytes; bytes.Compare(key[at:at+SegBytes], seg[:]) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	at := segs + lo*SegBytes
	k.buf = append(append(append(k.buf[:0], key[:at]...), seg[:]...), key[at:]...)
	return k.buf
}

// Sort puts the segments into canonical order and returns the finished
// key with the permutation that produced it: slot s of the key holds
// the perm[s]-th added app. Both slices are valid until the next Reset.
// Apps with equal segments keep their Add order unless before (which
// may be nil) says app i must precede app j. Insertion sort: demand
// sets are small and arrive mostly sorted, and it allocates nothing.
func (k *Key) Sort(before func(i, j int) bool) (key []byte, perm []int) {
	segs := k.buf[k.segs:]
	n := len(segs) / SegBytes
	if cap(k.perm) < n {
		k.perm = make([]int, n)
	}
	k.perm = k.perm[:n]
	for i := range k.perm {
		k.perm[i] = i
	}
	var x [SegBytes]byte
	for i := 1; i < n; i++ {
		copy(x[:], segs[i*SegBytes:])
		j := i
		for ; j > 0; j-- {
			prev := segs[(j-1)*SegBytes : j*SegBytes]
			c := bytes.Compare(prev, x[:])
			if c < 0 || (c == 0 && (before == nil || !before(i, k.perm[j-1]))) {
				break
			}
			copy(segs[j*SegBytes:], prev)
			k.perm[j] = k.perm[j-1]
		}
		copy(segs[j*SegBytes:], x[:])
		k.perm[j] = i
	}
	return k.buf, k.perm
}

// Digest is the 64-bit FNV-1a fingerprint of a finished key: what
// fleetd ships with a solved optimum so the member can tell, against
// its own key, whether the solve is of the demand set it now holds.
func Digest(key []byte) uint64 {
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// Counters are a Cache's cumulative hit/miss/coalesce counts and its
// current size, in the form both daemons serve them.
type Counters struct {
	Hits uint64 `json:"hits"`
	// Misses counts fills that ran a search.
	Misses uint64 `json:"misses"`
	// Adopted counts fills satisfied by an offered solution instead.
	Adopted uint64 `json:"adopted,omitempty"`
	// Stale and Invalid count offers coopd's solver refused (and then
	// solved for itself): made for another key, or failing validation.
	// The Cache itself never sets them.
	Stale   uint64 `json:"stale,omitempty"`
	Invalid uint64 `json:"invalid,omitempty"`
	// Coalesced counts solves that joined an identical in-flight solve
	// (singleflight) instead of running their own.
	Coalesced uint64 `json:"coalesced,omitempty"`
	Entries   int    `json:"entries"`
}

type entry[V any] struct {
	key string
	val V
}

// call is one in-progress solve; followers of the same key block on
// done instead of re-running it.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a bounded LRU from Key bytes to solved values with
// singleflight collapsing of concurrent identical solves. Values must
// be treated as immutable once returned. Safe for concurrent use.
type Cache[V any] struct {
	capacity int

	mu        sync.Mutex
	entries   map[string]*list.Element // -> *entry[V]
	lru       list.List                // front: most recently used
	flight    map[string]*call[V]
	topo      map[*machine.Machine]uint64
	hits      uint64
	misses    uint64
	adopted   uint64
	coalesced uint64
}

// New returns a cache holding at most capacity entries; past it the
// least-recently-used entry is evicted, so a demand mix cycling past the
// bound keeps its working set.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		capacity: capacity,
		entries:  map[string]*list.Element{},
		flight:   map[string]*call[V]{},
		topo:     map[*machine.Machine]uint64{},
	}
}

// Counters returns the cache's counters.
func (c *Cache[V]) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Counters{Hits: c.hits, Misses: c.misses, Adopted: c.adopted, Coalesced: c.coalesced, Entries: len(c.entries)}
}

// TopologyHash is TopologyHash memoized by machine pointer: callers pass
// the same *Machine until a re-poll or restart replaces it, so the
// steady state never re-hashes.
func (c *Cache[V]) TopologyHash(m *machine.Machine) uint64 {
	c.mu.Lock()
	h, ok := c.topo[m]
	c.mu.Unlock()
	if ok {
		return h
	}
	h = TopologyHash(m)
	c.mu.Lock()
	if len(c.topo) >= maxTopoEntries {
		clear(c.topo)
	}
	c.topo[m] = h
	c.mu.Unlock()
	return h
}

// Get returns the value cached under key when ok accepts it, counted as
// a hit and moved to the front of the LRU. It never fills and never
// waits on a fill in flight: a missing or refused value counts nothing,
// and a caller that goes on to solve stores what it solved with Put.
// The fleet Scorer keeps "below this bar" beside exact solves and reads
// the bar's question through Get and Put; its exact questions go
// through Do, which coalesces them. A hit allocates nothing; key may be
// reused as soon as Get returns.
func (c *Cache[V]) Get(key []byte, ok func(V) bool) (val V, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.entries[string(key)]
	if !found {
		return val, false
	}
	if val = el.Value.(*entry[V]).val; !ok(val) {
		return val, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return val, true
}

// Put stores val under key, counted as a miss: a fill that ran a
// search. A value already cached under key stays in val's place when
// keep accepts it — it answers every question val does — so a fill
// that raced a better one does not undo it. key may be reused as soon
// as Put returns.
func (c *Cache[V]) Put(key []byte, val V, keep func(old V) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	if el, ok := c.entries[string(key)]; ok && keep(el.Value.(*entry[V]).val) {
		c.lru.MoveToFront(el)
		return
	}
	c.store(string(key), val)
}

// store puts val under k at the front of the LRU, in place of any
// value cached there, and evicts past the capacity. The caller holds
// c.mu.
func (c *Cache[V]) store(k string, val V) {
	if el, ok := c.entries[k]; ok {
		el.Value.(*entry[V]).val = val
		c.lru.MoveToFront(el)
		return
	}
	c.entries[k] = c.lru.PushFront(&entry[V]{key: k, val: val})
	for len(c.entries) > c.capacity {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*entry[V]).key)
	}
}

// Do returns the value cached under key, joins an in-flight fill of the
// same key, or fills it: from offer when that is non-nil and returns a
// value (counted as adopted), else by running solve (counted as a
// miss). hit reports that this call did not fill the key itself. Errors
// are returned to the leader and every follower but never cached: they
// are rare (invalid demand) and re-solving keeps the memo free of
// negative entries. A hit allocates nothing; key may be reused as soon
// as Do returns.
//
// ok, unless nil, is for a memo whose values do not all answer every
// question (see Get): a cached value answers only when ok accepts it,
// and a refused one is filled again and replaced. A follower takes the
// fill's value unchecked, so every Do of one key must pass an ok that
// accepts what its own fill returns.
func (c *Cache[V]) Do(key []byte, ok func(V) bool, offer func() (V, bool), solve func() (V, error)) (val V, hit bool, err error) {
	c.mu.Lock()
	if el, found := c.entries[string(key)]; found {
		if val = el.Value.(*entry[V]).val; ok == nil || ok(val) {
			c.lru.MoveToFront(el)
			c.hits++
			c.mu.Unlock()
			return val, true, nil
		}
	}
	if fc, found := c.flight[string(key)]; found {
		// A fill of this exact key is running; wait for its result
		// instead of duplicating the work (heartbeat storms after a
		// restart all carry the same demand set).
		c.coalesced++
		c.mu.Unlock()
		<-fc.done
		return fc.val, fc.err == nil, fc.err
	}
	k := string(key) // the one per-distinct-miss allocation
	fc := &call[V]{done: make(chan struct{})}
	c.flight[k] = fc
	c.mu.Unlock()

	adopted := false
	if offer != nil {
		fc.val, adopted = offer()
	}
	if !adopted {
		fc.val, fc.err = solve()
	}

	c.mu.Lock()
	if adopted {
		c.adopted++
	} else {
		c.misses++
	}
	if fc.err == nil {
		c.store(k, fc.val)
	}
	delete(c.flight, k)
	c.mu.Unlock()
	close(fc.done)
	return fc.val, false, fc.err
}
