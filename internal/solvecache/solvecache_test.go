package solvecache

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/roofline"
)

// TestKeySortCanonical: any Add order of the same demand multiset
// yields the same key, perm maps slots back to Add order, equal
// segments keep Add order unless before reorders them, and every keyed
// field (and the tag) separates keys.
func TestKeySortCanonical(t *testing.T) {
	apps := []roofline.App{
		{Name: "c", AI: 10},
		{Name: "m1", AI: 0.5},
		{Name: "bad", AI: 0.5, Placement: roofline.NUMABad, HomeNode: 2},
		{Name: "m2", AI: 0.5},
	}
	build := func(tag string, order []int, before func(i, j int) bool) ([]byte, []int) {
		var k Key
		k.Reset(42, tag)
		for _, i := range order {
			k.Add(&apps[i], 0)
		}
		key, perm := k.Sort(before)
		return append([]byte(nil), key...), append([]int(nil), perm...)
	}
	want, perm := build("t", []int{0, 1, 2, 3}, nil)
	if got := []int{1, 3, 2, 0}; !equalInts(perm, got) {
		t.Errorf("perm = %v, want %v (AI 0.5 perfect ×2 in Add order, then the NUMA-bad one, then AI 10)", perm, got)
	}
	key, perm := build("t", []int{3, 2, 1, 0}, nil)
	if !bytes.Equal(key, want) {
		t.Errorf("permuted Add order changed the key")
	}
	if got := []int{0, 2, 1, 3}; !equalInts(perm, got) {
		t.Errorf("permuted perm = %v, want %v", perm, got)
	}
	// before: the later-added of the two equal apps claims the earlier slot.
	_, perm = build("t", []int{0, 1, 2, 3}, func(i, j int) bool { return i > j })
	if got := []int{3, 1, 2, 0}; !equalInts(perm, got) {
		t.Errorf("tie-broken perm = %v, want %v", perm, got)
	}
	if other, _ := build("u", []int{0, 1, 2, 3}, nil); bytes.Equal(other, want) {
		t.Error("tag does not separate keys")
	}

	base := roofline.App{AI: 1}
	variants := []struct {
		app roofline.App
		cap int
	}{
		{roofline.App{AI: 2}, 0},
		{roofline.App{AI: 1, Placement: roofline.NUMABad}, 0},
		{roofline.App{AI: 1, HomeNode: 1}, 0},
		{roofline.App{AI: 1, Weight: 4}, 0},
		{base, 3},
	}
	var k Key
	k.Reset(1, "")
	k.Add(&base, 0)
	ref, _ := k.Sort(nil)
	ref = append([]byte(nil), ref...)
	for i, v := range variants {
		k.Reset(1, "")
		k.Add(&v.app, v.cap)
		if got, _ := k.Sort(nil); bytes.Equal(got, ref) {
			t.Errorf("variant %d aliases the base key", i)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKeyInsertMatchesSort: over random demand sets drawn from a small
// vocabulary, so that runs of equal segments are common, Insert of one
// more app into the sorted key of the set is byte for byte the key
// Reset, Add of the set and the app last, and Sort build, and so is its
// Digest. Covered: the empty set, an app equal to a whole run, and tags
// of every length from empty to the 255-byte limit. Insert leaves the
// key it reads alone.
func TestKeyInsertMatchesSort(t *testing.T) {
	vocab := []roofline.App{
		{AI: 0.5}, {AI: 2}, {AI: 10}, {AI: 0.5, Weight: 4},
		{AI: 0.5, Placement: roofline.NUMABad, HomeNode: 1},
		{AI: 0.5, Placement: roofline.NUMABad, HomeNode: -1},
	}
	tags := []string{"", "t", "weighted-priority", strings.Repeat("x", 255)}
	r := rand.New(rand.NewSource(1))
	var sorted, ins Key
	for trial := 0; trial < 2000; trial++ {
		tag, hash := tags[trial%len(tags)], r.Uint64()
		demand := make([]roofline.App, r.Intn(10)) // empty in a tenth of the trials
		caps := make([]int, len(demand)+1)
		for i := range demand {
			demand[i], caps[i] = vocab[r.Intn(len(vocab))], r.Intn(2)*3
		}
		app, appCap := vocab[r.Intn(len(vocab))], r.Intn(2)*3
		if len(demand) > 0 && r.Intn(3) == 0 { // equal to a segment the set holds
			i := r.Intn(len(demand))
			app, appCap = demand[i], caps[i]
		}
		caps[len(demand)] = appCap

		sorted.Reset(hash, tag)
		for i := range demand {
			sorted.Add(&demand[i], caps[i])
		}
		key, _ := sorted.Sort(nil)
		key, orig := bytes.Clone(key), bytes.Clone(key)
		got := ins.Insert(key, &app, appCap)

		sorted.Reset(hash, tag)
		for i := range demand {
			sorted.Add(&demand[i], caps[i])
		}
		sorted.Add(&app, appCap)
		want, _ := sorted.Sort(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: %d apps + %+v (cap %d) under tag %q:\n inserted %x\n sorted   %x", trial, len(demand), app, appCap, tag, got, want)
		}
		if Digest(got) != Digest(want) {
			t.Fatalf("trial %d: digests %x and %x of equal keys", trial, Digest(got), Digest(want))
		}
		if !bytes.Equal(key, orig) {
			t.Fatalf("trial %d: Insert changed the key it read", trial)
		}
	}
}

// TestDoErrorsAreNotCached: a failed solve is reported, counted as a
// miss and retried by the next caller; the success that follows is
// served from the cache.
func TestDoErrorsAreNotCached(t *testing.T) {
	c := New[int](2)
	boom := errors.New("boom")
	key := []byte("k")
	if _, hit, err := c.Do(key, nil, nil, func() (int, error) { return 0, boom }); hit || !errors.Is(err, boom) {
		t.Fatalf("failed solve: hit=%v err=%v", hit, err)
	}
	if v, hit, err := c.Do(key, nil, nil, func() (int, error) { return 7, nil }); v != 7 || hit || err != nil {
		t.Fatalf("retry: v=%d hit=%v err=%v", v, hit, err)
	}
	if v, hit, err := c.Do(key, nil, nil, func() (int, error) { t.Fatal("solved a cached key"); return 0, nil }); v != 7 || !hit || err != nil {
		t.Fatalf("cached: v=%d hit=%v err=%v", v, hit, err)
	}
	if got, want := c.Counters(), (Counters{Hits: 1, Misses: 2, Entries: 1}); got != want {
		t.Errorf("counters = %+v, want %+v", got, want)
	}
}

// TestDoAdoptsAnOffer: a fill the offer satisfies runs no solve and is
// counted as adopted, not as a miss; an offer that declines falls
// through to the solve, and a cached key never consults its offer.
func TestDoAdoptsAnOffer(t *testing.T) {
	c := New[int](4)
	never := func() (int, error) { t.Fatal("solved an adopted key"); return 0, nil }
	if v, hit, err := c.Do([]byte("a"), nil, func() (int, bool) { return 3, true }, never); v != 3 || hit || err != nil {
		t.Fatalf("adopted: v=%d hit=%v err=%v", v, hit, err)
	}
	if v, hit, err := c.Do([]byte("a"), nil, func() (int, bool) { t.Fatal("offer consulted on a hit"); return 0, false }, never); v != 3 || !hit || err != nil {
		t.Fatalf("cached: v=%d hit=%v err=%v", v, hit, err)
	}
	if v, hit, err := c.Do([]byte("b"), nil, func() (int, bool) { return 9, false }, func() (int, error) { return 5, nil }); v != 5 || hit || err != nil {
		t.Fatalf("declined: v=%d hit=%v err=%v", v, hit, err)
	}
	if got, want := c.Counters(), (Counters{Hits: 1, Misses: 1, Adopted: 1, Entries: 2}); got != want {
		t.Errorf("counters = %+v, want %+v", got, want)
	}
}

// TestGetPut: Get serves only a value its predicate accepts, counting a
// hit then and nothing otherwise, and never fills; Put counts a miss,
// replaces the key's value in place unless its keep accepts the value
// already there, and evicts past the capacity like a fill.
func TestGetPut(t *testing.T) {
	c := New[int](2)
	even := func(v int) bool { return v%2 == 0 }
	never := func(int) bool { return false }
	if _, hit := c.Get([]byte("a"), even); hit {
		t.Fatal("Get hit an empty cache")
	}
	c.Put([]byte("a"), 1, never)
	if v, hit := c.Get([]byte("a"), even); hit {
		t.Fatalf("Get served %d, which its predicate refuses", v)
	}
	if got := c.Counters(); got.Hits != 0 || got.Misses != 1 || got.Entries != 1 {
		t.Fatalf("after one Put and two refused Gets: %+v, want one miss and one entry", got)
	}
	c.Put([]byte("a"), 2, never)
	if v, hit := c.Get([]byte("a"), even); !hit || v != 2 {
		t.Fatalf("Get after the replacing Put = %d, %v; want 2", v, hit)
	}
	c.Put([]byte("a"), 3, even) // 2 answers what 3 would: it stays
	if v, hit := c.Get([]byte("a"), even); !hit || v != 2 {
		t.Fatalf("Get after a Put its keep refused = %d, %v; want the kept 2", v, hit)
	}
	c.Put([]byte("b"), 4, never)
	c.Get([]byte("a"), even) // a is the most recently used
	c.Put([]byte("c"), 6, never)
	if _, hit := c.Get([]byte("b"), even); hit {
		t.Error("the least recently used entry survived a Put past the capacity")
	}
	if got := c.Counters(); got.Hits != 3 || got.Misses != 5 || got.Entries != 2 {
		t.Errorf("counters %+v, want 3 hits, 5 misses, 2 entries", got)
	}
}

// TestDoRefillsRefusedValue: a cached value Do's ok refuses is no hit:
// Do fills the key again, counts a miss and replaces the value, and the
// next Do hits the replacement. A Put that raced the fill and loses to
// it (its keep accepts the filled value) leaves the fill in place.
func TestDoRefillsRefusedValue(t *testing.T) {
	c := New[int](2)
	even := func(v int) bool { return v%2 == 0 }
	c.Put([]byte("a"), 1, even)
	if v, hit, err := c.Do([]byte("a"), even, nil, func() (int, error) { return 2, nil }); v != 2 || hit || err != nil {
		t.Fatalf("Do over a refused value = %d, %v, %v; want a fill of 2", v, hit, err)
	}
	if v, hit, err := c.Do([]byte("a"), even, nil, func() (int, error) { t.Fatal("solved an accepted key"); return 0, nil }); v != 2 || !hit || err != nil {
		t.Fatalf("Do after the refill = %d, %v, %v; want a hit of 2", v, hit, err)
	}
	c.Put([]byte("a"), 1, even)
	if v, hit := c.Get([]byte("a"), even); !hit || v != 2 {
		t.Fatalf("Get after a losing Put = %d, %v; want the filled 2", v, hit)
	}
	if got := c.Counters(); got.Hits != 2 || got.Misses != 3 || got.Entries != 1 {
		t.Errorf("counters %+v, want 2 hits, 3 misses, 1 entry", got)
	}
}

// TestDoCoalescesUnderPredicate: concurrent Dos of one key whose
// cached value their ok refuses run one fill between them; the others
// join it.
func TestDoCoalescesUnderPredicate(t *testing.T) {
	c := New[int](2)
	even := func(v int) bool { return v%2 == 0 }
	c.Put([]byte("a"), 1, even)
	release := make(chan struct{})
	var fills atomic.Int32
	const callers = 4
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do([]byte("a"), even, nil, func() (int, error) {
				fills.Add(1)
				<-release
				return 2, nil
			})
			if v != 2 || err != nil {
				t.Errorf("Do = %d, %v; want 2", v, err)
			}
		}()
	}
	for c.Counters().Coalesced < callers-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Errorf("%d fills for %d concurrent callers, want 1", n, callers)
	}
}
