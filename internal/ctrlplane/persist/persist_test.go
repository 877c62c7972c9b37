package persist

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
)

func rec(id string, beats uint64) AppRecord {
	return AppRecord{
		ID: id, Name: id, AI: 0.5, TTLMillis: 1000,
		RegisteredAt: 100, LastBeat: 100, Beats: beats,
	}
}

// The store never reads Op, so these tests spell ops as the literals
// that reach the disk rather than through the registry's constants.
func register(id string, gen, seq uint64) Record {
	a := rec(id, 0)
	return Record{Op: "register", App: &a, Gen: gen, Seq: seq}
}

func heartbeat(id string, beat int64, beats uint64) Record {
	return Record{Op: "heartbeat", ID: id, Beat: beat, Beats: beats}
}

func mustAppend(t *testing.T, s *Store, sync bool, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if _, err := s.Append(r, sync); err != nil {
			t.Fatalf("append %s: %v", r.Op, err)
		}
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// tear appends a half-written record to the journal, as a crash
// mid-append leaves it.
func tear(t *testing.T, dir, partial string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(partial); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestRoundTrip: a snapshot and every kind of record behind it survive
// a close/reopen cycle, byte for byte and in order; a second Recovered
// call has nothing left to hand over.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if snap, recs := s.Recovered(); len(snap.Apps) != 0 || snap.Generation != 0 || len(recs) != 0 {
		t.Fatalf("fresh dir recovered %+v, %+v", snap, recs)
	}
	snap := Snapshot{Generation: 3, Seq: 3, Evictions: 1, Epoch: 2, Apps: []AppRecord{rec("a-1", 7), rec("b-2", 0)}}
	if err := s.Compact(snap); err != nil {
		t.Fatal(err)
	}
	journal := []Record{
		register("c-3", 4, 4),
		heartbeat("a-1", 555, 8),
		{Op: "deregister", ID: "b-2", Gen: 5},
		{Op: "evict", IDs: []string{"c-3"}, Gen: 6, Evictions: 2},
		{Op: "fitted", ID: "a-1", Fitted: &FittedRecord{AI: 4, PeakGFLOPS: 9, Confidence: 0.5, At: 77}, Gen: 7},
		{Op: "fitted", ID: "a-1", Gen: 8},
		{Op: "promote", Gen: 9, Epoch: 3},
	}
	mustAppend(t, s, true, journal...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	gotSnap, gotRecs := s2.Recovered()
	if !reflect.DeepEqual(gotSnap, snap) {
		t.Errorf("recovered snapshot = %+v, want %+v", gotSnap, snap)
	}
	if !reflect.DeepEqual(gotRecs, journal) {
		t.Errorf("recovered journal = %+v, want %+v", gotRecs, journal)
	}
	if snap, recs := s2.Recovered(); len(snap.Apps) != 0 || len(recs) != 0 {
		t.Errorf("second Recovered returned %+v, %+v", snap, recs)
	}
}

// TestTornJournalTail: a crash mid-append leaves a partial final line;
// open discards it, keeps every complete record, and cuts it off the
// file so the next append starts a fresh line.
func TestTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustAppend(t, s, true, register("a-1", 1, 1), register("b-2", 2, 2))
	// Simulate the crash: no Close, and a half-written record at the
	// tail of the journal.
	s.Sync()
	tear(t, dir, `{"op":"register","app":{"id":"torn`)

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	t.Cleanup(func() { s2.Close() })
	if s2.TornRecords() != 1 {
		t.Errorf("torn records = %d, want 1", s2.TornRecords())
	}
	if _, recs := s2.Recovered(); len(recs) != 2 {
		t.Errorf("recovered %d records, want the 2 intact ones: %+v", len(recs), recs)
	}
	// Crash again right after one more append: the new record must not
	// have been glued onto the torn line.
	mustAppend(t, s2, true, register("c-3", 3, 3))
	s3 := mustOpen(t, dir, Options{})
	if _, recs := s3.Recovered(); len(recs) != 3 || recs[2].App.ID != "c-3" || s3.TornRecords() != 0 {
		t.Errorf("after appending behind a cut tail: %d records, %d torn: %+v", len(recs), s3.TornRecords(), recs)
	}
}

// TestCorruptJournalFailsOpen: a line that does not parse and is NOT
// the last one is not a torn append — acknowledged records follow it —
// so open refuses, naming the line, instead of dropping them.
func TestCorruptJournalFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustAppend(t, s, true, register("a-1", 1, 1))
	tear(t, dir, "{\"op\":\"regis\n")
	mustAppend(t, s, true, register("b-2", 2, 2))
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("open over a corrupt middle line: err = %v, want one naming line 2", err)
	}
}

// TestLongRecordSurvivesReopen: the reader accepts any line the writer
// can emit. Three fsynced records, the second with a 200 KiB name of
// '<' (JSON-escaped to 6 bytes each, so the line is over 1 MiB), all
// come back after an un-Closed reopen; a 1 MiB-bounded scanner stopped
// at the first and reported a clean end of journal.
func TestLongRecordSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	long := register("b-2", 2, 2)
	long.App.Name = strings.Repeat("<", 200<<10)
	mustAppend(t, s, true, register("a-1", 1, 1), long, register("c-3", 3, 3))

	s2 := mustOpen(t, dir, Options{})
	_, recs := s2.Recovered()
	if len(recs) != 3 || s2.TornRecords() != 0 {
		t.Fatalf("recovered %d records (%d torn), want 3 and 0", len(recs), s2.TornRecords())
	}
	if recs[1].App.Name != long.App.Name || recs[2].Gen != 3 {
		t.Errorf("long record or its successor damaged: name %d bytes, last gen %d", len(recs[1].App.Name), recs[2].Gen)
	}
}

// TestCompaction: Append reports the journal full at compactEvery
// records — counting the ones a reopen found — and Compact folds it
// into the snapshot and truncates. Unsynced heartbeats fill the journal
// cheaply.
func TestCompaction(t *testing.T) {
	const n = compactEvery
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustAppend(t, s, true, register("a-1", 1, 1))
	for i := 0; i < 5*n; i++ {
		full, err := s.Append(heartbeat("a-1", int64(1000+i), uint64(i+1)), false)
		if err != nil {
			t.Fatal(err)
		}
		if want := (i+2)%n == 0; full != want {
			t.Fatalf("append %d: full = %v, want %v", i+2, full, want)
		}
		if full {
			if err := s.Compact(Snapshot{Generation: 1, Seq: 1, Apps: []AppRecord{rec("a-1", uint64(i+1))}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Compactions() != 5 {
		t.Errorf("compactions = %d, want 5 over %d appends", s.Compactions(), 5*n+1)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	snap, recs := s2.Recovered()
	if len(snap.Apps) != 1 || snap.Apps[0].Beats != 5*n-1 || len(recs) != 1 || recs[0].Beats != 5*n {
		t.Errorf("recovered after compaction = %+v + %+v, want beats %d + one heartbeat", snap.Apps, recs, 5*n-1)
	}
	for i := 2; i < n; i++ {
		if full, _ := s2.Append(heartbeat("a-1", int64(2000+i), uint64(5*n+i)), false); full {
			t.Fatalf("journal of %d reported full", i)
		}
	}
	if full, _ := s2.Append(heartbeat("a-1", 3000, 6*n), false); !full {
		t.Errorf("journal of %d (1 recovered + %d appended) not reported full", n, n-1)
	}
}

// TestWriteBehind: the relaxed mode still recovers everything after a
// clean close, and the background flusher runs without error.
func TestWriteBehind(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{WriteBehind: true})
	flushed := make(chan struct{}, 1)
	s.mu.Lock()
	s.syncFn = func(f *os.File) error {
		select {
		case flushed <- struct{}{}:
		default:
		}
		return f.Sync()
	}
	s.mu.Unlock()
	for i := uint64(1); i <= 5; i++ {
		mustAppend(t, s, true, register("app", i, i))
	}
	select { // let the flusher tick
	case <-flushed:
	case <-time.After(5 * time.Second):
		t.Fatal("flusher never synced")
	}
	if err := s.FlushErr(); err != nil {
		t.Fatalf("flusher error: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	if _, recs := s2.Recovered(); len(recs) != 5 || recs[4].Gen != 5 || recs[4].Seq != 5 {
		t.Errorf("recovered %+v, want 5 records ending at gen/seq 5/5", recs)
	}
}

// TestSyncTier: a sync append is fsynced before it returns, a buffered
// one is not, and write-behind leaves both to the flusher (whose own
// syncs are not counted).
func TestSyncTier(t *testing.T) {
	for _, wb := range []bool{false, true} {
		s := mustOpen(t, t.TempDir(), Options{WriteBehind: wb})
		syncs := 0
		s.mu.Lock()
		s.syncFn = func(f *os.File) error {
			if !strings.Contains(string(debug.Stack()), ").flusher(") {
				syncs++
			}
			return f.Sync()
		}
		s.mu.Unlock()
		mustAppend(t, s, false, heartbeat("a-1", 1, 1), heartbeat("a-1", 2, 2))
		if syncs != 0 {
			t.Errorf("write-behind %v: %d fsyncs for buffered appends, want 0", wb, syncs)
		}
		mustAppend(t, s, true, register("a-1", 1, 1), register("b-2", 2, 2))
		if want := map[bool]int{false: 2, true: 0}[wb]; syncs != want {
			t.Errorf("write-behind %v: %d fsyncs for 2 sync appends, want %d", wb, syncs, want)
		}
	}
}

// TestConcurrentAppends: the store serializes concurrent writers (run
// under -race).
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustAppend(t, s, true, register("a-1", 1, 1))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := s.Append(heartbeat("a-1", int64(w*1000+i), 1), false); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	if _, recs := s2.Recovered(); len(recs) != 101 {
		t.Errorf("recovered %d records, want 101 whole lines", len(recs))
	}
}

// TestClosedStoreRejectsAppends: appends and compactions after Close
// fail loudly rather than silently dropping state.
func TestClosedStoreRejectsAppends(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(register("a-1", 1, 1), true); err == nil {
		t.Error("append on a closed store succeeded")
	}
	if err := s.Compact(Snapshot{}); err == nil {
		t.Error("compact on a closed store succeeded")
	}
}

// TestWriteBehindFlushErrorPoisons: once the background flusher fails,
// the relaxed-durability contract is void — further sync appends are
// rejected (persist-or-reject restored) and FlushErr surfaces the cause
// for /metricsz. Buffered appends still pass: losing a liveness refresh
// costs one re-armed TTL window, not registry state.
func TestWriteBehindFlushErrorPoisons(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{WriteBehind: true})
	mustAppend(t, s, true, register("a-1", 1, 1))

	// The disk "dies": every sync now fails.
	diskDied := errors.New("injected: EIO on fsync")
	s.mu.Lock()
	s.syncFn = func(*os.File) error { return diskDied }
	s.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for s.FlushErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("flusher never observed the sync failure")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(s.FlushErr(), diskDied) {
		t.Errorf("FlushErr = %v, want the injected failure", s.FlushErr())
	}

	// Sync appends are refused and name the original failure.
	if _, err := s.Append(register("b-2", 2, 2), true); !errors.Is(err, diskDied) {
		t.Errorf("register after flush failure: err = %v, want rejection wrapping the flush error", err)
	}
	if _, err := s.Append(Record{Op: "deregister", ID: "a-1", Gen: 3}, true); !errors.Is(err, diskDied) {
		t.Errorf("deregister after flush failure: err = %v, want rejection wrapping the flush error", err)
	}
	// Buffered heartbeats still land (documented degradation).
	if _, err := s.Append(heartbeat("a-1", 200, 2), false); err != nil {
		t.Errorf("heartbeat after flush failure: %v (buffered appends should still pass)", err)
	}
	s.Close() // errors expected: the injected syncFn still fails

	// The pre-failure registration survives; the rejected ones are absent.
	s2 := mustOpen(t, dir, Options{})
	if _, recs := s2.Recovered(); len(recs) != 2 || recs[0].App.ID != "a-1" || recs[1].Op != "heartbeat" {
		t.Errorf("recovered %+v, want the pre-failure a-1 and the buffered heartbeat", recs)
	}
}

// TestWriteBehindTornTail: torn-record recovery holds under write-
// behind too — a crash leaves buffered bytes plus a half-written final
// line, and reopen (also write-behind) drops only the torn tail.
func TestWriteBehindTornTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{WriteBehind: true})
	mustAppend(t, s, true, register("a-1", 1, 1), register("b-2", 2, 2))
	mustAppend(t, s, false, heartbeat("a-1", 300, 3))
	// Crash: no Close. Force the OS-buffered bytes out (the "crash"
	// here is of the process, not the kernel), then tear the tail.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	tear(t, dir, `{"op":"heartbeat","id":"a-1","last`)

	s2 := mustOpen(t, dir, Options{WriteBehind: true})
	if s2.TornRecords() != 1 {
		t.Errorf("torn records = %d, want 1", s2.TornRecords())
	}
	_, recs := s2.Recovered()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3: %+v", len(recs), recs)
	}
	if hb := recs[2]; hb.ID != "a-1" || hb.Beat != 300 || hb.Beats != 3 {
		t.Errorf("intact heartbeat before the torn one lost: %+v", hb)
	}
}
