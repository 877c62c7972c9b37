// Package persist is a crash-durable snapshot + journal file pair in a
// state directory, and the record types the control plane keeps in it.
// The store is schema-blind: it writes the records its owner appends,
// installs the snapshots its owner hands it, and at Open returns what
// the directory held. What a record *means* is the owner's business —
// ctrlplane.Registry folds recovered, replicated and freshly made
// records through one apply function.
//
// Durability model: Append(rec, sync=true) returns after the record is
// fsynced, so what the owner acknowledges next survives a kernel crash;
// sync=false appends are written but not individually fsynced. The
// WriteBehind option relaxes sync=true appends to the same buffered
// regime, with a background flusher syncing on an interval — higher
// throughput, bounded loss window — and a flusher that has failed
// rejects further sync=true appends.
//
// The store is a single-writer design: exactly one daemon may own a
// state directory at a time, and the owner serializes Append and
// Compact (the registry calls both under its own lock).
package persist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Journal and snapshot file names inside the state directory.
const (
	snapshotFile = "snapshot.json"
	journalFile  = "journal.jsonl"
)

// AppRecord is the persisted form of one registered application. It is
// deliberately free of control-plane types so the store has no import
// cycle with package ctrlplane; the registry converts in both
// directions.
type AppRecord struct {
	ID           string  `json:"id"`
	Name         string  `json:"name"`
	AI           float64 `json:"ai"`
	Placement    int     `json:"placement"`
	HomeNode     int     `json:"home_node"`
	MaxThreads   int     `json:"max_threads,omitempty"`
	TTLMillis    int64   `json:"ttl_ms"`
	RegisteredAt int64   `json:"registered_at_unix_ns"`
	LastBeat     int64   `json:"last_beat_unix_ns"`
	Beats        uint64  `json:"beats,omitempty"`
	Priority     string  `json:"priority,omitempty"`
	MovedRound   uint64  `json:"moved_round,omitempty"`

	// Fitted model (adaptive recalibration), present when FittedAI > 0:
	// the online-fitted demand that currently replaces the declared one
	// in the solver.
	FittedAI         float64 `json:"fitted_ai,omitempty"`
	FittedPeak       float64 `json:"fitted_peak,omitempty"`
	FittedConfidence float64 `json:"fitted_confidence,omitempty"`
	FittedAt         int64   `json:"fitted_at_unix_ns,omitempty"`
}

// Snapshot is the full persisted registry state: the live set and the
// counters the registry must resume from so client-visible generations
// stay monotonic across a daemon restart. Epoch is the replication
// fencing epoch (0 for a standalone daemon): it bumps on every leader
// promotion and must never regress, so it is persisted alongside the
// generation.
type Snapshot struct {
	Generation uint64      `json:"generation"`
	Seq        uint64      `json:"seq"`
	Evictions  uint64      `json:"evictions"`
	Epoch      uint64      `json:"epoch,omitempty"`
	Apps       []AppRecord `json:"apps"`
}

// Journal operation names. Record is also the wire format of the
// replication stream (ctrlplane/replica).
const (
	OpRegister   = "register"
	OpHeartbeat  = "heartbeat"
	OpDeregister = "deregister"
	OpEvict      = "evict"
	// OpPromote marks a leadership change: the new leader's epoch and
	// the generation bump it performed.
	OpPromote = "promote"
	// OpFitted records an adaptive-recalibration update: the fitted
	// demand model substituted for (or, with a nil Fitted payload,
	// cleared from) one application.
	OpFitted = "fitted"
)

// FittedRecord is the OpFitted payload: the online-fitted demand model
// as of At (unix nanoseconds).
type FittedRecord struct {
	AI         float64 `json:"ai"`
	PeakGFLOPS float64 `json:"peak_gflops,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	At         int64   `json:"at_unix_ns,omitempty"`
}

// Record is one journal line — and one replication-stream element.
type Record struct {
	Op        string        `json:"op"`
	App       *AppRecord    `json:"app,omitempty"`
	ID        string        `json:"id,omitempty"`
	IDs       []string      `json:"ids,omitempty"`
	Beat      int64         `json:"beat_unix_ns,omitempty"`
	Beats     uint64        `json:"beats,omitempty"`
	Fitted    *FittedRecord `json:"fitted,omitempty"`
	Gen       uint64        `json:"gen,omitempty"`
	Seq       uint64        `json:"seq,omitempty"`
	Evictions uint64        `json:"evictions,omitempty"`
	Epoch     uint64        `json:"epoch,omitempty"`
}

// Options tunes a Store.
type Options struct {
	// WriteBehind skips the per-record fsync on sync appends; a
	// background flusher syncs every flushInterval instead. Buffered
	// writes still reach the OS immediately, so only a kernel or power
	// failure inside the flush window can lose an acknowledged record.
	WriteBehind bool
}

const (
	// flushInterval is the write-behind sync period.
	flushInterval = 200 * time.Millisecond
	// compactEvery is the journal length, in records, past which Append
	// asks its owner for a compaction.
	compactEvery = 1024
)

// Store owns one state directory. All methods are safe for concurrent
// use.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	journal  *os.File
	appended int // journal records since the last compaction
	closed   bool

	snap Snapshot // as read at Open, until Recovered hands it over
	recs []Record

	torn        int
	compactions uint64
	flushErr    error

	// syncFn syncs the journal file; swapped in tests to simulate a
	// failing disk on the write-behind flush path.
	syncFn func(*os.File) error

	stop chan struct{}
	done chan struct{}
}

// Open loads (or creates) the state directory and returns a store ready
// for appends; Recovered returns what the directory held. A torn final
// journal line (a crash mid-append) is dropped, counted and cut off the
// file; any other unreadable line fails the open — the records behind
// it were acknowledged and must not be silently lost.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating state dir: %w", err)
	}
	s := &Store{
		dir:    dir,
		opts:   opts,
		syncFn: (*os.File).Sync,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return nil, fmt.Errorf("persist: reading snapshot: %w", err)
	default:
		if err := json.Unmarshal(data, &s.snap); err != nil {
			return nil, fmt.Errorf("persist: corrupt snapshot %s: %w", snapshotFile, err)
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening journal: %w", err)
	}
	if err := s.readJournal(f); err != nil {
		f.Close()
		return nil, err
	}
	s.journal = f
	s.appended = len(s.recs)
	if opts.WriteBehind {
		go s.flusher()
	} else {
		close(s.done)
	}
	return s, nil
}

// readJournal decodes every complete line of f into s.recs. Lines are
// read whole whatever their length: the reader must accept anything the
// writer can emit.
func (s *Store) readJournal(f *os.File) error {
	br := bufio.NewReader(f)
	var good int64 // bytes of f holding complete records
	for line := 1; ; line++ {
		data, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return fmt.Errorf("persist: reading journal line %d: %w", line, err)
		}
		if err == io.EOF && len(data) == 0 {
			return nil
		}
		var rec Record
		uerr := json.Unmarshal(data, &rec)
		if err == io.EOF || uerr != nil {
			// Unterminated or unparseable. As the last thing in the file
			// that is the signature of a crash mid-append (the append was
			// never acknowledged); anywhere else it is corruption.
			if _, perr := br.Peek(1); perr != io.EOF {
				return fmt.Errorf("persist: corrupt journal line %d (records follow it, so it is not a torn append): %v", line, uerr)
			}
			s.torn++
			if terr := f.Truncate(good); terr != nil {
				return fmt.Errorf("persist: cutting torn journal line %d: %w", line, terr)
			}
			return nil
		}
		s.recs = append(s.recs, rec)
		good += int64(len(data))
	}
}

// Recovered returns the snapshot and the journal records behind it, in
// order, as the directory held them at Open (record i came from journal
// line i+1). It hands them over: a second call returns nothing.
func (s *Store) Recovered() (Snapshot, []Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, recs := s.snap, s.recs
	s.snap, s.recs = Snapshot{}, nil
	return snap, recs
}

// TornRecords reports how many torn journal tails were discarded at
// Open (0 or 1 for a single crash).
func (s *Store) TornRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.torn
}

// Compactions reports how many times a snapshot replaced the journal.
func (s *Store) Compactions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactions
}

// Compact installs snap as the snapshot (atomically, via a temp file
// rename) and truncates the journal, so the directory holds exactly
// snap. The owner calls it with its current state when Append reports
// the journal full, and with a leader-shipped snapshot on resync.
func (s *Store) Compact(snap Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("persist: store is closed")
	}
	data, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return fmt.Errorf("persist: encoding snapshot: %w", err)
	}
	tmp := filepath.Join(s.dir, snapshotFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotFile)); err != nil {
		return fmt.Errorf("persist: installing snapshot: %w", err)
	}
	// Best-effort directory sync so the rename itself is durable.
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	if err := s.journal.Truncate(0); err != nil {
		return fmt.Errorf("persist: truncating journal: %w", err)
	}
	s.appended = 0
	s.compactions++
	return nil
}

// Append writes one record to the journal. With sync it is fsynced
// before Append returns (under WriteBehind the flusher owns syncing —
// but a flusher that has already failed refuses sync appends, so a
// broken disk turns into rejected registrations, never into silently
// unpersisted acknowledgements). full reports that the journal has
// reached compactEvery records: the owner should Compact with a
// snapshot that includes rec.
func (s *Store) Append(rec Record, sync bool) (full bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, errors.New("persist: store is closed")
	}
	if sync && s.opts.WriteBehind && s.flushErr != nil {
		return false, fmt.Errorf("persist: write-behind flush failed earlier: %w", s.flushErr)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return false, fmt.Errorf("persist: encoding journal record: %w", err)
	}
	if _, err := s.journal.Write(append(line, '\n')); err != nil {
		return false, fmt.Errorf("persist: appending journal: %w", err)
	}
	s.appended++
	full = s.appended >= compactEvery
	if sync && !s.opts.WriteBehind {
		if err := s.syncFn(s.journal); err != nil {
			return full, fmt.Errorf("persist: syncing journal: %w", err)
		}
	}
	return full, nil
}

// Sync flushes buffered journal bytes to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.syncFn(s.journal)
}

// flusher is the write-behind sync loop.
func (s *Store) flusher() {
	defer close(s.done)
	t := time.NewTicker(flushInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed {
				if err := s.syncFn(s.journal); err != nil && s.flushErr == nil {
					s.flushErr = err
				}
			}
			s.mu.Unlock()
		}
	}
}

// FlushErr returns the first background-flush failure, if any.
func (s *Store) FlushErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushErr
}

// Close syncs and releases the journal; the next Open replays it. The
// store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done

	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.syncFn(s.journal)
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	return err
}
