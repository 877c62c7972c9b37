package replica

import (
	"sync"

	"repro/internal/ctrlplane/persist"
)

// replLog is the leader's in-memory replication log: a sequence-
// numbered ring of journal records tailed off the registry's observer
// hook. Followers pull suffixes by sequence number; a follower
// whose cursor predates the retained window (or whose stream epoch is
// stale) gets a full snapshot instead.
type replLog struct {
	mu    sync.Mutex
	epoch uint64
	base  uint64 // sequence of recs[0]; first record ever is seq 1
	recs  []persist.Record
}

// logRetention bounds the in-memory replication log, in records;
// followers further behind resync via snapshot.
const logRetention = 4096

// newReplLog builds an empty log.
func newReplLog() *replLog {
	return &replLog{base: 1}
}

// reset empties the log and stamps it with the new leader's epoch.
// Sequence numbering restarts at 1; followers with cursors from the old
// epoch fall back to a snapshot on their next pull.
func (l *replLog) reset(epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.epoch = epoch
	l.base = 1
	l.recs = l.recs[:0]
}

// append adds one record, trimming the oldest past the retention bound.
func (l *replLog) append(rec persist.Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, rec)
	if over := len(l.recs) - logRetention; over > 0 {
		l.recs = append(l.recs[:0], l.recs[over:]...)
		l.base += uint64(over)
	}
}

// next returns the sequence number the next appended record will get —
// equivalently, one past the last published record.
func (l *replLog) next() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + uint64(len(l.recs))
}

// since returns the records after cursor (i.e. with seq > cursor) for a
// follower on streamEpoch. ok=false means no contiguous suffix exists —
// the cursor predates retention or the epoch changed — and the caller
// must ship a snapshot.
func (l *replLog) since(cursor, streamEpoch uint64) (recs []persist.Record, nextSeq uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	nextSeq = l.base + uint64(len(l.recs))
	if streamEpoch != l.epoch || cursor+1 < l.base || cursor+1 > nextSeq {
		return nil, nextSeq, false
	}
	suffix := l.recs[cursor+1-l.base:]
	return append([]persist.Record(nil), suffix...), nextSeq, true
}
