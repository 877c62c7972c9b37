package main

import (
	"encoding/json"
	"os"
	"time"
)

// spanKind names the layer boundary a span was recorded at. Spans are
// recorded by the benchmark's own wrappers only: around the driver's
// typed-client calls, inside the in-memory transport around every
// fleetd and member Handler().ServeHTTP, and around Rebalancer.Round
// and Inventory.Poll.
type spanKind uint8

const (
	spCtrlClient  spanKind = iota // driver -> ctrlplane/client call
	spFleetClient                 // driver -> fleet.Client call
	spFleetPlace                  // fleetd handler, POST /v1/fleet/place
	spFleetOther                  // any other fleetd handler
	spRegister                    // member handler, POST /v1/register
	spHeartbeat                   // member handler, POST /v1/heartbeat
	spDeregister                  // member handler, DELETE /v1/apps/{id}
	spApps                        // member handler, GET /v1/apps
	spAllocations                 // member handler, GET /v1/allocations
	spMemberOther                 // any other member handler
	spRound                       // Rebalancer.Round
	spPoll                        // Inventory.Poll called by the driver
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"ctrlplane.client", "fleet.client", "fleet.server.place", "fleet.server.other",
	"ctrlplane.register", "ctrlplane.heartbeat", "ctrlplane.deregister",
	"ctrlplane.apps", "ctrlplane.allocations", "ctrlplane.other",
	"fleet.rebalancer.round", "fleet.inventory.poll",
}

// span is one retained record: what was called, when, by which span,
// and for which primary op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the written span list, -1 for a root
	Op     int32  `json:"op"`
}

// kindAgg accumulates one lap's spans of one kind.
type kindAgg struct {
	calls  int64
	durNs  int64
	selfNs int64 // duration minus the part child spans cover
}

type openSpan struct {
	kind    spanKind
	start   int64
	childNs int64
	idx     int32 // position in tracer.spans, -1 when not retained
}

// maxRetainedSpans bounds the raw span buffer. The buffer is allocated
// once, so the traced run's heap does not grow with the run; spans past
// the bound still feed the per-lap aggregates.
const maxRetainedSpans = 1 << 17

// tracer records spans in memory. Everything the benchmark drives runs
// synchronously on one goroutine, so the open spans form a stack and a
// span's parent is whatever was open when it began.
type tracer struct {
	on    bool
	t0    time.Time
	open  []openSpan
	lap   [numSpanKinds]kindAgg
	spans []span
	op    int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make([]openSpan, 0, 16)}
}

// retain allocates the raw span buffer (traced runs only).
func (t *tracer) retain() { t.spans = make([]span, 0, maxRetainedSpans) }

func (t *tracer) begin(k spanKind) {
	if !t.on {
		return
	}
	o := openSpan{kind: k, start: int64(time.Since(t.t0)), idx: -1}
	if len(t.spans) < cap(t.spans) {
		parent := int32(-1)
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].idx
		}
		o.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: spanNames[k], Start: o.start, Parent: parent, Op: t.op})
	}
	t.open = append(t.open, o)
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	n := len(t.open) - 1
	o := t.open[n]
	t.open = t.open[:n]
	end := int64(time.Since(t.t0))
	dur := end - o.start
	if o.idx >= 0 {
		t.spans[o.idx].End = end
	}
	a := &t.lap[o.kind]
	a.calls++
	a.durNs += dur
	a.selfNs += dur - o.childNs
	if n > 0 {
		t.open[n-1].childNs += dur
	}
}

// takeLap returns the aggregates accumulated since the last call.
func (t *tracer) takeLap() [numSpanKinds]kindAgg {
	out := t.lap
	t.lap = [numSpanKinds]kindAgg{}
	return out
}

// writeSpans writes the retained spans as one JSON array.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
