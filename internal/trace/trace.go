// Package trace records task-level execution timelines from simulated
// runs and exports them as Chrome trace-event JSON (load chrome://
// tracing or https://ui.perfetto.dev) or as a text summary. It is the
// observability layer a runtime developer uses to inspect scheduling
// decisions — which worker ran which task when.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Span is one task execution on one worker.
type Span struct {
	// Name is the task label.
	Name string `json:"name"`
	// PID groups spans by runtime/application.
	PID string `json:"pid"`
	// TID is the worker lane within the runtime.
	TID int `json:"tid"`
	// Start and End are simulated seconds.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Trace accumulates spans.
type Trace struct {
	spans []Span
	open  map[spanKey]int // index of open span
}

type spanKey struct {
	pid string
	tid int
}

// New creates an empty trace.
func New() *Trace {
	return &Trace{open: map[spanKey]int{}}
}

// Begin opens a span; a still-open span on the same (pid, tid) lane is
// closed at the new span's start time (lanes are sequential).
func (tr *Trace) Begin(name, pid string, tid int, at float64) {
	k := spanKey{pid, tid}
	if idx, ok := tr.open[k]; ok {
		tr.spans[idx].End = at
	}
	tr.spans = append(tr.spans, Span{Name: name, PID: pid, TID: tid, Start: at, End: -1})
	tr.open[k] = len(tr.spans) - 1
}

// End closes the open span on the lane. Unmatched Ends are ignored.
func (tr *Trace) End(pid string, tid int, at float64) {
	k := spanKey{pid, tid}
	if idx, ok := tr.open[k]; ok {
		tr.spans[idx].End = at
		delete(tr.open, k)
	}
}

// Spans returns completed spans (open spans are excluded).
func (tr *Trace) Spans() []Span {
	out := make([]Span, 0, len(tr.spans))
	for _, s := range tr.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// chromeEvent is the Chrome trace-event JSON schema (subset).
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"` // microseconds
	Dur  float64 `json:"dur,omitempty"`
	PID  string  `json:"pid"`
	TID  int     `json:"tid"`
}

// ChromeJSON renders spans in Chrome trace-event format ("X" complete
// events), times in seconds becoming microseconds. No spans is "[]",
// which trace viewers load, not null.
func ChromeJSON(spans []Span) ([]byte, error) {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: s.Start * 1e6, Dur: (s.End - s.Start) * 1e6,
			PID: s.PID, TID: s.TID,
		})
	}
	return json.Marshal(events)
}

// LaneStats summarizes one worker lane.
type LaneStats struct {
	PID       string
	TID       int
	Spans     int
	BusyTime  float64
	FirstSeen float64
	LastSeen  float64
}

// Summary aggregates busy time per lane and renders a text report.
func (tr *Trace) Summary() string {
	lanes := map[spanKey]*LaneStats{}
	for _, s := range tr.Spans() {
		k := spanKey{s.PID, s.TID}
		l := lanes[k]
		if l == nil {
			l = &LaneStats{PID: s.PID, TID: s.TID, FirstSeen: s.Start, LastSeen: s.End}
			lanes[k] = l
		}
		l.Spans++
		l.BusyTime += s.End - s.Start
		if s.Start < l.FirstSeen {
			l.FirstSeen = s.Start
		}
		if s.End > l.LastSeen {
			l.LastSeen = s.End
		}
	}
	keys := make([]spanKey, 0, len(lanes))
	for k := range lanes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].tid < keys[j].tid
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %6s %8s %12s %12s\n", "runtime", "worker", "tasks", "busy (s)", "util")
	for _, k := range keys {
		l := lanes[k]
		window := l.LastSeen - l.FirstSeen
		util := 0.0
		if window > 0 {
			util = l.BusyTime / window
		}
		fmt.Fprintf(&b, "%-16s %6d %8d %12.4f %11.1f%%\n", l.PID, l.TID, l.Spans, l.BusyTime, util*100)
	}
	fmt.Fprintf(&b, "total spans: %d\n", len(tr.Spans()))
	return b.String()
}
