package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/machine"
	"repro/internal/osched"
	"repro/internal/taskrt"
)

func TestSpanRecording(t *testing.T) {
	tr := New()
	tr.Begin("a", "app", 0, 1.0)
	tr.End("app", 0, 2.0)
	tr.Begin("b", "app", 0, 2.5)
	tr.End("app", 0, 3.0)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Name != "a" || spans[0].Start != 1 || spans[0].End != 2 {
		t.Errorf("span 0 = %+v", spans[0])
	}
}

func TestOpenSpanExcluded(t *testing.T) {
	tr := New()
	tr.Begin("open", "app", 0, 1.0)
	if len(tr.Spans()) != 0 {
		t.Error("open span must not appear")
	}
	tr.End("app", 0, 2.0)
	if len(tr.Spans()) != 1 {
		t.Error("closed span missing")
	}
	tr.End("app", 0, 3.0) // unmatched end ignored
	if len(tr.Spans()) != 1 {
		t.Error("unmatched end created a span")
	}
}

func TestBeginClosesPreviousOnLane(t *testing.T) {
	tr := New()
	tr.Begin("a", "app", 0, 1.0)
	tr.Begin("b", "app", 0, 2.0) // closes "a" at 2.0
	tr.End("app", 0, 3.0)
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].End != 2.0 {
		t.Errorf("lane auto-close wrong: %+v", spans)
	}
}

func TestLanesIndependent(t *testing.T) {
	tr := New()
	tr.Begin("a", "app", 0, 1.0)
	tr.Begin("b", "app", 1, 1.0)
	tr.Begin("c", "other", 0, 1.0)
	tr.End("app", 0, 2.0)
	tr.End("app", 1, 3.0)
	tr.End("other", 0, 4.0)
	if len(tr.Spans()) != 3 {
		t.Errorf("spans = %d, want 3", len(tr.Spans()))
	}
}

func TestChromeJSON(t *testing.T) {
	tr := New()
	tr.Begin("task", "app", 2, 0.001)
	tr.End("app", 2, 0.003)
	data, err := ChromeJSON(tr.Spans())
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	if events[0]["ph"] != "X" || events[0]["ts"].(float64) != 1000 || events[0]["dur"].(float64) != 2000 {
		t.Errorf("span event wrong: %v", events[0])
	}
}

// TestChromeJSONEmpty: a trace with no events is the empty array, which
// trace viewers load, not JSON null.
func TestChromeJSONEmpty(t *testing.T) {
	for _, data := range [][]byte{must(ChromeJSON(nil)), must(ChromeJSON(New().Spans()))} {
		if string(data) != "[]" {
			t.Errorf("no events encode as %q, want []", data)
		}
	}
}

func must(data []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return data
}

func TestSummary(t *testing.T) {
	tr := New()
	tr.Begin("a", "app", 0, 0)
	tr.End("app", 0, 1)
	tr.Begin("b", "app", 0, 1)
	tr.End("app", 0, 2)
	out := tr.Summary()
	if !strings.Contains(out, "app") || !strings.Contains(out, "2") {
		t.Errorf("summary missing data:\n%s", out)
	}
	if !strings.Contains(out, "100.0%") {
		t.Errorf("utilization missing:\n%s", out)
	}
}

// TestIntegrationWithRuntime traces a real simulated run.
func TestIntegrationWithRuntime(t *testing.T) {
	m := machine.PaperModel()
	eng := des.NewEngine(1)
	o := osched.New(eng, osched.Config{
		Machine:           m,
		ContextSwitchCost: -1,
		MigrationPenalty:  -1,
		LoadBalancePeriod: -1,
	})
	o.Start()
	rt := taskrt.New(o, taskrt.Config{Name: "app", BindMode: taskrt.BindCore, Workers: 4})
	tr := New()
	rt.SetTracer(RuntimeTracer{T: tr})
	done := 0
	for i := 0; i < 20; i++ {
		task := rt.NewTask("kernel", 0.02, 0, nil)
		task.OnComplete = func() { done++ }
		rt.Submit(task)
	}
	eng.RunUntil(1)
	if done != 20 {
		t.Fatalf("done = %d", done)
	}
	spans := tr.Spans()
	if len(spans) != 20 {
		t.Fatalf("traced %d spans, want 20", len(spans))
	}
	for _, s := range spans {
		if s.End <= s.Start {
			t.Errorf("span %q has non-positive duration [%f,%f]", s.Name, s.Start, s.End)
		}
		if s.PID != "app" || s.TID < 0 || s.TID > 3 {
			t.Errorf("span lane wrong: %+v", s)
		}
	}
	if _, err := ChromeJSON(tr.Spans()); err != nil {
		t.Error(err)
	}
	// The tracer interface is satisfied structurally.
	var _ taskrt.Tracer = RuntimeTracer{}
}
