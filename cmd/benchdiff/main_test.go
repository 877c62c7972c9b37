package main

import (
	"strings"
	"testing"
)

func results(pairs ...any) map[string]benchResult {
	m := map[string]benchResult{}
	for i := 0; i+1 < len(pairs); i += 2 {
		m[pairs[i].(string)] = benchResult{NsPerOp: pairs[i+1].(float64)}
	}
	return m
}

func failures(lines []diffLine) []diffLine {
	var out []diffLine
	for _, l := range lines {
		if l.failed {
			out = append(out, l)
		}
	}
	return out
}

func TestCompareWithinBudgetPasses(t *testing.T) {
	base := map[string]benchResult{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 10},
		"BenchmarkB": {NsPerOp: 2000, AllocsPerOp: 8},
	}
	// +20% allocs and an improvement are inside the 25% budget, and
	// ns/op is not gated at all: ten times slower still passes.
	fresh := map[string]benchResult{
		"BenchmarkA": {NsPerOp: 10000, AllocsPerOp: 12},
		"BenchmarkB": {NsPerOp: 500, AllocsPerOp: 1},
	}
	if got := failures(compare(base, fresh, 0.25)); len(got) != 0 {
		t.Fatalf("expected no failures, got %v", got)
	}
}

func TestCompareRegressionFails(t *testing.T) {
	base := map[string]benchResult{"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 8}}
	fresh := map[string]benchResult{"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 11}}
	got := failures(compare(base, fresh, 0.25))
	if len(got) != 1 {
		t.Fatalf("expected 1 failure, got %v", got)
	}
	if !strings.Contains(got[0].detail, "ALLOC REGRESSION") {
		t.Errorf("failure should name the regression: %q", got[0].detail)
	}
}

func TestCompareExactBudgetBoundaryPasses(t *testing.T) {
	base := map[string]benchResult{"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 8}}
	fresh := map[string]benchResult{"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 10}}
	if got := failures(compare(base, fresh, 0.25)); len(got) != 0 {
		t.Fatalf("+25%% is the budget, not past it; got %v", got)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := results("BenchmarkA", 1000.0, "BenchmarkGone", 500.0)
	fresh := results("BenchmarkA", 1000.0)
	got := failures(compare(base, fresh, 0.25))
	if len(got) != 1 || got[0].name != "BenchmarkGone" {
		t.Fatalf("expected BenchmarkGone to fail as missing, got %v", got)
	}
	if !strings.Contains(got[0].detail, "MISSING") {
		t.Errorf("failure should say missing: %q", got[0].detail)
	}
}

func TestCompareNewBenchmarkIsInformational(t *testing.T) {
	base := results("BenchmarkA", 1000.0)
	fresh := results("BenchmarkA", 1000.0, "BenchmarkNew", 9999.0)
	lines := compare(base, fresh, 0.25)
	if got := failures(lines); len(got) != 0 {
		t.Fatalf("new benchmarks must not fail, got %v", got)
	}
	found := false
	for _, l := range lines {
		if l.name == "BenchmarkNew" && strings.Contains(l.detail, "new benchmark") {
			found = true
		}
	}
	if !found {
		t.Fatalf("new benchmark should be reported: %v", lines)
	}
}

func TestCompareZeroBaselineSkipsRatio(t *testing.T) {
	base := results("BenchmarkZero", 0.0)
	fresh := results("BenchmarkZero", 123456.0)
	if got := failures(compare(base, fresh, 0.25)); len(got) != 0 {
		t.Fatalf("a zero-alloc baseline staying zero-alloc must not divide or fail, got %v", got)
	}
}

func TestCompareDeterministicOrder(t *testing.T) {
	base := results("BenchmarkB", 1.0, "BenchmarkA", 1.0)
	fresh := results("BenchmarkB", 1.0, "BenchmarkA", 1.0, "BenchmarkZNew", 1.0, "BenchmarkCNew", 1.0)
	lines := compare(base, fresh, 0.25)
	want := []string{"BenchmarkA", "BenchmarkB", "BenchmarkCNew", "BenchmarkZNew"}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d: %v", len(lines), len(want), lines)
	}
	for i, l := range lines {
		if l.name != want[i] {
			t.Fatalf("line %d = %q, want %q", i, l.name, want[i])
		}
	}
}

func TestCompareAllocGate(t *testing.T) {
	base := map[string]benchResult{
		"BenchmarkZeroAlloc": {NsPerOp: 1000, AllocsPerOp: 0},
		"BenchmarkSomeAlloc": {NsPerOp: 1000, AllocsPerOp: 8},
	}

	// A zero-alloc baseline growing any allocations fails.
	fresh := map[string]benchResult{
		"BenchmarkZeroAlloc": {NsPerOp: 1000, AllocsPerOp: 2},
		"BenchmarkSomeAlloc": {NsPerOp: 1000, AllocsPerOp: 8},
	}
	got := failures(compare(base, fresh, 0.25))
	if len(got) != 1 || got[0].name != "BenchmarkZeroAlloc" {
		t.Fatalf("expected BenchmarkZeroAlloc to fail, got %v", got)
	}
	if !strings.Contains(got[0].detail, "ALLOC REGRESSION") {
		t.Errorf("failure should name the alloc regression: %q", got[0].detail)
	}

	// An alloc improvement never fails.
	fresh = map[string]benchResult{
		"BenchmarkZeroAlloc": {NsPerOp: 1000, AllocsPerOp: 0},
		"BenchmarkSomeAlloc": {NsPerOp: 1000, AllocsPerOp: 1},
	}
	if got := failures(compare(base, fresh, 0.25)); len(got) != 0 {
		t.Fatalf("alloc improvement must not fail, got %v", got)
	}
}
