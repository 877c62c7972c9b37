package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// results builds zero-alloc entries for the named benchmarks.
func results(names ...string) map[string]benchResult {
	m := map[string]benchResult{}
	for _, n := range names {
		m[n] = benchResult{}
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
		"BenchmarkA": {AllocsPerOp: 10},
		"BenchmarkB": {AllocsPerOp: 8},
	}
	// +20% allocs and an improvement are inside the 25% budget.
	fresh := map[string]benchResult{
		"BenchmarkA": {AllocsPerOp: 12},
		"BenchmarkB": {AllocsPerOp: 1},
	}
	if got := failures(compare(base, fresh)); len(got) != 0 {
		t.Fatalf("expected no failures, got %v", got)
	}
}

func TestCompareRegressionFails(t *testing.T) {
	base := map[string]benchResult{"BenchmarkA": {AllocsPerOp: 8}}
	fresh := map[string]benchResult{"BenchmarkA": {AllocsPerOp: 11}}
	got := failures(compare(base, fresh))
	if len(got) != 1 {
		t.Fatalf("expected 1 failure, got %v", got)
	}
	if !strings.Contains(got[0].detail, "ALLOC REGRESSION") {
		t.Errorf("failure should name the regression: %q", got[0].detail)
	}
}

func TestCompareExactBudgetBoundaryPasses(t *testing.T) {
	base := map[string]benchResult{"BenchmarkA": {AllocsPerOp: 8}}
	fresh := map[string]benchResult{"BenchmarkA": {AllocsPerOp: 10}}
	if got := failures(compare(base, fresh)); len(got) != 0 {
		t.Fatalf("+25%% is the budget, not past it; got %v", got)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := results("BenchmarkA", "BenchmarkGone")
	fresh := results("BenchmarkA")
	got := failures(compare(base, fresh))
	if len(got) != 1 || got[0].name != "BenchmarkGone" {
		t.Fatalf("expected BenchmarkGone to fail as missing, got %v", got)
	}
	if !strings.Contains(got[0].detail, "MISSING") {
		t.Errorf("failure should say missing: %q", got[0].detail)
	}
}

func TestCompareNewBenchmarkIsInformational(t *testing.T) {
	base := results("BenchmarkA")
	fresh := results("BenchmarkA", "BenchmarkNew")
	lines := compare(base, fresh)
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
	base := results("BenchmarkZero")
	fresh := results("BenchmarkZero")
	if got := failures(compare(base, fresh)); len(got) != 0 {
		t.Fatalf("a zero-alloc baseline staying zero-alloc must not divide or fail, got %v", got)
	}
}

func TestCompareDeterministicOrder(t *testing.T) {
	base := results("BenchmarkB", "BenchmarkA")
	fresh := results("BenchmarkB", "BenchmarkA", "BenchmarkZNew", "BenchmarkCNew")
	lines := compare(base, fresh)
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

// TestArtifactRoundTrip: what the artifact mode writes is what the gate
// loads — GOMAXPROCS suffixes stripped, the last of repeated runs kept,
// lines without ns/op skipped — and the raw stream is echoed verbatim.
func TestArtifactRoundTrip(t *testing.T) {
	in := "goos: linux\n" +
		"BenchmarkB-8  100  17092 ns/op  18305 B/op  223 allocs/op\n" +
		"BenchmarkA/sub-case-2  71784  17 ns/op  0 B/op  0 allocs/op\n" +
		"BenchmarkB-8  100  17092 ns/op  18305 B/op  224 allocs/op\n" +
		"BenchmarkNoTiming  5 allocs/op x\n" +
		"PASS\n"
	var out, echo strings.Builder
	if err := writeArtifact(strings.NewReader(in), &out, &echo); err != nil {
		t.Fatal(err)
	}
	if echo.String() != in {
		t.Errorf("echo %q, want the input verbatim", echo.String())
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]benchResult{"BenchmarkA/sub-case": {AllocsPerOp: 0}, "BenchmarkB": {AllocsPerOp: 224}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("artifact %s loads as %v, want %v", out.String(), got, want)
	}
}

func TestCompareAllocGate(t *testing.T) {
	base := map[string]benchResult{
		"BenchmarkZeroAlloc": {AllocsPerOp: 0},
		"BenchmarkSomeAlloc": {AllocsPerOp: 8},
	}

	// A zero-alloc baseline growing any allocations fails.
	fresh := map[string]benchResult{
		"BenchmarkZeroAlloc": {AllocsPerOp: 2},
		"BenchmarkSomeAlloc": {AllocsPerOp: 8},
	}
	got := failures(compare(base, fresh))
	if len(got) != 1 || got[0].name != "BenchmarkZeroAlloc" {
		t.Fatalf("expected BenchmarkZeroAlloc to fail, got %v", got)
	}
	if !strings.Contains(got[0].detail, "ALLOC REGRESSION") {
		t.Errorf("failure should name the alloc regression: %q", got[0].detail)
	}

	// An alloc improvement never fails.
	fresh = map[string]benchResult{
		"BenchmarkZeroAlloc": {AllocsPerOp: 0},
		"BenchmarkSomeAlloc": {AllocsPerOp: 1},
	}
	if got := failures(compare(base, fresh)); len(got) != 0 {
		t.Fatalf("alloc improvement must not fail, got %v", got)
	}
}
