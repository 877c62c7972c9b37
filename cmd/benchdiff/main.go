// Command benchdiff compares a fresh benchmark artifact (the JSON map
// written by cmd/benchjson) against a committed baseline and fails when
// the suite regressed:
//
//   - any benchmark present in the baseline is missing from the fresh
//     run (a silently-deleted benchmark would otherwise hide a
//     regression forever), or
//   - any benchmark's fresh allocs/op exceeds the baseline by more than
//     maxRegress (25%) — including a zero-alloc baseline growing any
//     allocations at all (the fleet placement hot path is tracked at 0
//     allocs/op).
//
// Only allocs/op is compared: it is exact across machines, and the
// artifacts carry nothing else. Timing claims go through coopbench
// (bench/), which normalises to a kernel measured in the same run. New
// benchmarks (fresh-only) and improvements are reported but never fail
// the run. `make bench-guard` wires this against the HEAD-committed
// BENCH_solver.json / BENCH_fleet.json.
//
// Usage:
//
//	benchdiff -baseline BENCH_fleet.base.json -fresh BENCH_fleet.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type benchResult struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// maxRegress is the tolerated allocs/op growth as a fraction.
const maxRegress = 0.25

// diffLine is one benchmark's verdict in the comparison report.
type diffLine struct {
	name   string
	detail string
	failed bool
}

// compare evaluates fresh against baseline under the allocs/op budget.
// Every baseline benchmark yields exactly one line; fresh-only
// benchmarks are appended as informational "new" lines.
func compare(baseline, fresh map[string]benchResult) []diffLine {
	names := make([]string, 0, len(baseline))
	for n := range baseline {
		names = append(names, n)
	}
	sort.Strings(names)

	var lines []diffLine
	for _, n := range names {
		base := baseline[n]
		got, ok := fresh[n]
		if !ok {
			lines = append(lines, diffLine{
				name:   n,
				detail: "MISSING from fresh run (tracked benchmark deleted or filter no longer matches)",
				failed: true,
			})
			continue
		}
		// A zero-alloc baseline must stay zero-alloc; a nonzero one gets
		// the relative budget.
		switch {
		case base.AllocsPerOp == 0 && got.AllocsPerOp > 0:
			lines = append(lines, diffLine{
				name:   n,
				detail: fmt.Sprintf("ALLOC REGRESSION 0 -> %.0f allocs/op (zero-alloc path lost)", got.AllocsPerOp),
				failed: true,
			})
			continue
		case base.AllocsPerOp > 0 && got.AllocsPerOp/base.AllocsPerOp-1 > maxRegress:
			lines = append(lines, diffLine{
				name: n,
				detail: fmt.Sprintf("ALLOC REGRESSION %.0f -> %.0f allocs/op exceeds budget %+.0f%%",
					base.AllocsPerOp, got.AllocsPerOp, 100*maxRegress),
				failed: true,
			})
			continue
		}
		lines = append(lines, diffLine{
			name:   n,
			detail: fmt.Sprintf("%.0f -> %.0f allocs/op", base.AllocsPerOp, got.AllocsPerOp),
		})
	}

	extra := make([]string, 0)
	for n := range fresh {
		if _, ok := baseline[n]; !ok {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		lines = append(lines, diffLine{
			name:   n,
			detail: fmt.Sprintf("new benchmark: %.0f allocs/op", fresh[n].AllocsPerOp),
		})
	}
	return lines
}

func loadResults(path string) (map[string]benchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]benchResult
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func main() {
	baselinePath := flag.String("baseline", "", "committed benchmark JSON (benchjson output)")
	freshPath := flag.String("fresh", "", "freshly-measured benchmark JSON to check")
	flag.Parse()
	if *baselinePath == "" || *freshPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -fresh are required")
		flag.Usage()
		os.Exit(2)
	}

	baseline, err := loadResults(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	fresh, err := loadResults(*freshPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	failed := 0
	for _, line := range compare(baseline, fresh) {
		mark := "ok  "
		if line.failed {
			mark = "FAIL"
			failed++
		}
		fmt.Printf("%s %-40s %s\n", mark, line.name, line.detail)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d benchmark(s) failed against %s (budget %+.0f%%)\n",
			failed, *baselinePath, 100*maxRegress)
		os.Exit(1)
	}
}
