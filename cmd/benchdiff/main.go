// Command benchdiff is the one tool behind the allocation artifacts
// BENCH_solver.json and BENCH_fleet.json. It has two modes.
//
// Without flags it writes an artifact: `go test -bench -benchmem` output
// on stdin becomes a JSON map on stdout, benchmark name ->
// {allocs_per_op}. The -N GOMAXPROCS suffix is stripped so keys stay
// stable across machines, and a benchmark run more than once (e.g.
// -count) keeps its last measurement. The raw stream, ns/op and B/op
// included, is echoed to stderr so terminal output and CI logs keep
// their familiar textual form.
//
// With -baseline and -fresh it gates a fresh artifact against a
// committed one and fails when the suite regressed:
//
//   - any benchmark present in the baseline is missing from the fresh
//     run (a silently-deleted benchmark would otherwise hide a
//     regression forever), or
//   - any benchmark's fresh allocs/op exceeds the baseline by more than
//     maxRegress (25%) — including a zero-alloc baseline growing any
//     allocations at all (the fleet placement hot path is tracked at 0
//     allocs/op).
//
// Only allocs/op is kept and compared: it is exact across machines.
// Timing claims go through coopbench (bench/), which normalises to a
// kernel measured in the same run. New benchmarks (fresh-only) and
// improvements are reported but never fail the run.
//
// Usage:
//
//	go test -bench . -benchmem -run '^$' ./internal/fleet/ | benchdiff > BENCH_fleet.json
//	benchdiff -baseline BENCH_fleet.base.json -fresh BENCH_fleet.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
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

// parseBenchLine extracts one benchmark's allocs/op; ok is false for
// lines that are not a benchmark result with an ns/op reading (headers,
// PASS/ok trailers, test chatter). Benchmark lines look like
//
//	BenchmarkAllocateCold-8  71784  17092 ns/op  18305 B/op  223 allocs/op
func parseBenchLine(line string) (string, benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", benchResult{}, false
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	var res benchResult
	seen := false
	for i := 2; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			seen = true
		case "allocs/op":
			res.AllocsPerOp = v
		}
	}
	if !seen {
		return "", benchResult{}, false
	}
	return name, res, true
}

// writeArtifact reads benchmark output from in, echoes it to echo and
// writes the artifact to out (encoding/json sorts the keys, so diffs of
// the committed file stay reviewable).
func writeArtifact(in io.Reader, out, echo io.Writer) error {
	results := map[string]benchResult{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fmt.Fprintln(echo, sc.Text())
		if name, res, ok := parseBenchLine(sc.Text()); ok {
			results[name] = res
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading stdin: %w", err)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
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

// gate prints one line per benchmark and reports how many failed.
func gate(baselinePath, freshPath string) (failed int, err error) {
	baseline, err := loadResults(baselinePath)
	if err != nil {
		return 0, err
	}
	fresh, err := loadResults(freshPath)
	if err != nil {
		return 0, err
	}
	for _, line := range compare(baseline, fresh) {
		mark := "ok  "
		if line.failed {
			mark = "FAIL"
			failed++
		}
		fmt.Printf("%s %-40s %s\n", mark, line.name, line.detail)
	}
	return failed, nil
}

func main() {
	baselinePath := flag.String("baseline", "", "committed benchmark artifact to gate against")
	freshPath := flag.String("fresh", "", "freshly written benchmark artifact to check")
	flag.Parse()
	if *baselinePath == "" && *freshPath == "" {
		if err := writeArtifact(os.Stdin, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *baselinePath == "" || *freshPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -fresh go together (neither: write an artifact from stdin)")
		flag.Usage()
		os.Exit(2)
	}
	failed, err := gate(*baselinePath, *freshPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d benchmark(s) failed against %s (budget %+.0f%%)\n",
			failed, *baselinePath, 100*maxRegress)
		os.Exit(1)
	}
}
