// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON map on stdout: benchmark name -> {allocs_per_op}, the one
// number cmd/benchdiff gates (it is exact across machines; timing claims
// go through coopbench, bench/). The raw stream, ns/op and B/op
// included, is echoed to stderr so terminal output and CI logs keep the
// familiar textual form while the JSON artifact (BENCH_solver.json in
// `make bench`) tracks the allocation trajectory PR-over-PR.
//
// Benchmark lines look like
//
//	BenchmarkAllocateCold-8  71784  17092 ns/op  18305 B/op  223 allocs/op
//
// The -N GOMAXPROCS suffix is stripped so keys stay stable across
// machines. Benchmarks run more than once (e.g. -count) keep the last
// measurement.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

type benchResult struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func main() {
	results := map[string]benchResult{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		name, res, ok := parseBenchLine(line)
		if ok {
			results[name] = res
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	// Deterministic key order for reviewable diffs.
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	ordered := make(map[string]benchResult, len(results))
	for _, n := range names {
		ordered[n] = results[n]
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ordered); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: writing json: %v\n", err)
		os.Exit(1)
	}
}

// parseBenchLine extracts one benchmark's allocs/op; ok is false for
// lines that are not a benchmark result with an ns/op reading (headers,
// PASS/ok trailers, test chatter).
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
