// Command coopbench is the repository's end-to-end benchmark. One
// invocation measures one workload: it builds an in-process fleet (real
// fleet.Server, fleet.Inventory and ctrlplane.Server members, driven
// through the typed clients over an in-memory http.RoundTripper), runs
// it closed-loop from one goroutine with GOMAXPROCS=1, checks the
// outputs and prints every metric by name and unit as the last line of
// standard output. bench/README.md describes workloads and metrics.
//
//	coopbench --workload rack_loss --seed 1 --seconds 20 --trace 0
//	coopbench --workload rack_loss --seed 1 --seconds 20 --trace 1 --trace-out spans.json
//	coopbench --workload rack_loss --seed 1 --seconds 20 --repeat 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var cfg config
	var trace, repeat int
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1: record spans, run the probes and print the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with --trace 1: file the spans are written to at exit")
	flag.IntVar(&repeat, "repeat", 0, "run the workload this many times in fresh processes, one seed each, and print the spread of every end-to-end metric")
	flag.Parse()
	cfg.trace = trace != 0

	if repeat > 0 {
		os.Exit(repeatRuns(cfg, repeat))
	}
	info, res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coopbench:", err)
		os.Exit(2)
	}
	for _, e := range info.Errors {
		fmt.Fprintln(os.Stderr, "coopbench: FAILED:", e)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(info); err != nil {
		fmt.Fprintln(os.Stderr, "coopbench:", err)
		os.Exit(2)
	}
	if err := out.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "coopbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
