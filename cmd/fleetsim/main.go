// Command fleetsim replays the trace-driven fleet stress corpus: each
// scenario boots real in-process coopd members (plain or HA pairs)
// behind a fault-injecting network, drives the fleet
// Inventory/Placer/Rebalancer round by round from the trace, and
// checks the stability invariants (exactly-once, bounded-churn,
// no-oscillation, convergence) after every round.
//
// Usage:
//
//	fleetsim                           # run the checked-in corpus
//	fleetsim -run flapping             # one scenario by name
//	fleetsim -run diurnal,partition_flap  # a comma-separated subset
//	fleetsim -dir ./my-scenarios       # external scenario directory
//	fleetsim -out verdicts.json -v     # write the verdict artifact
//
// Exit status is 0 when every scenario passes its invariants, 1 when
// any fails, and 2 for a usage error — e.g. -run naming an unknown
// scenario, which also prints the available scenario names. -out writes
// the machine-readable verdicts on 0 and 1 either way, so CI can upload
// the artifact from failed runs too.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleetsim"
)

func main() {
	dir := flag.String("dir", "", "load scenarios from this directory instead of the checked-in corpus")
	run := flag.String("run", "", "run only these scenarios (comma-separated names)")
	out := flag.String("out", "", "write the verdicts as JSON to this file (\"-\": stdout)")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-scenario wall-clock budget")
	verbose := flag.Bool("v", false, "log every engine decision, not just verdict summaries")
	flag.Parse()

	var (
		scenarios []*fleetsim.Scenario
		err       error
	)
	if *dir != "" {
		scenarios, err = fleetsim.LoadDir(*dir)
	} else {
		scenarios, err = fleetsim.Corpus()
	}
	if err != nil {
		log.Fatalf("fleetsim: %v", err)
	}
	scenarios, err = fleetsim.Filter(scenarios, *run)
	if err != nil {
		// Exit 2, not 1: a selection error is a usage mistake (typo'd
		// scenario name), distinct from scenarios failing invariants.
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var logf func(format string, args ...any)
	if *verbose {
		logf = log.Printf
	}

	verdicts := make([]*fleetsim.Verdict, 0, len(scenarios))
	failed := 0
	for _, sc := range scenarios {
		runCtx, cancelRun := context.WithTimeout(ctx, *timeout)
		start := time.Now()
		v, err := fleetsim.RunScenario(runCtx, sc, fleetsim.EngineConfig{Logf: logf})
		elapsed := time.Since(start)
		cancelRun()
		if err != nil {
			log.Fatalf("fleetsim: scenario %s: %v", sc.Name, err)
		}
		verdicts = append(verdicts, v)
		status := "PASS"
		if !v.Passed {
			status = "FAIL"
			failed++
		}
		log.Printf("%s %-18s seed=%d rounds=%d moves=%d (max %d/round, %d deferred) agg=%.1f GFLOPS %.1f rounds/sec",
			status, sc.Name, v.Seed, v.Rounds, v.TotalMoves, v.MaxRoundMoves, v.Deferred, v.FinalAggregateGFLOPS, float64(v.Rounds)/elapsed.Seconds())
		for _, viol := range v.Violations {
			log.Printf("  round %d [%s]: %s", viol.Round, viol.Invariant, viol.Detail)
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(verdicts, "", "  ")
		if err != nil {
			log.Fatalf("fleetsim: encoding verdicts: %v", err)
		}
		data = append(data, '\n')
		if *out == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatalf("fleetsim: writing %s: %v", *out, err)
		}
	}

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "fleetsim: %d of %d scenarios failed invariants\n", failed, len(verdicts))
		os.Exit(1)
	}
	log.Printf("fleetsim: %d scenarios passed", len(verdicts))
}
