// Command fleetd runs the fleet placement daemon: it tracks a set of
// coopd-backed NUMA machines, places incoming applications on the
// machine where they add the most aggregate GFLOPS (roofline marginal
// scoring, NUMA-bad anti-affinity), and rebalances when machines die,
// drain, or the fleet drifts from its optimal packing.
//
// Usage:
//
//	fleetd -machine a=http://host-a:8377 -machine b=http://host-b:8377
//	fleetd -machine ha=http://a1:8377,http://a2:8377   # HA pair, one member
//	fleetd -machine a@rack1=http://host-a:8377         # failure domain rack1
//	fleetd -addr :8380 -rebalance 10s -max-moves 4 -threshold 0.9
//	fleetd -spread -storm-fraction 0.25 -flap-count 4  # robustness knobs
//	fleetd -objective weighted-priority -no-preempt    # priority knobs
//
// Endpoints: POST /v1/fleet/place, POST /v1/fleet/gang,
// GET /v1/fleet/machines, GET /v1/fleet/plan, POST /v1/fleet/drain,
// POST+GET /v1/fleet/upgrade, GET /healthz, GET /metricsz (per-endpoint
// request counters, the Scorer's solve-cache counters and how the member
// polls went). Members are polled with GET /v1/state, so every -machine
// must be a coopd that serves it. See `coopctl fleet` for the CLI.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/fleet"
	"repro/internal/httpapi/daemon"
)

// memberFlag collects repeated -machine flags: "id[@domain]=url[,url2]".
type memberFlag struct {
	ids       []string
	domains   []string
	endpoints [][]string
}

func (f *memberFlag) String() string { return fmt.Sprint(f.ids) }

func (f *memberFlag) Set(v string) error {
	id, urls, ok := strings.Cut(v, "=")
	if !ok || id == "" || urls == "" {
		return fmt.Errorf("want id[@domain]=url[,url2], got %q", v)
	}
	// "a@rack1" groups the machine into failure domain rack1; without
	// the suffix every machine is its own domain.
	id, domain, _ := strings.Cut(id, "@")
	if id == "" {
		return fmt.Errorf("want id[@domain]=url[,url2], got %q", v)
	}
	var eps []string
	for _, u := range strings.Split(urls, ",") {
		if u = strings.TrimSpace(u); u != "" {
			eps = append(eps, u)
		}
	}
	if len(eps) == 0 {
		return fmt.Errorf("member %s has no endpoints", id)
	}
	f.ids = append(f.ids, id)
	f.domains = append(f.domains, domain)
	f.endpoints = append(f.endpoints, eps)
	return nil
}

func main() {
	var (
		members         memberFlag
		addr, pprofAddr string
		icfg            = fleet.InventoryConfig{Logf: log.Printf}
		cfg             = fleet.ServerConfig{Logf: log.Printf}
	)
	flag.StringVar(&addr, "addr", ":8380", "listen address")
	flag.Var(&members, "machine", "member machine as id=coopd-url[,coopd-url2] (repeatable; several URLs = one HA pair)")
	flag.DurationVar(&cfg.PollInterval, "poll", fleet.DefaultPollInterval, "inventory poll interval")
	flag.DurationVar(&cfg.RebalanceInterval, "rebalance", fleet.DefaultRebalanceInterval, "rebalance round interval")
	flag.IntVar(&icfg.FailAfter, "fail-after", fleet.DefaultFailAfter, "consecutive failed polls before a machine is declared dead")
	flag.IntVar(&cfg.MaxMovesPerRound, "max-moves", fleet.DefaultMaxMovesPerRound, "max app moves per rebalance round")
	flag.Float64Var(&cfg.Threshold, "threshold", fleet.DefaultThreshold, "rebalance when fleet GFLOPS falls below this fraction (0, 1] of the re-pack optimum")
	flag.BoolVar(&cfg.DomainSpread, "spread", false, "spread cooperating app groups across failure domains on score ties")
	flag.StringVar(&cfg.Objective, "objective", "", "placement objective: total-gflops (default), weighted-priority, or max-min")
	flag.BoolVar(&cfg.DisablePreemption, "no-preempt", false, "disable priority preemption (inversion repair and gang-admission eviction)")
	flag.Float64Var(&cfg.StormFraction, "storm-fraction", fleet.DefaultStormFraction, "down-member fraction (0, 1] that trips degraded-mode triage")
	flag.IntVar(&cfg.StormBudget, "storm-budget", 0, "max urgent moves per degraded round (0: max-moves)")
	flag.IntVar(&cfg.AdmissionCap, "admission-cap", fleet.DefaultAdmissionCap, "max storm evacuations one survivor admits per round")
	flag.IntVar(&icfg.FlapCount, "flap-count", fleet.DefaultFlapCount, "alive<->dead transitions inside the flap window before quarantine (-1: disabled)")
	flag.DurationVar(&icfg.FlapWindow, "flap-window", fleet.DefaultFlapWindow, "flap detector sliding window")
	flag.DurationVar(&icfg.QuarantineBackoff, "quarantine-backoff", fleet.DefaultQuarantineBackoff, "first quarantine re-admission backoff, doubling per repeat")
	flag.StringVar(&pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty: disabled)")
	flag.Parse()

	if len(members.ids) == 0 {
		log.Fatalf("fleetd: at least one -machine id=url is required")
	}

	cfg.Inventory = fleet.NewInventory(icfg)
	for i, id := range members.ids {
		if err := cfg.Inventory.AddDomain(id, members.domains[i], members.endpoints[i]...); err != nil {
			log.Fatalf("fleetd: %v", err)
		}
	}
	srv, err := fleet.NewServer(cfg)
	if err != nil {
		log.Fatalf("fleetd: %v", err)
	}

	srv.Start()
	defer srv.Close()
	cfg = srv.Config()
	log.Printf("fleetd: serving %d machines on %s (poll %s, rebalance %s, max %d moves/round, threshold %.2f)",
		len(members.ids), addr, cfg.PollInterval, cfg.RebalanceInterval, cfg.MaxMovesPerRound, cfg.Threshold)
	if err := daemon.Serve("fleetd", addr, pprofAddr, srv.Handler()); err != nil {
		log.Fatalf("fleetd: %v", err)
	}
}
