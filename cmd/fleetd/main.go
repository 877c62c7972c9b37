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
	"time"

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
	var members memberFlag
	addr := flag.String("addr", ":8380", "listen address")
	flag.Var(&members, "machine", "member machine as id=coopd-url[,coopd-url2] (repeatable; several URLs = one HA pair)")
	poll := flag.Duration("poll", 2*time.Second, "inventory poll interval")
	rebalance := flag.Duration("rebalance", 10*time.Second, "rebalance round interval")
	failAfter := flag.Int("fail-after", 3, "consecutive failed polls before a machine is declared dead")
	maxMoves := flag.Int("max-moves", fleet.DefaultMaxMovesPerRound, "max app moves per rebalance round")
	threshold := flag.Float64("threshold", fleet.DefaultThreshold, "rebalance when fleet GFLOPS falls below this fraction of the re-pack optimum")
	spread := flag.Bool("spread", false, "spread cooperating app groups across failure domains on score ties")
	objective := flag.String("objective", "", "placement objective: total-gflops (default), weighted-priority, or max-min")
	noPreempt := flag.Bool("no-preempt", false, "disable priority preemption (inversion repair and gang-admission eviction)")
	stormFraction := flag.Float64("storm-fraction", fleet.DefaultStormFraction, "down-member fraction that trips degraded-mode triage")
	stormBudget := flag.Int("storm-budget", 0, "max urgent moves per degraded round (0: max-moves)")
	admissionCap := flag.Int("admission-cap", fleet.DefaultAdmissionCap, "max storm evacuations one survivor admits per round")
	flapCount := flag.Int("flap-count", fleet.DefaultFlapCount, "alive<->dead transitions inside the flap window before quarantine (negative: disabled)")
	flapWindow := flag.Duration("flap-window", fleet.DefaultFlapWindow, "flap detector sliding window")
	quarantineBackoff := flag.Duration("quarantine-backoff", fleet.DefaultQuarantineBackoff, "first quarantine re-admission backoff, doubling per repeat")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty: disabled)")
	flag.Parse()

	if len(members.ids) == 0 {
		log.Fatalf("fleetd: at least one -machine id=url is required")
	}

	inv := fleet.NewInventory(fleet.InventoryConfig{
		FailAfter: *failAfter, FlapCount: *flapCount, FlapWindow: *flapWindow,
		QuarantineBackoff: *quarantineBackoff, Logf: log.Printf,
	})
	for i, id := range members.ids {
		if err := inv.AddDomain(id, members.domains[i], members.endpoints[i]...); err != nil {
			log.Fatalf("fleetd: %v", err)
		}
	}

	srv, err := fleet.NewServer(fleet.ServerConfig{
		Inventory:         inv,
		PollInterval:      *poll,
		RebalanceInterval: *rebalance,
		MaxMovesPerRound:  *maxMoves,
		Threshold:         *threshold,
		DomainSpread:      *spread,
		Objective:         *objective,
		DisablePreemption: *noPreempt,
		StormFraction:     *stormFraction,
		StormBudget:       *stormBudget,
		AdmissionCap:      *admissionCap,
		Logf:              log.Printf,
	})
	if err != nil {
		log.Fatalf("fleetd: %v", err)
	}

	srv.Start()
	defer srv.Close()
	log.Printf("fleetd: serving %d machines on %s (poll %s, rebalance %s, max %d moves/round, threshold %.2f)",
		len(members.ids), *addr, *poll, *rebalance, *maxMoves, *threshold)
	if err := daemon.Serve("fleetd", *addr, *pprofAddr, srv.Handler()); err != nil {
		log.Fatalf("fleetd: %v", err)
	}
}
