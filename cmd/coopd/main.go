// Command coopd runs the allocation control-plane daemon: applications
// register their roofline profile over HTTP, heartbeat their execution
// stats, and receive per-NUMA-node thread allocations computed by the
// agent's policies over the configured machine topology.
//
// Usage:
//
//	coopd                              # paper model machine on :8377
//	coopd -addr :9000 -machine skylake # calibrated Skylake topology
//	coopd -machine topo.json           # custom topology from JSON
//	coopd -policy fairshare            # even split instead of roofline
//	coopd -ttl 5s -sweep 1s            # heartbeat deadline / evict scan
//	coopd -state-dir /var/lib/coopd    # journal registry, survive crashes
//	coopd -recalibrate                 # adaptive loop: telemetry + refits
//	coopd -pprof-addr 127.0.0.1:6060   # net/http/pprof on a private port
//
// With -state-dir the registry is persisted to a snapshot + append-only
// journal; on restart the daemon restores the registered apps, re-arms
// their heartbeat deadlines, and resumes the allocation generation
// counter so watching clients never observe it regress. Registrations
// are fsynced before they are acknowledged unless -write-behind relaxes
// that to a periodic background flush.
//
// High availability (requires -state-dir):
//
//	coopd -self http://a:8377 -peers http://b:8377 -state-dir dirA            # bootstrap leader
//	coopd -self http://b:8377 -peers http://a:8377 -state-dir dirB \
//	      -replica-of http://a:8377                                           # joining follower
//
// Replicas form a leader/follower group: the leader streams its journal
// over GET /v1/replicate, followers serve reads and redirect writes
// (421 + the leader's URL), and when the leader goes silent past
// -lease-ttl a follower promotes itself with a higher fencing epoch.
//
// With -recalibrate the daemon closes the model↔measurement loop:
// applications stream observed GFLOPS/bandwidth samples to POST
// /v1/report, the daemon fits their effective demand online, and on
// confirmed drift it substitutes the fitted model into the solver
// (journaled, so it survives crashes and leader failover) and re-solves.
// -drift-threshold sets the relative fitted-vs-declared error that
// counts as drift. Each app's tracker rides its GET /v1/state view
// (`coopctl state`), the loop's counters and threshold /metricsz's
// adapt block (`coopctl status`).
//
// Endpoints: POST /v1/register, POST /v1/heartbeat, POST /v1/report,
// DELETE /v1/apps/{id}, GET /v1/allocations, GET /v1/state (the one
// registry read: apps, total and topology; conditional for fleetd's
// polls), GET /healthz, GET /metricsz, GET /tracez (each endpoint's last
// 1024 requests as Chrome trace spans). See cmd/coopctl for a CLI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/adapt"
	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/persist"
	"repro/internal/ctrlplane/replica"
	"repro/internal/httpapi/daemon"
	"repro/internal/machine"
)

func main() {
	addr := flag.String("addr", ":8377", "listen address")
	machineName := flag.String("machine", "paper-model", "topology: "+strings.Join(machine.PresetNames(), " | ")+" | path to a machine JSON file")
	policy := flag.String("policy", ctrlplane.PolicyRoofline, "allocation policy: roofline | fairshare")
	ttl := flag.Duration("ttl", 15*time.Second, "default heartbeat deadline before an app is evicted")
	sweep := flag.Duration("sweep", 0, "eviction scan interval (default ttl/4)")
	stateDir := flag.String("state-dir", "", "directory for the registry snapshot + journal (empty: in-memory only, no crash recovery)")
	writeBehind := flag.Bool("write-behind", false, "relax registration durability from fsync-per-write to a periodic background flush")
	self := flag.String("self", "", "this replica's advertised base URL (enables HA when -peers is set)")
	peers := flag.String("peers", "", "comma-separated peer replica URLs (enables HA; requires -self and -state-dir)")
	replicaOf := flag.String("replica-of", "", "join as a follower of this leader URL (default: bootstrap as leader)")
	leaseTTL := flag.Duration("lease-ttl", 2*time.Second, "leader lease: how long the leader may go silent before a follower promotes")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrent requests per endpoint before shedding with 503 (0: unbounded)")
	recalibrate := flag.Bool("recalibrate", false, "enable the adaptive loop: ingest /v1/report telemetry, refit demand models online, re-solve on confirmed drift")
	driftThreshold := flag.Float64("drift-threshold", 0.25, "relative fitted-vs-declared AI error that counts as drift (with -recalibrate)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty: disabled)")
	flag.Parse()

	m, err := loadMachine(*machineName)
	if err != nil {
		log.Fatalf("coopd: %v", err)
	}

	var store *persist.Store
	if *stateDir != "" {
		store, err = persist.Open(*stateDir, persist.Options{WriteBehind: *writeBehind})
		if err != nil {
			log.Fatalf("coopd: opening state dir %s: %v", *stateDir, err)
		}
		defer store.Close()
	}

	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{
		Machine:       m,
		Policy:        *policy,
		DefaultTTL:    *ttl,
		SweepInterval: *sweep,
		Store:         store,
		MaxInFlight:   *maxInFlight,
		Recalibrate:   *recalibrate,
		Adapt:         adapt.Config{DriftThreshold: *driftThreshold},
	})
	if err != nil {
		log.Fatalf("coopd: %v", err)
	}
	if store != nil {
		log.Printf("coopd: restored %d apps from %s (generation %d, %d torn journal records dropped)",
			srv.RestoredApps(), *stateDir, srv.Registry().Generation(), store.TornRecords())
	}

	handler := srv.Handler()
	var node *replica.Node
	if *peers != "" || *self != "" {
		node, err = replica.NewNode(replica.Config{
			Self:       *self,
			Peers:      splitPeers(*peers),
			Server:     srv,
			LeaseTTL:   *leaseTTL,
			Bootstrap:  *replicaOf == "",
			LeaderHint: *replicaOf,
			Logf:       log.Printf,
		})
		if err != nil {
			log.Fatalf("coopd: %v", err)
		}
		handler = node.Handler()
	}

	srv.Start()
	defer srv.Close()
	if node != nil {
		node.Start()
		defer node.Close()
		log.Printf("coopd: replica %s starting as %s (peers %v, lease %s)", *self, node.Role(), splitPeers(*peers), *leaseTTL)
	}
	log.Printf("coopd: serving %s (policy %s, ttl %s) on %s", m, *policy, *ttl, *addr)
	if *recalibrate {
		log.Printf("coopd: adaptive recalibration on (drift threshold %.0f%%)", *driftThreshold*100)
	}
	if err := daemon.Serve("coopd", *addr, *pprofAddr, handler); err != nil {
		log.Fatalf("coopd: %v", err)
	}
}

// splitPeers parses the comma-separated -peers list.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// loadMachine resolves a named topology or reads one from a JSON file.
func loadMachine(name string) (*machine.Machine, error) {
	m, err := machine.Preset(name)
	if err == nil {
		return m, nil
	}
	data, ferr := os.ReadFile(name)
	if ferr != nil {
		return nil, fmt.Errorf("%v, and no such file: %w", err, ferr)
	}
	m = &machine.Machine{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("parsing machine file %s: %w", name, err)
	}
	return m, nil
}
