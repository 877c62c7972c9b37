package fleetsim

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"time"

	"repro/internal/adapt"
	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/ctrlplane/persist"
	"repro/internal/ctrlplane/replica"
	"repro/internal/machine"
)

// topologyFor builds the machine preset a scenario model names ("":
// paper-model); each call returns a fresh Machine (members must not
// share one).
func topologyFor(model string) (*machine.Machine, error) {
	if model == "" {
		model = "paper-model"
	}
	return machine.Preset(model)
}

// fastAdapt is the adaptive-loop tuning every recalibrating member
// uses: single-sample windows and two confirm windows, so one telemetry
// report per rebalance round confirms drift within a few rounds.
func fastAdapt() adapt.Config {
	return adapt.Config{Window: 1, Alpha: 0.5, ConfirmWindows: 2}
}

// memberTTL keeps sim apps alive without heartbeats for any plausible
// scenario length.
const memberTTL = time.Hour

// replicaProc is one live coopd replica process (or the single process
// of a plain member).
type replicaProc struct {
	url   string
	dir   string // persist state dir ("" for plain members)
	srv   *ctrlplane.Server
	node  *replica.Node // nil for plain members
	hs    *http.Server
	alive bool
}

// kill crashes the process: listener closed, loops stopped, store
// abandoned without a clean close.
func (p *replicaProc) kill() {
	if !p.alive {
		return
	}
	p.alive = false
	p.hs.Close()
	if p.node != nil {
		p.node.Close()
	}
	p.srv.Close()
}

// simMember is one fleet machine under simulation: a single in-process
// coopd, or an HA pair of them.
type simMember struct {
	spec  MachineSpec
	procs []*replicaProc
	hosts []string // "host:port" per endpoint, for the partition fabric
}

func (m *simMember) endpoints() []string {
	out := make([]string, len(m.procs))
	for i, p := range m.procs {
		out[i] = p.url
	}
	return out
}

// leader returns the live replica currently holding the lease (nil for
// plain members or when no live replica leads).
func (m *simMember) leader() *replicaProc {
	for _, p := range m.procs {
		if p.alive && p.node != nil && p.node.Role() == replica.RoleLeader {
			return p
		}
	}
	return nil
}

func (m *simMember) close() {
	for _, p := range m.procs {
		p.kill()
		if p.dir != "" {
			os.RemoveAll(p.dir)
		}
	}
}

// listenLocal binds an ephemeral loopback port.
func listenLocal() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// startPlainProc boots a standalone coopd on a fresh port.
func startPlainProc(spec MachineSpec) (*replicaProc, error) {
	topo, err := topologyFor(spec.Model)
	if err != nil {
		return nil, err
	}
	cfg := ctrlplane.ServerConfig{Machine: topo, DefaultTTL: memberTTL}
	if spec.Recalibrate {
		cfg.Recalibrate = true
		cfg.Adapt = fastAdapt()
	}
	srv, err := ctrlplane.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := listenLocal()
	if err != nil {
		srv.Close()
		return nil, err
	}
	p := &replicaProc{
		url:   "http://" + ln.Addr().String(),
		srv:   srv,
		hs:    &http.Server{Handler: srv.Handler()},
		alive: true,
	}
	go p.hs.Serve(ln)
	srv.Start()
	return p, nil
}

// startReplicaProc boots one replica of an HA member on ln. peers are
// the other replicas' URLs.
func startReplicaProc(spec MachineSpec, ln net.Listener, peers []string, bootstrap bool, leaderHint string) (*replicaProc, error) {
	dir, err := os.MkdirTemp("", "fleetsim-"+spec.ID+"-*")
	if err != nil {
		return nil, err
	}
	fail := func(e error) (*replicaProc, error) {
		os.RemoveAll(dir)
		return nil, e
	}
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return fail(err)
	}
	topo, err := topologyFor(spec.Model)
	if err != nil {
		return fail(err)
	}
	cfg := ctrlplane.ServerConfig{Machine: topo, DefaultTTL: memberTTL, Store: store}
	if spec.Recalibrate {
		cfg.Recalibrate = true
		cfg.Adapt = fastAdapt()
	}
	srv, err := ctrlplane.NewServer(cfg)
	if err != nil {
		return fail(err)
	}
	self := "http://" + ln.Addr().String()
	node, err := replica.NewNode(replica.Config{
		Self:         self,
		Peers:        peers,
		Server:       srv,
		LeaseTTL:     500 * time.Millisecond,
		PullInterval: 25 * time.Millisecond,
		Bootstrap:    bootstrap,
		LeaderHint:   leaderHint,
	})
	if err != nil {
		srv.Close()
		return fail(err)
	}
	p := &replicaProc{
		url:   self,
		dir:   dir,
		srv:   srv,
		node:  node,
		hs:    &http.Server{Handler: node.Handler()},
		alive: true,
	}
	go p.hs.Serve(ln)
	srv.Start()
	node.Start()
	return p, nil
}

// startMember boots a scenario machine: one process, or a
// bootstrap-leader + joining-follower pair when spec.HA.
func startMember(spec MachineSpec) (*simMember, error) {
	m := &simMember{spec: spec}
	if !spec.HA {
		p, err := startPlainProc(spec)
		if err != nil {
			return nil, err
		}
		m.procs = []*replicaProc{p}
	} else {
		lnA, err := listenLocal()
		if err != nil {
			return nil, err
		}
		lnB, err := listenLocal()
		if err != nil {
			lnA.Close()
			return nil, err
		}
		urlA := "http://" + lnA.Addr().String()
		urlB := "http://" + lnB.Addr().String()
		leader, err := startReplicaProc(spec, lnA, []string{urlB}, true, "")
		if err != nil {
			lnB.Close()
			return nil, err
		}
		follower, err := startReplicaProc(spec, lnB, []string{urlA}, false, urlA)
		if err != nil {
			leader.kill()
			os.RemoveAll(leader.dir)
			return nil, err
		}
		m.procs = []*replicaProc{leader, follower}
	}
	for _, p := range m.procs {
		u, err := url.Parse(p.url)
		if err != nil {
			m.close()
			return nil, err
		}
		m.hosts = append(m.hosts, u.Host)
	}
	return m, nil
}

// waitReplicated blocks (bounded) until every live replica's registry
// generation has caught up with the leader's. kill_leader calls this
// before the kill: the drill tests whether *replicated* state survives
// promotion, which with an async pull loop requires the follower to
// have actually pulled — otherwise the scenario races the replication
// interval and the verdict depends on wall-clock timing, not logic.
func (m *simMember) waitReplicated(ctx context.Context, timeout time.Duration) error {
	if !m.spec.HA {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		lead := m.leader()
		if lead == nil {
			return fmt.Errorf("fleetsim: member %s: no leader to replicate from", m.spec.ID)
		}
		caught := true
		var leadGen uint64
		if st, err := client.New(lead.url, client.Config{MaxAttempts: 1}).ReplicaStatus(ctx); err == nil {
			leadGen = st.Generation
		} else {
			caught = false
		}
		for _, p := range m.procs {
			if !caught {
				break
			}
			if !p.alive || p == lead {
				continue
			}
			st, err := client.New(p.url, client.Config{MaxAttempts: 1}).ReplicaStatus(ctx)
			if err != nil || st.Generation < leadGen {
				caught = false
			}
		}
		if caught {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleetsim: member %s: followers did not catch up within %v", m.spec.ID, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitLeader blocks (bounded) until a live replica of the member holds
// the lease — used after kill_leader so the scenario's subsequent
// rounds see a settled control plane rather than racing the election.
func (m *simMember) waitLeader(timeout time.Duration) error {
	if m.spec.HA {
		deadline := time.Now().Add(timeout)
		for m.leader() == nil {
			if time.Now().After(deadline) {
				return fmt.Errorf("fleetsim: member %s: no leader within %v", m.spec.ID, timeout)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}
