package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/fleet"
	"repro/internal/machine"
)

// errRefused is what a request to a killed (or unknown) host gets: the
// in-memory stand-in for "connection refused".
var errRefused = errors.New("coopbench: connection refused")

type host struct {
	handler http.Handler
	fleetd  bool
	down    bool
}

// transport is an http.RoundTripper that calls the target server's
// Handler() directly on the caller's goroutine. A request still crosses
// every layer of the program — client encoding, mux, instrument,
// handler, registry, solver, response decoding — but no kernel socket
// and no other thread, which on a shared 2-core box were most of a
// loopback request's time and nearly all of its variance.
type transport struct {
	hosts map[string]*host
	tr    *tracer
	calls [numSpanKinds]int64 // requests served, by kind, in every run
}

func newTransport(tr *tracer) *transport {
	return &transport{hosts: map[string]*host{}, tr: tr}
}

// respWriter buffers one handler's response.
type respWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) Header() http.Header         { return w.hdr }
func (w *respWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *respWriter) WriteHeader(code int)        { w.code = code }

func classify(req *http.Request, fleetd bool) spanKind {
	p := req.URL.Path
	if fleetd {
		if p == "/v1/fleet/place" {
			return spFleetPlace
		}
		return spFleetOther
	}
	switch {
	case p == "/v1/heartbeat":
		return spHeartbeat
	case p == "/v1/register":
		return spRegister
	case p == "/v1/allocations":
		return spAllocations
	case p == "/v1/apps":
		return spApps
	case req.Method == http.MethodDelete && strings.HasPrefix(p, "/v1/apps/"):
		return spDeregister
	}
	return spMemberOther
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	h := t.hosts[req.URL.Host]
	if h == nil || h.down {
		return nil, errRefused
	}
	if req.Body == nil {
		req.Body = http.NoBody
	}
	k := classify(req, h.fleetd)
	t.calls[k]++
	w := &respWriter{hdr: http.Header{}, code: http.StatusOK}
	t.tr.begin(k)
	h.handler.ServeHTTP(w, req)
	t.tr.end()
	return &http.Response{
		StatusCode:    w.code,
		Status:        fmt.Sprintf("%d %s", w.code, http.StatusText(w.code)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.hdr,
		Body:          io.NopCloser(&w.body),
		ContentLength: int64(w.body.Len()),
		Request:       req,
	}, nil
}

// memberCalls sums the member-handler request counters.
func (t *transport) memberCalls() int64 {
	var n int64
	for k := spRegister; k <= spMemberOther; k++ {
		n += t.calls[k]
	}
	return n
}

// coopd is one in-process member control plane and the typed client
// the driver uses for direct calls to it.
type coopd struct {
	id     string
	domain string
	url    string
	topo   *machine.Machine
	srv    *ctrlplane.Server
	cli    *client.Client
}

// env is what one process shares across epochs: the transport, the
// tracer, and the single http.Client every typed client is built on.
// The http.Client has no Timeout on purpose: a Timeout would start a
// timer goroutine per request.
type env struct {
	tr  *tracer
	net *transport
	hc  *http.Client
}

func newEnv() *env {
	tr := newTracer()
	net := newTransport(tr)
	return &env{tr: tr, net: net, hc: &http.Client{Transport: net}}
}

// newCtrlClient builds the typed coopd client. One attempt only: a
// retry would sleep a jittered backoff inside a timed region.
func (e *env) newCtrlClient(url string) *client.Client {
	return client.New(url, client.Config{HTTPClient: e.hc, MaxAttempts: 1})
}

// addCoopd starts a coopd for the topology and routes host id to it.
// The TTL is far beyond a run, so nothing is evicted mid-lap; the
// janitor goroutine is never started.
func (e *env) addCoopd(id, domain string, topo *machine.Machine) (*coopd, error) {
	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{Machine: topo, DefaultTTL: time.Hour})
	if err != nil {
		return nil, err
	}
	c := &coopd{id: id, domain: domain, url: "http://" + id, topo: topo, srv: srv}
	c.cli = e.newCtrlClient(c.url)
	e.net.hosts[id] = &host{handler: srv.Handler()}
	return c, nil
}

// fleetWorld is one fleetd over a set of member coopds.
type fleetWorld struct {
	e       *env
	members []*coopd
	byID    map[string]*coopd
	srv     *fleet.Server
	fc      *fleet.Client
}

// memberSpec describes one member to build.
type memberSpec struct {
	id, domain string
	topo       *machine.Machine
}

const fleetHost = "fleetd"

// newFleetWorld builds the members, the inventory over them and the
// fleetd, then polls once so every member is known and healthy. The
// world replaces whatever hosts the transport had.
func (e *env) newFleetWorld(specs []memberSpec, cfg fleet.ServerConfig) (*fleetWorld, error) {
	clear(e.net.hosts)
	w := &fleetWorld{e: e, byID: map[string]*coopd{}}
	inv := fleet.NewInventory(fleet.InventoryConfig{
		NewClient: e.newCtrlClient,
		FailAfter: 1,
	})
	for _, ms := range specs {
		c, err := e.addCoopd(ms.id, ms.domain, ms.topo)
		if err != nil {
			return nil, err
		}
		if err := inv.AddDomain(ms.id, ms.domain, c.url); err != nil {
			return nil, err
		}
		w.members = append(w.members, c)
		w.byID[ms.id] = c
	}
	cfg.Inventory = inv
	srv, err := fleet.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	w.srv = srv
	e.net.hosts[fleetHost] = &host{handler: srv.Handler(), fleetd: true}
	w.fc = fleet.NewClient("http://"+fleetHost, e.hc)
	w.poll()
	for _, m := range inv.Snapshot() {
		if !m.Healthy() {
			return nil, fmt.Errorf("member %s not healthy after the first poll", m.ID)
		}
	}
	return w, nil
}

// poll refreshes the inventory under a span of its own.
func (w *fleetWorld) poll() {
	w.e.tr.begin(spPoll)
	w.srv.Inventory().Poll(context.Background())
	w.e.tr.end()
}

// kill makes every member of the domain refuse requests.
func (w *fleetWorld) kill(domain string) (killed int) {
	for _, c := range w.members {
		if c.domain == domain {
			w.e.net.hosts[c.id].down = true
			killed++
		}
	}
	return killed
}
