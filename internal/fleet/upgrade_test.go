package fleet

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// upgradeFleet starts n paper coopd machines named m0..m(n-1) behind a
// partition fabric and returns the polled inventory plus the fabric.
func upgradeFleet(t *testing.T, n int) (*Inventory, *faultinject.Partition, []string) {
	t.Helper()
	part := faultinject.NewPartition()
	inv := NewInventory(InventoryConfig{
		NewClient: fastClients(part.Transport(nil)),
		FailAfter: 1,
		Logf:      t.Logf,
	})
	hosts := make([]string, n)
	for i := 0; i < n; i++ {
		hs := newCoopd(t)
		hosts[i] = hostOf(t, hs.URL)
		id := string(rune('a' + i))
		if err := inv.Add(id, hs.URL); err != nil {
			t.Fatal(err)
		}
	}
	inv.Poll(context.Background())
	return inv, part, hosts
}

// TestUpgraderRollingDrain walks a three-machine upgrade end to end:
// machines drain one at a time in ID order, a machine still carrying
// apps holds the walk (Step waits), and each machine is undrained
// before the next one starts.
func TestUpgraderRollingDrain(t *testing.T) {
	ctx := context.Background()
	inv, _, _ := upgradeFleet(t, 3)

	// Machine b carries an app, so its drain must wait for the
	// rebalancer (here: the test) to move it off.
	cli, err := inv.Client("b")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := cli.Register(ctx, memSpec("tenant").RegisterRequest())
	if err != nil {
		t.Fatal(err)
	}
	inv.Poll(ctx)

	u := &Upgrader{Inv: inv, Logf: t.Logf}
	st, err := u.Start(nil, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != UpgradeRunning || len(st.Queue) != 3 {
		t.Fatalf("start status %+v, want running with 3 queued", st)
	}

	// a is empty: one Step drains it, the next hands it back.
	if msg := u.Step(ctx); !strings.Contains(msg, "draining a") {
		t.Fatalf("step 1 = %q, want draining a", msg)
	}
	if m, _ := inv.Member("a"); !m.Draining {
		t.Fatal("a not draining after step")
	}
	if msg := u.Step(ctx); !strings.Contains(msg, "drained a") {
		t.Fatalf("step 2 = %q, want drained a", msg)
	}
	if m, _ := inv.Member("a"); m.Draining {
		t.Fatal("a still draining after its drain converged")
	}

	// b holds an app: the walk parks until the app is gone.
	if msg := u.Step(ctx); !strings.Contains(msg, "draining b") {
		t.Fatalf("step 3 = %q, want draining b", msg)
	}
	if msg := u.Step(ctx); msg != "" {
		t.Fatalf("step with apps still on b acted: %q", msg)
	}
	if st := u.Status(); st.Current != "b" || st.State != UpgradeRunning {
		t.Fatalf("status while waiting %+v, want current=b running", st)
	}
	if err := cli.Deregister(ctx, reg.ID); err != nil {
		t.Fatal(err)
	}
	inv.Poll(ctx)
	if msg := u.Step(ctx); !strings.Contains(msg, "drained b") {
		t.Fatalf("step after b emptied = %q, want drained b", msg)
	}

	// c finishes the run.
	if msg := u.Step(ctx); !strings.Contains(msg, "draining c") {
		t.Fatalf("step = %q, want draining c", msg)
	}
	if msg := u.Step(ctx); !strings.Contains(msg, "complete") {
		t.Fatalf("step = %q, want completion", msg)
	}
	st = u.Status()
	if st.State != UpgradeDone || len(st.Done) != 3 || st.Current != "" {
		t.Fatalf("final status %+v, want done with 3 machines", st)
	}
	for _, id := range []string{"a", "b", "c"} {
		if m, _ := inv.Member(id); m.Draining {
			t.Fatalf("machine %s left draining after the run", id)
		}
	}
}

// TestUpgraderAbortsOnHealthFloor: draining one of two machines leaves
// a 0.5 placeable fraction, below a 0.9 floor — the controller aborts
// and rolls the drain back rather than compounding the capacity dip.
func TestUpgraderAbortsOnHealthFloor(t *testing.T) {
	ctx := context.Background()
	inv, _, _ := upgradeFleet(t, 2)
	u := &Upgrader{Inv: inv, Logf: t.Logf}
	if _, err := u.Start(nil, 0.9); err != nil {
		t.Fatal(err)
	}
	if msg := u.Step(ctx); !strings.Contains(msg, "draining a") {
		t.Fatalf("step = %q, want draining a", msg)
	}
	if msg := u.Step(ctx); !strings.Contains(msg, "aborted") {
		t.Fatalf("step = %q, want a floor abort", msg)
	}
	st := u.Status()
	if st.State != UpgradeAborted || !strings.Contains(st.Reason, "health floor") {
		t.Fatalf("status %+v, want aborted on the health floor", st)
	}
	if m, _ := inv.Member("a"); m.Draining {
		t.Fatal("abort did not undrain the current machine")
	}
}

// TestUpgraderAbortsWhenCurrentDies: a machine that dies mid-drain
// aborts the run — its apps are the rebalancer's machine-lost problem
// now, and an upgrade must not walk on through a degraded fleet.
func TestUpgraderAbortsWhenCurrentDies(t *testing.T) {
	ctx := context.Background()
	inv, part, hosts := upgradeFleet(t, 2)
	u := &Upgrader{Inv: inv, Logf: t.Logf}
	if _, err := u.Start([]string{"a"}, 0.1); err != nil {
		t.Fatal(err)
	}
	if msg := u.Step(ctx); !strings.Contains(msg, "draining a") {
		t.Fatalf("step = %q, want draining a", msg)
	}
	part.Isolate(hosts[0])
	inv.Poll(ctx)
	if m, _ := inv.Member("a"); !m.Dead {
		t.Fatal("a not dead after the partition")
	}
	if msg := u.Step(ctx); !strings.Contains(msg, "aborted") {
		t.Fatalf("step = %q, want an abort", msg)
	}
	if st := u.Status(); st.State != UpgradeAborted || !strings.Contains(st.Reason, "failed mid-drain") {
		t.Fatalf("status %+v, want aborted mid-drain", st)
	}
	// The failure hand-off: a dead machine's drain is NOT rolled back —
	// undraining would re-admit it as a placement target on revival,
	// racing the urgent evacuation of its own apps.
	if m, _ := inv.Member("a"); !m.Draining {
		t.Fatal("abort undrained the dead machine; drain must stay for the failure hand-off")
	}
	part.Heal(hosts[0])
	inv.Poll(ctx)
	if m, _ := inv.Member("a"); m.Dead || !m.Draining {
		t.Fatalf("revived machine dead=%v draining=%v, want alive and still draining", m.Dead, m.Draining)
	}
}

// TestUpgraderFailureHandsOffToEvacuation: a machine that dies mid-
// drain while carrying apps aborts the upgrade without undraining, and
// the very next rebalance round evacuates its apps as machine-lost —
// the upgrade steps aside and the failure machinery owns the recovery.
func TestUpgraderFailureHandsOffToEvacuation(t *testing.T) {
	ctx := context.Background()
	inv, part, hosts := upgradeFleet(t, 3)
	cli, err := inv.Client("a")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []AppSpec{memSpec("ten-1"), memSpec("ten-2")} {
		if _, err := cli.Register(ctx, spec.RegisterRequest()); err != nil {
			t.Fatal(err)
		}
	}
	inv.Poll(ctx)

	_, reb := planners(t, inv, ServerConfig{Logf: t.Logf})
	u := &Upgrader{Inv: inv, Logf: t.Logf}
	if _, err := u.Start([]string{"a"}, 0.1); err != nil {
		t.Fatal(err)
	}
	if msg := u.Step(ctx); !strings.Contains(msg, "draining a") {
		t.Fatalf("step = %q, want draining a", msg)
	}
	// The drain is still converging (apps on a) when the machine dies.
	part.Isolate(hosts[0])
	inv.Poll(ctx)
	if msg := u.Step(ctx); !strings.Contains(msg, "handing off") {
		t.Fatalf("step = %q, want the hand-off abort", msg)
	}

	plan, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 2 {
		t.Fatalf("hand-off round planned %d moves, want both stranded apps", len(plan.Moves))
	}
	for _, mv := range plan.Moves {
		if mv.Reason != ReasonMachineLost || mv.From != "a" {
			t.Fatalf("move %+v, want machine-lost from a", mv)
		}
	}
}

// TestUpgraderStartValidation covers the Start error surface: floors
// outside [0,1], unknown machines, and double starts.
func TestUpgraderStartValidation(t *testing.T) {
	inv, _, _ := upgradeFleet(t, 2)
	u := &Upgrader{Inv: inv}
	if _, err := u.Start(nil, 1.5); err == nil {
		t.Fatal("floor 1.5 accepted")
	}
	if _, err := u.Start([]string{"ghost"}, 0); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("unknown machine: got %v, want ErrUnknownMember", err)
	}
	if _, err := u.Start(nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Start(nil, 0); !errors.Is(err, ErrUpgradeRunning) {
		t.Fatalf("double start: got %v, want ErrUpgradeRunning", err)
	}
	if st := u.Abort("test over"); st.State != UpgradeAborted {
		t.Fatalf("abort state %q, want aborted", st.State)
	}
	// An aborted run can be restarted.
	if _, err := u.Start(nil, 0); err != nil {
		t.Fatalf("restart after abort: %v", err)
	}
}

// TestServerUpgradeEndpoint drives the fleetd /v1/fleet/upgrade surface:
// start, status, conflict on double start (409), unknown machines (404),
// and abort; plus the drain endpoint's typed-error mapping (404 unknown,
// 409 dead).
func TestServerUpgradeEndpoint(t *testing.T) {
	ctx := context.Background()
	inv, part, hosts := upgradeFleet(t, 2)
	srv, fc := newFleetServer(t, inv)

	st, err := fc.UpgradeStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != UpgradeIdle {
		t.Fatalf("initial state %q, want idle", st.State)
	}

	if _, err := fc.Upgrade(ctx, UpgradeRequest{Action: "start", Machines: []string{"ghost"}}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("upgrade of unknown machine: %v, want a 404", err)
	}
	st, err = fc.Upgrade(ctx, UpgradeRequest{Action: "start", HealthFloor: 0.3})
	if err != nil || st.State != UpgradeRunning {
		t.Fatalf("start: %+v, %v", st, err)
	}
	if _, err := fc.Upgrade(ctx, UpgradeRequest{Action: "start"}); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("double start: %v, want a 409", err)
	}

	// The server's control loop is not running (newFleetServer never
	// Starts it); tick the controller directly and observe over HTTP.
	srv.Upgrader().Step(ctx)
	st, err = fc.UpgradeStatus(ctx)
	if err != nil || st.Current != "a" {
		t.Fatalf("status mid-run: %+v, %v; want current=a", st, err)
	}

	st, err = fc.Upgrade(ctx, UpgradeRequest{Action: "abort"})
	if err != nil || st.State != UpgradeAborted {
		t.Fatalf("abort: %+v, %v", st, err)
	}
	if m, _ := inv.Member("a"); m.Draining {
		t.Fatal("abort over HTTP did not undrain the current machine")
	}

	// Drain endpoint typed errors: unknown is 404, dead is 409.
	if _, err := fc.Drain(ctx, "ghost", false); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("drain unknown: %v, want a 404", err)
	}
	part.Isolate(hosts[1])
	inv.Poll(ctx)
	if _, err := fc.Drain(ctx, "b", false); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("drain dead: %v, want a 409", err)
	}
	// Undraining a dead machine stays allowed (clears the flag for its
	// eventual revival).
	if _, err := fc.Drain(ctx, "b", true); err != nil {
		t.Fatalf("undrain dead: %v", err)
	}
}
