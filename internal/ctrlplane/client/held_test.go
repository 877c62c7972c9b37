package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ctrlplane"
)

// answer is one scripted reply to a heartbeat: a status with the tag
// and epoch it carries, or, with err set, a transport failure.
type answer struct {
	status     int
	tag, epoch string
	gen        uint64
	err        error
}

// script answers each request with the next answer and records what the
// request presented.
type script struct {
	answers   []answer
	presented []string
}

func (s *script) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	s.presented = append(s.presented, req.Header.Get(ctrlplane.HeaderHeld))
	a := s.answers[0]
	s.answers = s.answers[1:]
	if a.err != nil {
		return nil, a.err
	}
	hdr := http.Header{}
	if a.tag != "" {
		hdr.Set("ETag", a.tag)
	}
	if a.epoch != "" {
		hdr.Set(ctrlplane.HeaderEpoch, a.epoch)
	}
	body := ""
	switch {
	case a.status == http.StatusOK:
		body = fmt.Sprintf(`{"generation":%d,"allocation":{"id":"a-1","per_node":[1,2],"threads":3}}`, a.gen)
	case a.status == http.StatusNotFound:
		body = `{"error":"no such app","code":"unknown_app"}`
	case a.status >= 400:
		body = `{"error":"unavailable"}`
	}
	return &http.Response{StatusCode: a.status, Header: hdr, Body: io.NopCloser(strings.NewReader(body))}, nil
}

// TestHeartbeatHolds walks one client through every way a held answer
// is taken, returned and dropped: a tagged 200 is held and presented; a
// 204 to it returns a copy of it; a 200 without a tag, a 5xx, a 404, a
// transport failure, a 204 to a request that presented nothing and a
// deregistration each leave nothing held, so the next heartbeat
// presents nothing.
func TestHeartbeatHolds(t *testing.T) {
	ctx := context.Background()
	refused := errors.New("connection refused")
	for _, tc := range []struct {
		name    string
		answers []answer
		// gens is each heartbeat's answered generation, 0 for a failure;
		// presented is what each request presented, in order.
		gens       []uint64
		presented  []string
		deregister bool // between the first heartbeat and the second
	}{
		{"held and returned", []answer{{status: 200, tag: "t1", gen: 4}, {status: 204}, {status: 200, tag: "t2", gen: 5}, {status: 204}},
			[]uint64{4, 4, 5, 5}, []string{"", "t1", "t1", "t2"}, false},
		{"200 without a tag", []answer{{status: 200, tag: "t1", gen: 4}, {status: 200, gen: 5}, {status: 200, tag: "t2", gen: 5}},
			[]uint64{4, 5, 5}, []string{"", "t1", ""}, false},
		{"5xx", []answer{{status: 200, tag: "t1", gen: 4}, {status: 503}, {status: 200, tag: "t1", gen: 4}},
			[]uint64{4, 0, 4}, []string{"", "t1", ""}, false},
		{"unknown app", []answer{{status: 200, tag: "t1", gen: 4}, {status: 404}, {status: 404}},
			[]uint64{4, 0, 0}, []string{"", "t1", ""}, false},
		{"transport failure", []answer{{status: 200, tag: "t1", gen: 4}, {err: refused}, {status: 200, tag: "t1", gen: 4}},
			[]uint64{4, 0, 4}, []string{"", "t1", ""}, false},
		{"204 to nothing", []answer{{status: 204}, {status: 200, tag: "t1", gen: 4}},
			[]uint64{0, 4}, []string{"", ""}, false},
		{"deregistered", []answer{{status: 200, tag: "t1", gen: 4}, {status: 204}, {status: 200, tag: "t1", gen: 4}},
			[]uint64{4, 4}, []string{"", "", ""}, true}, // the 204 answers the DELETE
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &script{answers: tc.answers}
			c := New("http://coopd", Config{HTTPClient: &http.Client{Transport: s}, MaxAttempts: 1})
			for i, gen := range tc.gens {
				if tc.deregister && i == 1 {
					if err := c.Deregister(ctx, "a-1"); err != nil {
						t.Fatal(err)
					}
				}
				got, err := c.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: "a-1"})
				if gen == 0 {
					if err == nil {
						t.Fatalf("heartbeat %d answered %+v, want a failure", i, got)
					}
					if _, held := c.held.m["a-1"]; held {
						t.Fatalf("heartbeat %d failed (%v) and left an answer held", i, err)
					}
					continue
				}
				if err != nil || got.Generation != gen || got.Allocation == nil || !reflect.DeepEqual(got.Allocation.PerNode, []int{1, 2}) {
					t.Fatalf("heartbeat %d: %+v, %v; want generation %d on [1 2]", i, got, err, gen)
				}
				got.Allocation.PerNode[0] = 99 // the caller's own copy
			}
			if !reflect.DeepEqual(s.presented, tc.presented) {
				t.Errorf("requests presented %q, want %q", s.presented, tc.presented)
			}
		})
	}
}

// TestHeldCap: a client holds at most maxHeld answers; holding one more
// drops another.
func TestHeldCap(t *testing.T) {
	var h heldAnswers
	for i := 0; i <= maxHeld; i++ {
		h.put(fmt.Sprintf("app-%d", i), &heldAnswer{})
	}
	if len(h.m) != maxHeld {
		t.Errorf("holding %d answers, cap %d", len(h.m), maxHeld)
	}
	if h.get(fmt.Sprintf("app-%d", maxHeld)) == nil {
		t.Error("the answer held last was dropped")
	}
}

// TestGroupHeldHeartbeatFenced: through a group a 204 stands for the
// held answer's generation. While that is the fence's, it returns the
// held answer; once the group has seen a later generation in the same
// epoch, the 204 is a lagging replica's and is refused, which drops the
// held answer.
func TestGroupHeldHeartbeatFenced(t *testing.T) {
	ctx := context.Background()
	s := &script{answers: []answer{
		{status: 200, tag: "t1", epoch: "2", gen: 4},
		{status: 204, epoch: "2"},
		{status: 200, tag: "t2", epoch: "2", gen: 6}, // another app's answer raises the fence
		{status: 204, epoch: "2"},
		{status: 200, tag: "t2", epoch: "2", gen: 6},
	}}
	g := NewGroup(New("http://coopd", Config{HTTPClient: &http.Client{Transport: s}, MaxAttempts: 1}))
	for i := 0; i < 2; i++ {
		if hb, err := g.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: "a-1"}); err != nil || hb.Generation != 4 {
			t.Fatalf("heartbeat %d: %+v, %v; want generation 4", i, hb, err)
		}
	}
	if _, err := g.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: "b-1"}); err != nil {
		t.Fatal(err)
	}
	if hb, err := g.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: "a-1"}); !errors.Is(err, ErrStaleReplica) || g.Fenced() != 1 {
		t.Fatalf("a 204 standing for generation 4 after the fence saw 6: %+v, %v, %d fenced; want it refused", hb, err, g.Fenced())
	}
	if hb, err := g.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: "a-1"}); err != nil || hb.Generation != 6 {
		t.Fatalf("heartbeat after the refusal: %+v, %v; want a full answer at generation 6", hb, err)
	}
	if want := []string{"", "t1", "", "t1", ""}; !reflect.DeepEqual(s.presented, want) {
		t.Errorf("heartbeats presented %q, want %q", s.presented, want)
	}
}
