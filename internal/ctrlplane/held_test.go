package ctrlplane_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/machine"
)

// heldLog serves every request in process through srv, the server of
// the moment (behind wrap, when set), and records what each heartbeat
// presented and how it was answered.
type heldLog struct {
	srv       *ctrlplane.Server
	wrap      func(http.Handler) http.Handler
	presented string // the last request's HeaderHeld
	status    int    // the last answer's status
	statuses  map[int]int
}

func (l *heldLog) RoundTrip(req *http.Request) (*http.Response, error) {
	l.presented = req.Header.Get(ctrlplane.HeaderHeld)
	h := l.srv.Handler()
	if l.wrap != nil {
		h = l.wrap(h)
	}
	resp, err := handlerTransport{h}.RoundTrip(req)
	l.status = resp.StatusCode
	l.statuses[resp.StatusCode]++
	return resp, err
}

// rawHeartbeat sends app id's heartbeat straight through s's handler,
// presenting tag ("" : nothing), and returns the status and the answer.
func rawHeartbeat(t *testing.T, s *ctrlplane.Server, id, tag string) (int, ctrlplane.HeartbeatResponse) {
	t.Helper()
	body, _ := json.Marshal(ctrlplane.HeartbeatRequest{ID: id})
	req := httptest.NewRequest(http.MethodPost, "/v1/heartbeat", bytes.NewReader(body))
	if tag != "" {
		req.Header.Set(ctrlplane.HeaderHeld, tag)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var hb ctrlplane.HeartbeatResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &hb); err != nil {
			t.Fatalf("heartbeat of %s answered %q: %v", id, rec.Body.Bytes(), err)
		}
	}
	return rec.Code, hb
}

// TestHeldHeartbeatMatchesUnconditional runs ServedOps with one typed
// client that heartbeats every live app after every op, presenting what
// it holds, and requires each answer to equal, field for field, the
// answer to a heartbeat that presents nothing. The caller owns what it
// gets: the test scribbles over every answer. An app that left fails
// its heartbeat, also when it presents the current version's tag, and
// the client's next heartbeat of it presents nothing. Then an app whose
// every heartbeat is answered 204 outlives its TTL several times over.
func TestHeldHeartbeatMatchesUnconditional(t *testing.T) {
	ctx := context.Background()
	tr := &heldLog{statuses: map[int]int{}}
	cli := client.New("http://coopd", client.Config{HTTPClient: &http.Client{Transport: tr}, MaxAttempts: 1})
	known := map[string]bool{} // apps the client has heartbeaten
	presented := 0
	ctrlplane.ServedOps(t, func(s *ctrlplane.Server, label string, _ []byte) {
		tr.srv = s
		apps, _ := s.Registry().Snapshot()
		live := map[string]bool{}
		for i := range apps {
			live[apps[i].ID] = true
		}
		inc, gen := s.Registry().Version()
		var gone []string
		for id := range known {
			if !live[id] {
				gone = append(gone, id)
			}
		}
		sort.Strings(gone)
		for _, id := range gone {
			if code, _ := rawHeartbeat(t, s, id, ctrlplane.StateETag(inc, gen)); code != http.StatusNotFound {
				t.Fatalf("%s: %s left, and its heartbeat presenting the current version was answered %d, want 404", label, id, code)
			}
			for try := 0; try < 2; try++ {
				if _, err := cli.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: id}); !client.IsUnknownApp(err) {
					t.Fatalf("%s: %s left, and its heartbeat answered %v, want unknown_app", label, id, err)
				}
				if try == 1 && tr.presented != "" {
					t.Fatalf("%s: the heartbeat of %s after a failed one presented %q, want nothing", label, id, tr.presented)
				}
			}
			delete(known, id)
		}
		for i := range apps {
			id := apps[i].ID
			got, err := cli.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: id})
			if tr.presented != "" {
				presented++
			}
			code, want := rawHeartbeat(t, s, id, "")
			if err != nil || code != http.StatusOK || !reflect.DeepEqual(*got, want) {
				t.Fatalf("%s: the holding client's heartbeat of %s answered %d, %v (%v), one presenting nothing %d at generation %d, %+v",
					label, id, tr.status, got, err, code, want.Generation, want.Allocation)
			}
			got.Generation++
			if a := got.Allocation; a != nil {
				a.Threads++
				a.PerNode[0]++
			}
			known[id] = true
		}
	})
	t.Logf("answers: %v; %d heartbeats presented a held answer", tr.statuses, presented)
	if tr.statuses[http.StatusOK] == 0 || tr.statuses[http.StatusNoContent] == 0 || presented == tr.statuses[http.StatusNoContent] {
		t.Errorf("answers %v, %d presented: the sequences do not exercise both answers and a held answer that no longer stands", tr.statuses, presented)
	}

	now := time.Unix(1_700_000_000, 0)
	srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{Machine: machine.PaperModel(), Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	tr.srv = srv
	reg, err := cli.Register(ctx, ctrlplane.RegisterRequest{Name: "steady", AI: 0.5, TTLMillis: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	for beat := 0; beat < 8; beat++ {
		if _, err := cli.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: reg.ID}); err != nil || (beat > 0 && tr.status != http.StatusNoContent) {
			t.Fatalf("heartbeat %d, %v after registering: %d, %v; want every one after the first held (204)", beat, time.Duration(beat)*6*time.Second, tr.status, err)
		}
		now = now.Add(6 * time.Second)
		if _, err := cli.Allocations(ctx); err != nil { // evicts the overdue
			t.Fatal(err)
		}
	}
	if srv.Registry().Len() != 1 {
		t.Errorf("an app whose heartbeats were all held was evicted within %v of a 10s TTL", 8*6*time.Second)
	}
}

// olderPeer puts a current coopd behind what an older peer does: every
// request loses its HeaderHeld (an older client sends none, an older
// coopd reads none), and with untag every answer loses its ETag (an
// older coopd sends none).
func olderPeer(untag bool) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r = r.Clone(r.Context()) // the request's header is the client's, to be read only
			r.Header.Del(ctrlplane.HeaderHeld)
			if untag {
				w = untagged{w}
			}
			h.ServeHTTP(w, r)
		})
	}
}

// untagged drops the ETag of the answer it writes.
type untagged struct{ http.ResponseWriter }

func (w untagged) WriteHeader(code int) {
	w.Header().Del("ETag")
	w.ResponseWriter.WriteHeader(code)
}

// TestHeldHeartbeatCompatibility: the conditional heartbeat needs no
// upgrade order. A current client of an older coopd, which sends no tag,
// holds nothing and presents nothing; an older client of a current
// coopd presents nothing. Either way every heartbeat is a full answer,
// equal to the one a heartbeat presenting nothing gets, across a change
// of version.
func TestHeldHeartbeatCompatibility(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		untag bool
	}{
		{"older coopd", true},
		{"older client", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := ctrlplane.NewServer(ctrlplane.ServerConfig{Machine: machine.PaperModel()})
			if err != nil {
				t.Fatal(err)
			}
			tr := &heldLog{srv: srv, wrap: olderPeer(tc.untag), statuses: map[int]int{}}
			cli := client.New("http://coopd", client.Config{HTTPClient: &http.Client{Transport: tr}, MaxAttempts: 1})
			var ids []string
			presented := 0
			for round, ai := range []float64{0.5, 0.5, 10, 0} {
				if ai > 0 { // a new version for every app
					reg, err := cli.Register(ctx, ctrlplane.RegisterRequest{Name: "app", AI: ai})
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, reg.ID)
				}
				for _, id := range ids {
					got, err := cli.Heartbeat(ctx, ctrlplane.HeartbeatRequest{ID: id})
					if tr.presented != "" {
						presented++
					}
					code, want := rawHeartbeat(t, srv, id, "")
					if err != nil || tr.status != http.StatusOK || code != http.StatusOK || !reflect.DeepEqual(*got, want) {
						t.Fatalf("round %d, %s: answered %d, %v (%v); want a full answer equal to %+v", round, id, tr.status, got, err, want)
					}
				}
			}
			if tc.untag && presented > 0 {
				t.Errorf("a client of a coopd that sends no tag presented a held answer %d times", presented)
			}
			if !tc.untag && presented == 0 {
				t.Error("the client never presented a held answer: nothing was stripped")
			}
			m, err := cli.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if m.Table.Held != 0 {
				t.Errorf("coopd answered %d heartbeats held through an older peer", m.Table.Held)
			}
		})
	}
}
