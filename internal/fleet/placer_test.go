package fleet

import (
	"testing"

	"repro/internal/machine"
)

// emptyMembers builds n healthy paper-model members named a, b, c, ...
func emptyMembers(n int) []Member {
	out := make([]Member, n)
	for i := range out {
		out[i] = Member{ID: string(rune('a' + i)), Topology: machine.PaperModel()}
	}
	return out
}

// place decides and commits, simulating a placement sequence.
func place(t *testing.T, sc *Scorer, cands []*candidate, spec AppSpec) *Decision {
	t.Helper()
	d, c, err := sc.decide(spec, cands)
	if err != nil {
		t.Fatalf("placing %s: %v", spec.Name, err)
	}
	c.commit(spec, "")
	return d
}

// TestDecideGreedyMarginalPacking walks the fleet-sized Table I mix
// through three empty machines and checks every individual decision:
// memory-bound apps spread one per machine (equal +64 scores tie-break
// to the emptiest), the compute apps pair up with memory apps to fill
// nodes to peak (+256), and once every machine hosts the {mem, comp}
// pair, further memory apps pile onto one machine where their marginal
// is zero instead of costing -28 elsewhere.
func TestDecideGreedyMarginalPacking(t *testing.T) {
	sc := NewScorer()
	cands := new(candidateSet).reset(emptyMembers(3), true)
	want := []struct {
		spec   AppSpec
		member string
		score  float64
	}{
		{memSpec("mem-1"), "a", 64},
		{memSpec("mem-2"), "b", 64},
		{memSpec("mem-3"), "c", 64},
		{compSpec("comp-1"), "a", 256},
		{compSpec("comp-2"), "b", 256},
		{memSpec("mem-4"), "c", 0},
		{memSpec("mem-5"), "c", 0},
		{memSpec("mem-6"), "c", 0},
	}
	for _, w := range want {
		d := place(t, sc, cands, w.spec)
		if d.Member != w.member || !near(d.Score, w.score) {
			t.Fatalf("%s: placed on %s (score %g), want %s (~%g)",
				w.spec.Name, d.Member, d.Score, w.member, w.score)
		}
	}
}

// TestDecideAntiAffinity pins the NUMA-bad rule: a machine already
// hosting a NUMA-bad demand set is avoided by the next NUMA-bad app
// even when its raw score ties, and the rule softens — rather than
// rejects — when every machine already hosts one.
func TestDecideAntiAffinity(t *testing.T) {
	sc := NewScorer()
	cands := new(candidateSet).reset(emptyMembers(2), true)

	d := place(t, sc, cands, badSpec("bad-1"))
	if d.Member != "a" {
		t.Fatalf("first numa-bad app on %s, want a (tie to lowest ID)", d.Member)
	}
	d = place(t, sc, cands, badSpec("bad-2"))
	if d.Member != "b" {
		t.Fatalf("second numa-bad app on %s, want b (anti-affinity)", d.Member)
	}
	// Both machines now host a NUMA-bad set; the rule is soft, so a
	// third still places somewhere instead of erroring.
	if d, _, err := sc.decide(badSpec("bad-3"), cands); err != nil {
		t.Fatalf("soft anti-affinity rejected: %v", err)
	} else if d.Member == "" {
		t.Fatal("no member chosen")
	}
}

// TestDecideSkipsHomeNodeOutOfRange: a NUMA-bad app whose home node
// does not exist on any machine has no candidate.
func TestDecideSkipsHomeNodeOutOfRange(t *testing.T) {
	sc := NewScorer()
	spec := badSpec("bad")
	spec.HomeNode = 99
	if _, _, err := sc.decide(spec, new(candidateSet).reset(emptyMembers(2), true)); err != ErrNoCandidate {
		t.Fatalf("err = %v, want ErrNoCandidate", err)
	}
}

// TestCandidatesExcludeUnhealthyAndDraining: dead, topology-less, and
// draining members never receive placements.
func TestCandidatesExcludeUnhealthyAndDraining(t *testing.T) {
	members := emptyMembers(3)
	members[0].Dead = true
	members[1].Draining = true
	cands := new(candidateSet).reset(members, true)
	if len(cands) != 1 || cands[0].id != "c" {
		t.Fatalf("candidates = %v, want only c", cands)
	}
	members[2].Topology = nil // never polled successfully
	if got := new(candidateSet).reset(members, true); len(got) != 0 {
		t.Fatalf("%d candidates from an all-unplaceable fleet, want 0", len(got))
	}
	sc := NewScorer()
	if _, _, err := sc.decide(memSpec("mem"), nil); err != ErrNoCandidate {
		t.Fatalf("err = %v, want ErrNoCandidate", err)
	}
}

// TestDecideDomainSpreadTieBreak: two empty machines tie on score; with
// domain-spread on, the one whose failure domain hosts fewer of the
// app's cooperating group wins, overriding the lowest-ID rule. With
// spread off the decision is the classic one — the bit-identical
// baseline the equivalence-class cache depends on.
func TestDecideDomainSpreadTieBreak(t *testing.T) {
	members := emptyMembers(3)
	members[0].Domain, members[1].Domain, members[2].Domain = "rack1", "rack1", "rack2"
	// a (rack1) already hosts grp-1, so rack1 is the crowded domain; b
	// (rack1) and c (rack2) are empty and tie at +64.
	members[0].Apps = []PlacedApp{{ID: "x1", AppSpec: AppSpec{Name: "grp-1", AI: 0.5}}}

	off := NewScorer()
	d, _, err := off.decide(memSpec("grp-2"), new(candidateSet).reset(members, true))
	if err != nil {
		t.Fatal(err)
	}
	if d.Member != "b" {
		t.Fatalf("spread off: placed on %s, want b (lowest-ID tie-break)", d.Member)
	}

	on := NewScorer()
	on.DomainSpread = true
	var cs candidateSet
	d, c, err := on.decide(memSpec("grp-2"), cs.reset(members, true))
	if err != nil {
		t.Fatal(err)
	}
	if d.Member != "c" || !near(d.Score, 64) {
		t.Fatalf("spread on: placed on %s (score %g), want c in the empty domain (~64)", d.Member, d.Score)
	}
	// An app from a different group ignores grp's domain counts: b wins
	// again once c is committed (b empty at 64 beats everything).
	c.commit(memSpec("grp-2"), "")
	if d, _, err = on.decide(memSpec("other"), cs.out); err != nil {
		t.Fatal(err)
	}
	if d.Member != "b" {
		t.Fatalf("unrelated app placed on %s, want b (score wins before spread)", d.Member)
	}
}

// TestDecideRejectsInvalidSpec: a non-positive AI cannot be scored.
func TestDecideRejectsInvalidSpec(t *testing.T) {
	sc := NewScorer()
	if _, _, err := sc.decide(AppSpec{Name: "zero"}, new(candidateSet).reset(emptyMembers(1), true)); err == nil {
		t.Fatal("zero-AI spec accepted")
	}
}
