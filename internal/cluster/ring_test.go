package cluster

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/hashfn"
)

// TestRingDeterministicAndBalanced: a ring's placement depends on its
// member set alone, not the order the members joined in, and every member
// holds 1/n of the replica-set slots to within a point, at every R.
func TestRingDeterministicAndBalanced(t *testing.T) {
	const keys = 100_000
	for _, members := range []int{2, 3, 5, 8} {
		nodes := make([]string, members)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("node-%d", i)
		}
		reversed := slices.Clone(nodes)
		slices.Reverse(reversed)
		r1, r2 := NewRing(0, nodes...), NewRing(0, reversed...)
		for _, rep := range []int{1, 2, 3} {
			s := hashfn.NewSeedSequence(7)
			for i := 0; i < keys; i++ {
				key := s.Next()
				if o1, o2 := r1.OwnersFor(key, rep), r2.OwnersFor(key, rep); !slices.Equal(o1, o2) {
					t.Fatalf("%d members, R=%d: rings built in different orders disagree on key %d: %v vs %v",
						members, rep, key, o1, o2)
				}
			}
			share := r1.SampleOwners(keys, rep, 7)
			slots := keys * min(rep, members)
			for _, node := range nodes {
				frac := float64(share[node]) / float64(slots)
				if want := 1 / float64(members); math.Abs(frac-want) > 0.01 {
					t.Errorf("%d members, R=%d: %s holds %.2f%% of replica-set slots; want %.2f%% ± 1",
						members, rep, node, 100*frac, 100*want)
				}
			}
		}
	}
}

// TestRingBoundedMovement is the rendezvous contract, checked exactly:
// adding a member changes a key's R owners if and only if the newcomer
// enters its top R, and then only by swapping the newcomer in for the
// lowest-scoring owner; removing a member changes exactly the owner sets
// it was in, by dropping it and promoting the next member in line.
func TestRingBoundedMovement(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	before := NewRing(0, nodes...)
	added := NewRing(0, nodes...)
	added.Add("f:1")
	removed := NewRing(0, nodes...)
	removed.Remove("c:1")

	const n = 100_000
	for _, rep := range []int{1, 2, 3} {
		for i := 0; i < n; i++ {
			key := uint64(i) * 0x9e3779b97f4a7c15
			ob, oa, or := before.OwnersFor(key, rep), added.OwnersFor(key, rep), removed.OwnersFor(key, rep)
			if !slices.Contains(oa, "f:1") && !slices.Equal(oa, ob) {
				t.Fatalf("R=%d key %d: adding f:1 changed %v → %v without f:1 entering", rep, key, ob, oa)
			}
			if slices.Contains(oa, "f:1") && !slices.Equal(without(oa, "f:1"), ob[:rep-1]) {
				t.Fatalf("R=%d key %d: adding f:1 changed %v → %v, not by swapping f:1 in for the last owner", rep, key, ob, oa)
			}
			if !slices.Contains(ob, "c:1") && !slices.Equal(or, ob) {
				t.Fatalf("R=%d key %d: removing c:1 changed %v → %v though c:1 was not an owner", rep, key, ob, or)
			}
			if slices.Contains(ob, "c:1") && (!slices.Equal(or[:rep-1], without(ob, "c:1")) || slices.Contains(ob, or[rep-1])) {
				t.Fatalf("R=%d key %d: removing c:1 changed %v → %v, not by dropping it and promoting one newcomer", rep, key, ob, or)
			}
		}
	}

	added.Remove("f:1")
	for i := 0; i < n; i++ {
		key := uint64(i) * 0x9e3779b97f4a7c15
		ob, _ := before.Node(key)
		oa, _ := added.Node(key)
		if ob != oa {
			t.Fatalf("add+remove is not a no-op: key %d owned by %q then %q", key, ob, oa)
		}
	}
}

// without returns owners less node, in order.
func without(owners []string, node string) []string {
	return slices.DeleteFunc(slices.Clone(owners), func(o string) bool { return o == node })
}

// TestOwnersForDistinct: a key's replica set has exactly R distinct
// members, its head agrees with Node, and asking for more replicas than
// members returns every member.
func TestOwnersForDistinct(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	r := NewRing(0, nodes...)
	for _, rep := range []int{1, 2, 3, 5} {
		for key := uint64(0); key < 2000; key++ {
			owners := r.OwnersFor(key, rep)
			if len(owners) != rep {
				t.Fatalf("OwnersFor(%d, %d) returned %d owners", key, rep, len(owners))
			}
			seen := make(map[string]bool, rep)
			for _, o := range owners {
				if seen[o] {
					t.Fatalf("OwnersFor(%d, %d) repeats owner %q: %v", key, rep, o, owners)
				}
				seen[o] = true
			}
			if primary, _ := r.Node(key); owners[0] != primary {
				t.Fatalf("OwnersFor(%d)[0] = %q, Node = %q", key, owners[0], primary)
			}
		}
	}
	if got := r.OwnersFor(1, 99); len(got) != len(nodes) {
		t.Fatalf("OwnersFor(1, 99) returned %d owners, want all %d members", len(got), len(nodes))
	}
	if got := r.OwnersFor(1, 0); got != nil {
		t.Fatalf("OwnersFor(1, 0) = %v, want nil", got)
	}
	if got := NewRing(0).OwnersFor(1, 2); got != nil {
		t.Fatalf("empty ring OwnersFor = %v, want nil", got)
	}
	// The batch router's per-key lookup allocates nothing.
	buf := make([]string, 0, len(nodes))
	for _, rep := range []int{1, 2, 3, 5} {
		key := uint64(0)
		if allocs := testing.AllocsPerRun(100, func() {
			buf = r.appendOwners(buf[:0], key, rep)
			key++
		}); allocs != 0 {
			t.Errorf("appendOwners at R=%d allocates %.1f times per key, want 0", rep, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Node(42) }); allocs != 0 {
		t.Errorf("Node allocates %.1f times per key, want 0", allocs)
	}
}

// TestOwnersForFullMembership pins the R = n edge: every member is an
// owner of every key, exactly once, with the primary still in front — and
// R above n is clamped, never padded with repeats.
func TestOwnersForFullMembership(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1", "d:1"}
	r := NewRing(0, nodes...)
	for key := uint64(0); key < 2000; key++ {
		owners := r.OwnersFor(key, len(nodes))
		if len(owners) != len(nodes) {
			t.Fatalf("OwnersFor(%d, n) returned %d owners, want all %d", key, len(owners), len(nodes))
		}
		seen := make(map[string]bool, len(owners))
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("OwnersFor(%d, n) repeats %q: %v", key, o, owners)
			}
			seen[o] = true
		}
		if primary, _ := r.Node(key); owners[0] != primary {
			t.Fatalf("OwnersFor(%d, n)[0] = %q, Node = %q", key, owners[0], primary)
		}
		if clamped := r.OwnersFor(key, len(nodes)+3); len(clamped) != len(nodes) {
			t.Fatalf("OwnersFor(%d, n+3) returned %d owners, want clamp to %d", key, len(clamped), len(nodes))
		}
	}
	// The client-facing guard rejects R > n up front rather than clamping:
	// a configured replication factor the cluster cannot honor is an
	// operator error, not a silent degrade.
	if err := ValidateReplication(len(nodes)+1, 0, len(nodes)); err == nil {
		t.Error("ValidateReplication accepted R > member count")
	}
}

// TestOwnersForScoreTies builds a ring whose members share one seed, so
// they tie on every key (impossible to arrange through the public API, so
// the members are planted directly), and checks the pick still yields
// distinct owners in name order, the order ties are defined to break in.
func TestOwnersForScoreTies(t *testing.T) {
	r := &Ring{members: []member{{name: "a:1", seed: 7}, {name: "b:1", seed: 7}, {name: "c:1", seed: 7}}}
	for key := uint64(0); key < 500; key++ {
		if owners := r.OwnersFor(key, 3); !slices.Equal(owners, []string{"a:1", "b:1", "c:1"}) {
			t.Fatalf("OwnersFor(%d, 3) = %v, want [a:1 b:1 c:1] under a total tie", key, owners)
		}
		if owners := r.OwnersFor(key, 2); !slices.Equal(owners, []string{"a:1", "b:1"}) {
			t.Fatalf("OwnersFor(%d, 2) = %v, want [a:1 b:1] under a total tie", key, owners)
		}
	}
}

// TestOwnersForReassignmentOnAdd is the replicated rendezvous contract:
// joining an (n+1)-th member changes a key's R-way owner set only by
// inserting the newcomer, and does so for R/(n+1) of keys to within a
// point.
func TestOwnersForReassignmentOnAdd(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	const rep = 2
	before := NewRing(0, nodes...)
	after := NewRing(0, nodes...)
	after.Add("f:1")

	const n = 100_000
	changed := 0
	for i := 0; i < n; i++ {
		key := uint64(i) * 0x9e3779b97f4a7c15
		ob := before.OwnersFor(key, rep)
		oa := after.OwnersFor(key, rep)
		same := true
		for j := range ob {
			if ob[j] != oa[j] {
				same = false
			}
		}
		if same {
			continue
		}
		changed++
		// A changed set must contain the newcomer, and its other members
		// must all come from the old set: nothing reshuffles between
		// incumbents.
		if !slices.Contains(oa, "f:1") {
			t.Fatalf("key %d owner set changed %v → %v without involving the added node", key, ob, oa)
		}
		for _, o := range oa {
			if o != "f:1" && !slices.Contains(ob, o) {
				t.Fatalf("key %d gained incumbent owner %q not in old set %v", key, o, ob)
			}
		}
	}
	// Expect R/(n+1) = 2/6 of owner sets touched.
	frac := float64(changed) / n
	if want := float64(rep) / float64(len(nodes)+1); math.Abs(frac-want) > 0.01 {
		t.Errorf("adding a 6th node changed %.1f%% of %d-way owner sets; want near %.0f%%",
			100*frac, rep, 100*float64(rep)/float64(len(nodes)+1))
	}
}

// TestSampleOwnersBalance: replica-set slots divide evenly, and the
// counts sum to samples × R — the denominator per-replica-set balance
// reporting divides by.
func TestSampleOwnersBalance(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1", "d:1"}
	r := NewRing(0, nodes...)
	const n, rep = 50_000, 3
	share := r.SampleOwners(n, rep, 7)
	total := 0
	for _, node := range nodes {
		total += share[node]
		frac := float64(share[node]) / (n * rep)
		if math.Abs(frac-0.25) > 0.01 {
			t.Errorf("node %s holds %.1f%% of replica-set slots; want 25%% ± 1", node, 100*frac)
		}
	}
	if total != n*rep {
		t.Errorf("replica-set slots sum to %d, want %d×%d", total, n, rep)
	}
}

func TestValidateReplication(t *testing.T) {
	cases := []struct {
		replicas, quorum, members int
		ok                        bool
	}{
		{0, 0, 3, true}, // unreplicated default
		{1, 1, 1, true}, // R=W=1
		{2, 0, 3, true}, // W defaults to R
		{2, 1, 3, true}, // sloppy quorum
		{3, 3, 3, true}, // write-all
		{-1, 0, 3, false},
		{4, 0, 3, false}, // more replicas than members
		{2, 3, 3, false}, // quorum above R
		{0, 2, 3, false}, // quorum above implicit R=1
		{2, -1, 3, false},
	}
	for _, c := range cases {
		err := ValidateReplication(c.replicas, c.quorum, c.members)
		if (err == nil) != c.ok {
			t.Errorf("ValidateReplication(%d, %d, %d) = %v, want ok=%v",
				c.replicas, c.quorum, c.members, err, c.ok)
		}
	}
}

func TestRingEmptyAndMembership(t *testing.T) {
	r := NewRing(4)
	if _, ok := r.Node(1); ok {
		t.Fatal("empty ring claimed an owner")
	}
	r.Add("a:1")
	r.Add("a:1") // duplicate add is a no-op
	if got := r.NumNodes(); got != 1 {
		t.Fatalf("NumNodes = %d, want 1", got)
	}
	if owner, ok := r.Node(42); !ok || owner != "a:1" {
		t.Fatalf("single-node ring routed to %q, %v", owner, ok)
	}
	r.Remove("missing") // absent remove is a no-op
	r.Remove("a:1")
	if _, ok := r.Node(1); ok || r.NumNodes() != 0 {
		t.Fatal("ring not empty after removing its only member")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		nodes []string
		ok    bool
	}{
		{[]string{"a:1"}, true},
		{[]string{"a:1", "b:1"}, true},
		{nil, false},
		{[]string{""}, false},
		{[]string{"a:1", "a:1"}, false},
	}
	for _, c := range cases {
		err := Validate(c.nodes)
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v) = %v, want ok=%v", c.nodes, err, c.ok)
		}
	}
}

// BenchmarkOwnersFor prices the batch router's per-key owner lookup,
// appendOwners into a reused slice, by member count and R. R = 1 is Node.
func BenchmarkOwnersFor(b *testing.B) {
	for _, members := range []int{3, 8, 32} {
		r := NewRing(0)
		for i := 0; i < members; i++ {
			r.Add(fmt.Sprintf("node-%d", i))
		}
		for _, rep := range []int{1, 2} {
			b.Run(fmt.Sprintf("members=%d/R=%d", members, rep), func(b *testing.B) {
				owners, key := make([]string, 0, rep), uint64(0)
				for b.Loop() {
					owners = r.appendOwners(owners[:0], key, rep)
					key += 0x9e3779b97f4a7c15
				}
			})
		}
	}
}
