// Package cluster scales the cached service horizontally: rendezvous
// hashing maps keys to member nodes, and Client routes requests over a few
// lazily dialled pipelined wire connections (lanes) per member, fanning
// METRICS out to all members.
//
// The ring is the cluster-level analogue of the paper's online rehash. A
// single node redraws its *intra-node* hash and migrates bucket contents
// incrementally (Section 6.1); the cluster redraws its *inter-node* key
// placement when membership changes, and rendezvous hashing bounds the key
// movement the same way incremental migration bounds per-miss work: adding
// or removing one of n nodes relocates only the keys whose owner set it
// enters or leaves, ~R/n of the key space, instead of rehashing everything.
// RemoveNode completes the analogy by migrating the departing node's
// residents to their new owners under live traffic, with every key either
// moved or accounted for by an eviction counter — the same no-silent-loss
// discipline the incremental rehash keeps.
//
// Keyspaces can be replicated R-ways (Options.Replicas): a key's owners
// are the R members that score highest for it (Ring.OwnersFor), writes fan
// out to all of them under a configurable quorum, reads fall back through
// the set on a miss or node failure, and background read repair
// regenerates stale or missing copies — so losing a node loses no reads,
// and retiring one (alive or crashed) needs no migration drain.
//
// Membership itself is epoch-versioned and self-converging: every server
// stores the latest topology pushed at it, stamps its epoch into every
// response, and serves it back to an empty TOPOLOGY offer — so a router
// bootstraps from one seed address (Options.Bootstrap), detects membership
// changes by the epochs piggybacked on its normal traffic, and refreshes
// without polling or operator fan-out. AddNode additionally warms the
// newcomer up by streaming its share out of the existing owners (chunked
// KEYS + PUTs), killing the post-join miss burst. That warm-up, the R = 1
// drain and the anti-entropy sweep are one reconcile pass
// (reconcile.go). See ARCHITECTURE.md for the full replication, topology
// and wire-protocol story.
package cluster

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/hashfn"
)

// Ring places keys on members by rendezvous (highest-random-weight)
// hashing, Thaler and Ravishankar's alternative to the consistent-hash
// ring: a key scores hashfn.Mix64(key ^ seed) at each member, whose seed is
// a hash of its name, and its R-way replica set is the R highest-scoring
// members, primary first, ties broken by name. Every key so gets an
// independent, uniform R-subset of the members — the fully random
// placement the paper's bounds assume — every member holds 1/n of the keys,
// and a membership change moves exactly the keys whose top R the member
// enters or leaves. A Ring is not safe for concurrent use; Client guards
// its ring with a lock.
type Ring struct {
	members []member // sorted by name
}

// member is one node and its rendezvous seed.
type member struct {
	name string
	seed uint64
}

// NewRing returns a ring of the given nodes. The first argument is
// ignored; it stays only because the standing benchmark (bench/) passes
// one.
func NewRing(_ int, nodes ...string) *Ring {
	r := &Ring{}
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

// nodeSeed folds a node name into its rendezvous seed: FNV-1a, then Mix64.
func nodeSeed(node string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= prime64
	}
	return hashfn.Mix64(h)
}

// find returns node's index in the sorted member list, or where it would go.
func (r *Ring) find(node string) (int, bool) {
	return slices.BinarySearchFunc(r.members, node, func(m member, name string) int {
		return strings.Compare(m.name, name)
	})
}

// Add inserts node. Adding a present node is a no-op.
func (r *Ring) Add(node string) {
	if i, ok := r.find(node); !ok {
		r.members = slices.Insert(r.members, i, member{name: node, seed: nodeSeed(node)})
	}
}

// Remove deletes node. Removing an absent node is a no-op.
func (r *Ring) Remove(node string) {
	if i, ok := r.find(node); ok {
		r.members = slices.Delete(r.members, i, i+1)
	}
}

// Node returns the member owning key: the one scoring highest for it. It
// reports false only on an empty ring.
func (r *Ring) Node(key uint64) (string, bool) {
	var one [1]string
	if owners := r.appendOwners(one[:0], key, 1); len(owners) == 1 {
		return owners[0], true
	}
	return "", false
}

// OwnersFor returns key's replica set: the n members scoring highest for
// it, primary first. OwnersFor(key, 1) is Node(key). If the ring has fewer
// than n members, every member is an owner. The result is nil only on an
// empty ring.
//
// Scores at different members are independent per key, so the R-1 backup
// owners of a key are an independent pseudo-random choice — replica load
// spreads instead of shadowing whole nodes, and a membership change
// perturbs an owner set by at most one member.
func (r *Ring) OwnersFor(key uint64, n int) []string {
	if n = min(n, len(r.members)); n <= 0 {
		return nil
	}
	return r.appendOwners(make([]string, 0, n), key, n)
}

// appendOwners is OwnersFor appending into an empty dst, so the batch
// router can fill its pooled owner table without a slice per key. n must
// be positive. One pass over the members keeps the n best so far in score
// order; members come in name order and an equal score never displaces,
// so ties go to the lower name. The scores live on the stack, so up to 16
// owners it allocates nothing.
func (r *Ring) appendOwners(dst []string, key uint64, n int) []string {
	var buf [16]uint64
	scores := buf[:]
	if n > len(buf) {
		scores = make([]uint64, n)
	}
	for _, m := range r.members {
		s := hashfn.Mix64(key ^ m.seed)
		i := len(dst)
		if i < n {
			dst = append(dst, "")
		} else if s <= scores[n-1] {
			continue
		} else {
			i-- // the last owner drops out
		}
		for ; i > 0 && s > scores[i-1]; i-- {
			dst[i], scores[i] = dst[i-1], scores[i-1]
		}
		dst[i], scores[i] = m.name, s
	}
	return dst
}

// Nodes returns the members in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.members))
	for i, m := range r.members {
		out[i] = m.name
	}
	return out
}

// NumNodes returns the member count.
func (r *Ring) NumNodes() int { return len(r.members) }

// Sample estimates the primary-ownership share of each member by routing n
// pseudo-random keys (deterministic in seed) and counting owners. It is how
// tests bound the key movement of a membership change; cmd/cachecluster
// reports balance with SampleOwners so replicated shares still sum to 100%.
func (r *Ring) Sample(n int, seed uint64) map[string]int {
	out := make(map[string]int, len(r.members))
	s := hashfn.NewSeedSequence(seed)
	for i := 0; i < n; i++ {
		if node, ok := r.Node(s.Next()); ok {
			out[node]++
		}
	}
	return out
}

// SampleOwners estimates each member's share of replica-set slots: n
// pseudo-random keys are routed, every member of each key's R-way owner set
// is counted, and the counts sum to n × min(R, members). Dividing by that
// total reports per-replica-set balance — the right denominator when each
// key resides on R nodes, where a per-key denominator would overstate
// residency R-fold.
func (r *Ring) SampleOwners(n, replicas int, seed uint64) map[string]int {
	out := make(map[string]int, len(r.members))
	s := hashfn.NewSeedSequence(seed)
	for i := 0; i < n; i++ {
		for _, node := range r.OwnersFor(s.Next(), replicas) {
			out[node]++
		}
	}
	return out
}

// Validate checks a member list before dialing.
func Validate(nodes []string) error {
	if len(nodes) == 0 {
		return fmt.Errorf("cluster: no member nodes")
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return fmt.Errorf("cluster: empty node address")
		}
		if seen[n] {
			return fmt.Errorf("cluster: duplicate node %q", n)
		}
		seen[n] = true
	}
	return nil
}

// ValidateReplication checks an R/W replication configuration against the
// member count before dialing. replicas 0 means unreplicated (R = 1);
// quorum 0 means all replicas (W = R).
func ValidateReplication(replicas, quorum, members int) error {
	if replicas < 0 {
		return fmt.Errorf("cluster: replicas %d must not be negative", replicas)
	}
	if replicas > members {
		return fmt.Errorf("cluster: replicas %d exceeds %d members", replicas, members)
	}
	r := replicas
	if r == 0 {
		r = 1
	}
	if quorum < 0 {
		return fmt.Errorf("cluster: write quorum %d must not be negative", quorum)
	}
	if quorum > r {
		return fmt.Errorf("cluster: write quorum %d exceeds %d replicas", quorum, r)
	}
	return nil
}
