// Package cluster scales the cached service horizontally: a consistent-hash
// ring maps keys to member nodes, and Client routes requests over one
// pipelined wire connection per node, fanning STATS/REHASH out to all
// members.
//
// The ring is the cluster-level analogue of the paper's online rehash. A
// single node redraws its *intra-node* hash and migrates bucket contents
// incrementally (Section 6.1); the cluster redraws its *inter-node* key
// placement when membership changes, and consistent hashing bounds the key
// movement the same way incremental migration bounds per-miss work: adding
// or removing one of n nodes relocates only ~1/n of the key space instead
// of rehashing everything. RemoveNode completes the analogy by migrating
// the departing node's residents to their new owners under live traffic,
// with every key either moved or accounted for by an eviction counter —
// the same no-silent-loss discipline the incremental rehash keeps.
//
// Keyspaces can be replicated R-ways (Options.Replicas): a key's owners
// are the ring's first R distinct members clockwise from its hash
// (Ring.OwnersFor), writes fan out to all of them under a configurable
// quorum, reads fall back through the set on a miss or node failure, and
// background read repair regenerates stale or missing copies — so losing
// a node loses no reads, and retiring one (alive or crashed) needs no
// migration drain.
//
// Membership itself is epoch-versioned and self-converging: every server
// stores the latest topology pushed at it, stamps its epoch into every
// response, and serves it back via MEMBERS — so a router bootstraps from
// one seed address (Options.Bootstrap), detects membership changes by the
// epochs piggybacked on its normal traffic, and refreshes without polling
// or operator fan-out. AddNode additionally warms the newcomer up by
// streaming its share out of the existing owners (chunked KEYS +
// repair-SETs), killing the post-join miss burst. See ARCHITECTURE.md for
// the full replication, topology and wire-protocol story.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/hashfn"
)

// DefaultVNodes is the virtual-node count used when Options.VNodes is zero.
// At 128 points per member the peak-to-mean ownership imbalance across a
// handful of nodes stays within a few percent, while ring lookups remain a
// binary search over at most a few thousand points.
const DefaultVNodes = 128

// Ring is a consistent-hash ring with virtual nodes: each member owns
// VNodes pseudo-random points on a 64-bit circle, a key belongs to the
// first point clockwise from its hash, and a key's R-way replica set is
// the first R distinct members encountered on that walk. Virtual nodes
// keep ownership shares within a few percent of uniform and make the
// movement caused by one membership change proportional to the departing
// or arriving member's share. A Ring is not safe for concurrent use;
// Client guards its ring with a lock.
type Ring struct {
	vnodes int
	nodes  map[string]bool
	points []point // sorted by (hash, node)
}

type point struct {
	hash uint64
	node string
}

// NewRing returns a ring placing vnodes virtual points per member (0 means
// DefaultVNodes), populated with the given nodes.
func NewRing(vnodes int, nodes ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

// nodeHash folds a node name into a 64-bit seed via FNV-1a, then mixes in
// the replica index so virtual points scatter independently.
func nodeHash(node string, replica int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= prime64
	}
	return hashfn.Mix64(h ^ uint64(replica)*0x9e3779b97f4a7c15)
}

// Add inserts node's virtual points. Adding a present node is a no-op.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash: nodeHash(node, i), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Remove deletes node's virtual points. Removing an absent node is a no-op.
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Node returns the member owning key: the first virtual point clockwise
// from the key's hash. It reports false only on an empty ring.
func (r *Ring) Node(key uint64) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.search(key)].node, true
}

// search returns the index of the first virtual point clockwise from the
// key's hash. Caller has checked the ring is non-empty.
func (r *Ring) search(key uint64) int {
	h := hashfn.Mix64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return i
}

// OwnersFor returns key's replica set: the first n distinct members walking
// clockwise from the key's hash, primary first. OwnersFor(key, 1) is
// Node(key). If the ring has fewer than n members, every member is an
// owner. The result is nil only on an empty ring.
//
// Because each member's virtual points are interleaved with every other
// member's, the R-1 backup owners of a key are effectively an independent
// pseudo-random choice per key — replica load spreads instead of shadowing
// whole nodes, and membership changes perturb owner sets by at most one
// member per key.
func (r *Ring) OwnersFor(key uint64, n int) []string {
	if n = min(n, len(r.nodes)); n <= 0 {
		return nil
	}
	return r.appendOwners(make([]string, 0, n), key, n)
}

// appendOwners is OwnersFor appending into an empty dst, so the batch
// router can fill its pooled owner table without a slice per key. n must
// not exceed the member count.
func (r *Ring) appendOwners(dst []string, key uint64, n int) []string {
	start := r.search(key)
	for i := 0; len(dst) < n; i++ {
		node := r.points[(start+i)%len(r.points)].node
		if !contains(dst, node) {
			dst = append(dst, node)
		}
	}
	return dst
}

// contains reports whether owners already lists node. Replica sets are tiny
// (R is single-digit), so a linear scan beats a map.
func contains(owners []string, node string) bool {
	for _, o := range owners {
		if o == node {
			return true
		}
	}
	return false
}

// Nodes returns the members in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NumNodes returns the member count.
func (r *Ring) NumNodes() int { return len(r.nodes) }

// Sample estimates the primary-ownership share of each member by routing n
// pseudo-random keys (deterministic in seed) and counting owners. It is how
// tests bound the key movement of a membership change; cmd/cachecluster
// reports balance with SampleOwners so replicated shares still sum to 100%.
func (r *Ring) Sample(n int, seed uint64) map[string]int {
	out := make(map[string]int, len(r.nodes))
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
	out := make(map[string]int, len(r.nodes))
	s := hashfn.NewSeedSequence(seed)
	for i := 0; i < n; i++ {
		for _, node := range r.OwnersFor(s.Next(), replicas) {
			out[node]++
		}
	}
	return out
}

// Validate checks a vnodes/nodes configuration before dialing.
func Validate(vnodes int, nodes []string) error {
	if vnodes < 0 {
		return fmt.Errorf("cluster: vnodes %d must not be negative", vnodes)
	}
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
