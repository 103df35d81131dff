// Package assoccache is a library for building and analyzing set-associative
// caches, reproducing Bender, Das, Farach-Colton and Tagliavini, "An
// Associativity Threshold Phenomenon in Set-Associative Caches" (SPAA 2023,
// arXiv:2304.04954).
//
// # The phenomenon
//
// An α-way set-associative cache of total size k partitions its slots into
// k/α buckets; a hash function assigns each item to one bucket, and each
// bucket runs its own replacement policy on α slots. Small α makes caches
// faster, simpler and more concurrent — but costs cache misses. The paper
// proves a sharp threshold at α = Θ(log k):
//
//   - For α = ω(log k), set-associative LRU matches fully associative LRU
//     (1-competitive with (1+Θ(√(log(k)/α)))-resource augmentation) on all
//     polynomially long request sequences, with high probability.
//   - For α = o(log k), no constant resource augmentation and no constant
//     competitive ratio rescue it: an oblivious adversary defeats the cache
//     with a sequence of length only O(k^1.01).
//   - On arbitrarily long sequences every fixed hash eventually loses, but
//     rehashing every poly(k) *misses* (full or incremental flushing)
//     restores (1+o(1))-competitiveness forever.
//
// # What the library provides
//
// The package exposes cache simulators (fully associative, set-associative,
// and set-associative with full-flush or incremental rehashing), the
// replacement policies the paper studies (LRU, LRU-K, LFU, FIFO, clock,
// reuse-distance, flush-when-full, random), Belady's offline OPT, 3C miss
// classification, and a thread-safe sharded cache for the paper's
// motivating concurrent-software-cache use case.
//
// The reproduction experiments E1–E19 (one per theorem/lemma/proposition;
// the registry is package internal/experiments, one E<n> function each)
// are runnable via `go run ./cmd/assocbench -run E1,E5` or the benchmarks
// in bench_test.go.
//
// # The cache service
//
// The motivating use case is also built out to a real service boundary: a
// networked sharded cache. internal/wire defines a compact length-prefixed
// binary protocol (GET/SET/DEL/METRICS, batched pipelining);
// internal/server serves a concurrent.Cache over TCP; cmd/cached is the
// daemon and cmd/cachecluster the closed-loop load driver, driven by
// internal/workload generators or recorded traces via internal/load. The
// concurrent cache supports *online* incremental rehashing — the Section
// 6.1 algorithm under per-bucket locks, so a live service can apply the
// paper's "rehash every poly(k) misses" schedule without a stop-the-world
// flush — and exposes per-shard stats plus a conflict-eviction counter
// (evictions that occurred while free slots existed elsewhere). The
// examples/server walkthrough and the internal/server benchmark sweep α end
// to end, making both sides of the threshold tradeoff (lock contention vs
// conflict misses) measurable over the wire.
//
// The service also scales horizontally. internal/cluster places keys on
// any number of cached nodes by rendezvous hashing and routes through
// pipelined connections to each member (cmd/cachecluster,
// examples/cluster). The placement is the rehash story one level up:
// where a single node redraws its intra-node hash and migrates bucket
// contents incrementally, the cluster redraws its inter-node key
// placement on membership change, and rendezvous hashing bounds the
// movement to ~R/n of the key space — with RemoveNode draining the
// departing node's residents to their new owners under live traffic, every
// key moved or accounted for by an eviction counter, just as the
// incremental rehash accounts for its forced evictions.
//
// Keyspaces can be replicated: with cluster.Options{Replicas: R} every key
// lives on its R highest-scoring members (rendezvous hashing), SETs fan
// out to all R (a configurable write quorum W must acknowledge), GETs fall
// back through the replica set on a miss or node failure, and stale
// replicas are re-written in the background (read repair, its own wire
// operation so servers count it apart from user traffic). A node crash
// then loses no reads — surviving owners keep serving, and RemoveNode
// retires the corpse without contacting it. R buys that availability at
// the price of R× resident memory and write fan-out, the cluster-level
// analogue of the paper's redundancy-versus-cost tradeoff. The load
// harness (internal/load) drives either topology in closed-loop mode or in
// an open-loop rate-paced mode whose latency percentiles are measured from
// intended send times, making them coordinated-omission-safe; it also
// reports the repair writes a replicated run generated.
//
// ARCHITECTURE.md holds the layer map, the migration invariants, and the
// full wire-protocol specification, which internal/wire's spec test keeps
// in lockstep with the implementation.
//
// # Quick start
//
//	cache, err := assoccache.NewSetAssociative(1<<14, assoccache.RecommendedAlpha(1<<14))
//	if err != nil { ... }
//	for _, block := range accesses {
//		if !cache.Access(block) {
//			// miss: fetch from backing store
//		}
//	}
//	fmt.Printf("miss ratio: %.3f\n", cache.Stats().MissRatio())
//
// See examples/ for runnable programs.
package assoccache
