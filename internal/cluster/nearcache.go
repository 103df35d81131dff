package cluster

import (
	"sync/atomic"
	"time"

	"repro/internal/concurrent"
	"repro/internal/telemetry"
)

// DefaultNearCacheTTL bounds how long a near-cache entry serves reads
// without revalidation when Options.NearCache.TTL is zero. The TTL is the
// staleness budget a deployment grants the edge: within it a hot key's
// reads never leave the process. 100ms keeps a storming client from
// hammering the owner more than ~10×/s per key while staying well under
// human-visible staleness.
const DefaultNearCacheTTL = 100 * time.Millisecond

// NearCacheOptions configures the client-side near-cache (wire v7): a
// bounded in-process cache of recently read values, each stamped with the
// per-key version (v4) the cluster stored it under. Versions are what
// make the near-cache safe: an entry is just a replica whose staleness is
// detectable — any response carrying a newer version for the key
// supersedes it, and an older version can never overwrite it, so the
// versions one client observes for a key are monotonic even with the
// near-cache interposed.
type NearCacheOptions struct {
	// Slots bounds resident entries; ≤ 0 disables the near-cache. The
	// entries live in sets of min(Slots, 16), so Slots is rounded down to
	// a multiple of 16 when it exceeds 16 (1000 holds 992).
	Slots int
	// TTL bounds how long an entry serves reads without revalidation;
	// 0 means DefaultNearCacheTTL.
	TTL time.Duration
}

// nearAlpha is the near-cache's set size. Below 2¹⁶ slots it exceeds
// log₂ k, the side of the paper's threshold where set-associative LRU
// misses like fully associative LRU.
const nearAlpha = 16

// nearEntry is one cached value: the payload (an owned copy) and the
// version it was stored under, both fixed once the entry is stored, and
// its serve deadline. A revalidation moves the deadline under the bucket
// lock while lookups read it after releasing that lock, hence the atomic.
type nearEntry struct {
	val     []byte
	ver     uint64
	expires atomic.Int64 // nanoseconds since nearCache.epoch
}

// nearCache is the bounded version-aware cache behind NearCacheOptions:
// a concurrent.Cache, the store every node runs, holding *nearEntry, so a
// lookup locks only its key's set. Its hash is seeded per router.
type nearCache struct {
	ttl   time.Duration
	epoch time.Time // deadlines count from here, on the monotonic clock
	c     *concurrent.Cache

	expired, stores atomic.Uint64 // see snapshot
}

func newNearCache(o NearCacheOptions) *nearCache {
	if o.Slots <= 0 {
		return nil
	}
	ttl := o.TTL
	if ttl <= 0 {
		ttl = DefaultNearCacheTTL
	}
	return &nearCache{ttl: ttl, epoch: time.Now(), c: routerStore(o.Slots)}
}

// routerStore is the store behind the near-cache and the grant store: at
// most slots entries in sets of min(slots, nearAlpha). A clock-drawn seed,
// like the trace seed, gives each router its own hash: the paper's bounds
// hold for a hash drawn independently of the requests.
func routerStore(slots int) *concurrent.Cache {
	alpha := min(slots, nearAlpha)
	seed := telemetry.HashKey(uint64(time.Now().UnixNano()))
	c, err := concurrent.New(concurrent.Config{Capacity: slots / alpha * alpha, Alpha: alpha, Seed: seed})
	if err != nil {
		panic(err) // unreachable: alpha divides the capacity
	}
	return c
}

// lookup serves key locally when a live (unexpired) entry exists.
func (n *nearCache) lookup(key uint64, now time.Time) ([]byte, uint64, bool) {
	v, ok := n.c.Get(key)
	if !ok {
		return nil, 0, false
	}
	e := v.(*nearEntry)
	if int64(now.Sub(n.epoch)) > e.expires.Load() {
		n.expired.Add(1)
		return nil, 0, false
	}
	return e.val, e.ver, true
}

// reconcile merges a response (ver, val) for key — a read's answer or a
// write's acknowledged version — with the resident entry, keeps the
// fresher of the two and restarts its deadline, and returns it: what the
// caller should deliver. A response at or below the resident version
// cannot replace the entry under version order, and it proves the
// resident is the newest this client knows, so the resident's TTL
// restarts: the TTL counts from the last such revalidation. An older
// answer is the norm after a plain replicated SET, whose owners each
// stamp their own version. Any other response is cached (copied) and
// served. Either way the caller delivers a value at least as new as
// anything this client has observed for the key.
func (n *nearCache) reconcile(key, ver uint64, val []byte, now time.Time) ([]byte, uint64) {
	deadline := int64(now.Add(n.ttl).Sub(n.epoch))
	var kept *nearEntry
	n.c.Update(key, func(old interface{}, ok bool) (interface{}, bool) {
		if e, _ := old.(*nearEntry); ok && e.ver >= ver {
			kept = e
		} else {
			kept = &nearEntry{val: append([]byte(nil), val...), ver: ver}
		}
		kept.expires.Store(deadline)
		return kept, true
	})
	n.stores.Add(1)
	return kept.val, kept.ver
}

// store is reconcile for a write, whose caller already holds the value.
func (n *nearCache) store(key, ver uint64, val []byte, now time.Time) {
	n.reconcile(key, ver, val, now)
}

// remove drops key's entry (a DEL, or a lost lease naming a fresher
// version this client has not seen).
func (n *nearCache) remove(key uint64) {
	n.c.Delete(key)
}

// tombstone applies a remotely-learned delete (v8): drop key's entry iff
// the resident version is at or below the tombstone's. This is the same
// version-monotonic admit rule as reconcile, inverted — a delete at ver
// supersedes any value ≤ ver, while an entry strictly newer than the
// tombstone proves a later write already superseded the delete and must
// keep serving.
func (n *nearCache) tombstone(key, ver uint64) {
	n.c.DeleteIf(key, func(v interface{}) bool { return v.(*nearEntry).ver <= ver })
}

// NearCacheCounters is the near-cache's serving tally; see Snapshot.Near.
type NearCacheCounters struct {
	// Hits and Misses count lookup outcomes; Expired is the part of
	// Misses that found a resident entry past its deadline. Stores counts
	// values cached, replaced or revalidated; Evicts counts entries
	// displaced by their set's LRU.
	Hits, Misses, Expired, Stores, Evicts uint64
	// Len is the current resident entry count.
	Len int
}

// snapshot reads the tally; a nil (disabled) near-cache reads as zeros.
// An expired lookup is a hit to the store, so it moves from Hits to
// Misses here. Expired is read first: every lookup it counts has already
// counted its hit, so Hits cannot underflow.
func (n *nearCache) snapshot() NearCacheCounters {
	if n == nil {
		return NearCacheCounters{}
	}
	expired := n.expired.Load()
	s := n.c.Snapshot()
	return NearCacheCounters{
		Hits: s.Hits - expired, Misses: s.Misses + expired, Expired: expired,
		Stores: n.stores.Load(), Evicts: s.Evictions, Len: s.Len,
	}
}
