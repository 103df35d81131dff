package cluster

import (
	"sync"
	"time"
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
	// Slots bounds resident entries; ≤ 0 disables the near-cache.
	Slots int
	// TTL bounds how long an entry serves reads without revalidation;
	// 0 means DefaultNearCacheTTL.
	TTL time.Duration
}

// nearEntry is one cached value: the payload (an owned copy), the version
// it was stored under, its serve deadline, and the clock reference bit.
type nearEntry struct {
	val     []byte
	ver     uint64
	expires time.Time
	used    bool
}

// nearCache is the bounded version-aware cache behind NearCacheOptions.
// Eviction is CLOCK over a ring of resident keys — one bit per entry, no
// per-access list surgery. Values are replaced, never mutated, so a
// slice handed out under the lock stays valid after release.
type nearCache struct {
	ttl   time.Duration
	slots int

	mu      sync.Mutex
	entries map[uint64]*nearEntry
	ring    []uint64 // resident keys, swept by the clock hand
	hand    int

	hits, misses, expired, stores, evicts uint64 // under mu; see snapshot
}

func newNearCache(o NearCacheOptions) *nearCache {
	if o.Slots <= 0 {
		return nil
	}
	ttl := o.TTL
	if ttl <= 0 {
		ttl = DefaultNearCacheTTL
	}
	return &nearCache{
		ttl:     ttl,
		slots:   o.Slots,
		entries: make(map[uint64]*nearEntry, o.Slots),
		ring:    make([]uint64, 0, o.Slots),
	}
}

// lookup serves key locally when a live (unexpired) entry exists.
func (n *nearCache) lookup(key uint64, now time.Time) ([]byte, uint64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e := n.entries[key]
	if e == nil || now.After(e.expires) {
		n.misses++
		if e != nil {
			n.expired++
		}
		return nil, 0, false
	}
	e.used = true
	n.hits++
	return e.val, e.ver, true
}

// storeLocked caches val (copied) at ver unless a strictly newer version
// is already resident — an older value never overwrites a newer one, the
// invariant that keeps observed versions monotonic. An equal version
// refreshes the serve deadline.
func (n *nearCache) storeLocked(key, ver uint64, val []byte, now time.Time) {
	e := n.entries[key]
	if e != nil {
		if ver < e.ver {
			return
		}
		if ver > e.ver {
			e.ver = ver
			e.val = append([]byte(nil), val...)
		}
		e.expires = now.Add(n.ttl)
		e.used = true
		n.stores++
		return
	}
	if len(n.entries) >= n.slots {
		n.evictLocked()
	}
	n.entries[key] = &nearEntry{
		val:     append([]byte(nil), val...),
		ver:     ver,
		expires: now.Add(n.ttl),
		used:    true,
	}
	n.ring = append(n.ring, key)
	n.stores++
}

// store is storeLocked behind the lock.
func (n *nearCache) store(key, ver uint64, val []byte, now time.Time) {
	n.mu.Lock()
	n.storeLocked(key, ver, val, now)
	n.mu.Unlock()
}

// reconcile merges a read's response (ver, val) for key with the resident
// entry and returns the fresher of the two — what the caller should
// deliver. A response at or below the resident version cannot replace
// the entry under version order, so the resident value is served and its
// TTL restarts: the TTL counts from the last such revalidation. An older
// answer is the norm after a plain replicated SET, whose owners each
// stamp their own version. Any other response is cached and served.
// Either way the caller delivers a value at least as new as anything
// this client has observed for the key.
func (n *nearCache) reconcile(key, ver uint64, val []byte, now time.Time) ([]byte, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e := n.entries[key]; e != nil && e.ver >= ver {
		e.expires = now.Add(n.ttl)
		e.used = true
		n.stores++
		return e.val, e.ver
	}
	n.storeLocked(key, ver, val, now)
	return n.entries[key].val, ver
}

// remove drops key's entry (a DEL, or a lost lease naming a fresher
// version this client has not seen). The ring slot is reclaimed lazily by
// the clock sweep.
func (n *nearCache) remove(key uint64) {
	n.mu.Lock()
	delete(n.entries, key)
	n.mu.Unlock()
}

// tombstone applies a remotely-learned delete (v8): drop key's entry iff
// the resident version is at or below the tombstone's. This is the same
// version-monotonic admit rule as storeLocked, inverted — a delete at ver
// supersedes any value ≤ ver, while an entry strictly newer than the
// tombstone proves a later write already superseded the delete and must
// keep serving. The ring slot is reclaimed lazily by the clock sweep.
func (n *nearCache) tombstone(key, ver uint64) {
	n.mu.Lock()
	if e := n.entries[key]; e != nil && e.ver <= ver {
		delete(n.entries, key)
	}
	n.mu.Unlock()
}

// evictLocked frees one slot: the clock hand sweeps the ring, clearing
// reference bits and evicting the first entry found unreferenced since
// its last sweep. Ring slots whose entries were removed out-of-band are
// compacted in passing.
func (n *nearCache) evictLocked() {
	for len(n.ring) > 0 {
		if n.hand >= len(n.ring) {
			n.hand = 0
		}
		k := n.ring[n.hand]
		e := n.entries[k]
		switch {
		case e == nil: // removed out-of-band; reclaim the slot
			n.ring[n.hand] = n.ring[len(n.ring)-1]
			n.ring = n.ring[:len(n.ring)-1]
		case e.used:
			e.used = false
			n.hand++
		default:
			delete(n.entries, k)
			n.ring[n.hand] = n.ring[len(n.ring)-1]
			n.ring = n.ring[:len(n.ring)-1]
			n.evicts++
			return
		}
	}
}

// NearCacheCounters is the near-cache's serving tally; see Snapshot.Near.
type NearCacheCounters struct {
	// Hits and Misses count lookup outcomes; Expired is the part of
	// Misses that found a resident entry past its deadline. Stores counts
	// values cached, replaced or revalidated; Evicts counts entries
	// displaced by the clock.
	Hits, Misses, Expired, Stores, Evicts uint64
	// Len is the current resident entry count.
	Len int
}

// snapshot reads the tally; a nil (disabled) near-cache reads as zeros.
func (n *nearCache) snapshot() NearCacheCounters {
	if n == nil {
		return NearCacheCounters{}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return NearCacheCounters{
		Hits: n.hits, Misses: n.misses, Expired: n.expired,
		Stores: n.stores, Evicts: n.evicts, Len: len(n.entries),
	}
}
