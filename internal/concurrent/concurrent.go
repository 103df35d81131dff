// Package concurrent implements the paper's motivating software use case
// (Section 1, citing Adas et al. and RocksDB's block cache): a concurrent
// key-value cache built from a set-associative layout. Because the buckets
// of a set-associative cache are independent, each can be guarded by its own
// mutex; a request only contends with requests that hash to the same bucket,
// so throughput scales with the number of buckets. This is exactly the
// "smaller α, bigger benefits" side of the paper's tradeoff — and the
// library's miss-cost analysis (experiments E1/E2) quantifies the other
// side.
//
// A bucket is the paper's set taken literally: α slots in flat arrays (keys,
// values, recency links, one awaiting-remap bit each), the same layout for
// every α — see the bucket type. A Get hit hashes once, locks one bucket,
// scans its keys, reads one value and relinks one slot; it allocates nothing
// and writes no cache line that another bucket's requests read. Inserts,
// evictions and deletes reuse slots in place and allocate nothing either.
// Replacement is the paper's α-way LRU and nothing else: a bucket's recency
// list is the only victim chooser, and the victim is always its tail.
//
// The cache also supports *online* incremental rehashing: the ⟨LRU⟩IF
// algorithm of Section 6.1, ported from internal/core to the concurrent
// setting. A rehash draws a fresh indexing hash while the old one stays
// live; items migrate to their new bucket lazily when touched, and every
// miss force-evicts a bounded number of not-yet-remapped items, so no
// stop-the-world flush is ever needed and no entry is dropped except by
// eviction. Rehash *initiation* does pause concurrent operations briefly —
// marking every resident as awaiting remapping takes the cache-wide write
// lock while it fills each bucket's bit set — but the migration itself runs
// under per-bucket locks amortized across subsequent traffic. At most two
// hash functions are live at any time.
package concurrent

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hashfn"
	"repro/internal/trace"
)

// Cache is a thread-safe set-associative key-value cache with per-bucket
// locking and optional online rehashing. The zero value is not usable;
// call New.
type Cache struct {
	buckets []bucket
	alpha   int
	seeds   *hashfn.SeedSequence

	// pair is the atomically published {hasher, oldHasher} snapshot. When no
	// migration is in flight (pair.old == nil) operations run a lock-free
	// fast path: load the pair, lock the one target bucket, and re-validate
	// that the pair is unchanged. Rehash publishes its new pair *before* the
	// marking pass touches any bucket lock, so a fast-path operation that
	// re-validates successfully under its bucket lock is guaranteed either
	// to run entirely before the rehash is visible (and its entries are then
	// marked by the pass like any other resident) or to detect the swap and
	// retry on the slow path. Reads therefore touch no shared cache line
	// beyond their own bucket while the cache is stable: the pair is only
	// loaded, and a hit is counted in its bucket, never cache-wide.
	pair atomic.Pointer[hasherPair]

	// rehashMu serializes the slow path against rehash initiation and
	// migration completion. Operations take the read side only while a
	// migration is in flight (or when fast-path validation fails); Rehash
	// and maybeFinishMigration take the write side.
	rehashMu sync.RWMutex

	// migrating mirrors oldHasher != nil so the post-operation fast path can
	// check for migration completion without taking rehashMu.
	migrating atomic.Bool
	// pending counts items still resident under the old hash: the sum of
	// the buckets' nOld.
	pending atomic.Int64
	// sweepCursor is the next bucket index the forced-eviction sweep visits.
	sweepCursor atomic.Int64

	rehashEveryMisses uint64

	// Hits, misses, evictions and conflict evictions are counted per bucket
	// and summed on demand. misses counts cache-wide too, but only while
	// RehashEveryMisses is set: the schedule runs off an exact total, and
	// without one nobody pays for a write every core shares.
	misses         atomic.Uint64
	flushEvictions atomic.Uint64
	rehashes       atomic.Uint64
	// occupancy tracks the total entry count so evictions can be classified
	// as conflict (free slots existed elsewhere) without a global lock.
	occupancy atomic.Int64

	// release, when set, is told of every value the cache stops holding
	// (see SetRelease).
	release func(v interface{})
}

// hasherPair is one immutable snapshot of the live indexing function(s).
// old is non-nil exactly while an incremental migration is in progress:
// residents placed by old carry their bucket's awaiting-remap bit, and a
// key lives in at most one slot across the two hashes' buckets.
type hasherPair struct {
	hasher *hashfn.Random
	old    *hashfn.Random
}

// Config describes a concurrent cache.
type Config struct {
	// Capacity is the total number of entries k.
	Capacity int
	// Alpha is the bucket size α; smaller α means more buckets and less
	// lock contention, at the paging cost the paper characterizes. Alpha
	// must divide Capacity. The paper proves that α = ω(log k) matches
	// full associativity's hit rate and α = o(log k) does not.
	Alpha int
	// Seed drives the indexing hash and the rehash seed schedule.
	Seed uint64
	// RehashEveryMisses, when nonzero, starts an online incremental rehash
	// every RehashEveryMisses Get misses — the paper's "rehash every poly(k)
	// misses" schedule (Section 6), which keeps the cache competitive on
	// arbitrarily long request sequences. DefaultEveryMisses derives the
	// paper-guided value from the capacity. It is the only automatic
	// trigger; Rehash starts a rehash by hand.
	RehashEveryMisses uint64
}

// New builds a concurrent cache.
func New(cfg Config) (*Cache, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("concurrent: capacity %d must be positive", cfg.Capacity)
	}
	if cfg.Alpha <= 0 || cfg.Alpha > cfg.Capacity || cfg.Capacity%cfg.Alpha != 0 {
		return nil, fmt.Errorf("concurrent: alpha %d must divide capacity %d", cfg.Alpha, cfg.Capacity)
	}
	n := cfg.Capacity / cfg.Alpha
	c := &Cache{
		buckets:           make([]bucket, n),
		seeds:             hashfn.NewSeedSequence(cfg.Seed),
		alpha:             cfg.Alpha,
		rehashEveryMisses: cfg.RehashEveryMisses,
	}
	c.pair.Store(&hasherPair{hasher: hashfn.NewRandom(c.seeds.Next(), n)})
	// One array per slot column for the whole cache; bucket i owns the
	// window [i·α, (i+1)·α) of each.
	a, words := cfg.Alpha, (cfg.Alpha+63)/64
	keys := make([]trace.Item, cfg.Capacity)
	vals := make([]interface{}, cfg.Capacity)
	order := make([]link, cfg.Capacity)
	old := make([]uint64, n*words)
	for i := range c.buckets {
		b := &c.buckets[i]
		b.head, b.tail = none, none
		b.keys = keys[i*a : (i+1)*a : (i+1)*a]
		b.vals = vals[i*a : (i+1)*a : (i+1)*a]
		b.order = order[i*a : (i+1)*a : (i+1)*a]
		b.old = old[i*words : (i+1)*words : (i+1)*words]
		if a > scanMax {
			b.index = make(map[trace.Item]int32, a)
		}
	}
	return c, nil
}

// DefaultEveryMisses returns the paper-guided automatic rehash period for a
// cache of capacity k: k·⌈log₂ k⌉ misses. Section 6 requires only that the
// period be poly(k); the k log k choice is the smallest natural ω(k) period,
// which amortizes the O(k) worst-case cost of one migration to o(1) per
// miss while still rehashing often enough that no fixed hash function is
// exposed to the adversary's Θ(k^1.01)-length defeating sequence between
// flushes.
func DefaultEveryMisses(k int) uint64 {
	if k <= 1 {
		return 1
	}
	log := 0
	for n := k - 1; n > 0; n >>= 1 {
		log++
	}
	return uint64(k) * uint64(log)
}

// access is one operation's hold on the bucket(s) its key can live in: bn
// under the live hash and, while a migration is in flight, bo under the
// previous one (bo == bn otherwise).
type access struct {
	bn, bo *bucket
	// slow reports that rehashMu.RLock is held; migrating, possible only
	// then, that the pair had an old hasher.
	slow, migrating bool
}

// enter locks the bucket(s) item can live in. While the cache is stable
// that is the single-bucket fast path — no rehashMu, made safe by
// re-validating the pair under the bucket lock (see the pair field).
// Otherwise it takes rehashMu.RLock, under which the pair is stable, and
// locks both buckets in index order.
func (c *Cache) enter(item trace.Item) access {
	if p := c.pair.Load(); p.old == nil {
		b := &c.buckets[p.hasher.Bucket(item)]
		b.mu.Lock()
		if c.pair.Load() == p {
			return access{bn: b, bo: b}
		}
		b.mu.Unlock()
	}
	c.rehashMu.RLock()
	p := c.pair.Load()
	nb := p.hasher.Bucket(item)
	ob := nb
	if p.old != nil {
		ob = p.old.Bucket(item)
	}
	// Index order avoids deadlock between operations whose old/new buckets
	// cross.
	c.buckets[min(nb, ob)].mu.Lock()
	if ob != nb {
		c.buckets[max(nb, ob)].mu.Lock()
	}
	return access{bn: &c.buckets[nb], bo: &c.buckets[ob], slow: true, migrating: p.old != nil}
}

// leave releases what enter took. A Get miss during a migration owes its
// forced evictions, which run between the bucket locks and rehashMu.
func (c *Cache) leave(a access, missed bool) {
	a.bn.mu.Unlock()
	if a.bo != a.bn {
		a.bo.mu.Unlock()
	}
	if !a.slow {
		return
	}
	if missed && a.migrating {
		c.migrateStep()
	}
	c.rehashMu.RUnlock()
	c.maybeFinishMigration()
}

// find locates item: in its bucket under the live hash, else — still
// awaiting remap — in its bucket under the previous one. It returns none
// with bn when item is not cached.
func (a access) find(item trace.Item) (*bucket, int32) {
	if i := a.bn.find(item); i != none || a.bo == a.bn {
		return a.bn, i
	}
	if i := a.bo.find(item); i != none {
		return a.bo, i
	}
	return a.bn, none
}

// Get returns the value cached under key, if any, updating recency. During a
// migration a hit on a not-yet-remapped item moves it to its new bucket, and
// a miss force-evicts one old resident (Section 6.1).
func (c *Cache) Get(key uint64) (interface{}, bool) {
	a, v, ok := c.lookup(key)
	if !ok {
		return nil, false
	}
	c.leave(a, false)
	return v, true
}

// View is Get for a value that may be read only under its set's lock: on a
// hit it calls fn with the value before the lock is released, and reports
// whether it did. Recency and the hit and miss counts move exactly as under
// Get. fn must not call back into the cache; a value whose owner recycles
// it on release (SetRelease) is valid only until fn returns.
func (c *Cache) View(key uint64, fn func(v interface{})) bool {
	a, v, ok := c.lookup(key)
	if !ok {
		return false
	}
	fn(v)
	c.leave(a, false)
	return true
}

// lookup is the shared part of Get and View. A miss is counted and its
// locks released; a hit is counted and touched — moved to its new bucket
// when it still awaits remap, which may evict from there (Section 6.1) —
// and returned with the locks still held, for the caller to leave.
func (c *Cache) lookup(key uint64) (access, interface{}, bool) {
	item := trace.Item(key)
	a := c.enter(item)
	b, i := a.find(item)
	if i == none {
		a.bn.misses++
		c.leave(a, true)
		if c.rehashEveryMisses > 0 && c.misses.Add(1)%c.rehashEveryMisses == 0 {
			// Initiate asynchronously so the request that trips the schedule
			// does not absorb the marking pause itself. At most one
			// goroutine per period crossing; Rehash serializes internally.
			go c.Rehash()
		}
		return a, nil, false
	}
	v := b.vals[i]
	if b == a.bn {
		c.touchLocked(b, i)
	} else {
		// A move, not a release: the value stays in the cache.
		c.removeLocked(b, i)
		c.storeLocked(a.bn, none, item, v)
	}
	a.bn.hits++
	return a, v, true
}

// Put caches value under key, evicting from the target bucket if needed.
// It returns the evicted key and whether an eviction happened.
func (c *Cache) Put(key uint64, value interface{}) (evictedKey uint64, evicted bool) {
	_, evictedKey, evicted = c.Update(key, func(interface{}, bool) (interface{}, bool) { return value, true })
	return evictedKey, evicted
}

// touchLocked records a request for the resident in slot i of b, which
// also remaps it if it was waiting. Caller holds b.mu.
func (c *Cache) touchLocked(b *bucket, i int32) {
	if b.clearOld(i) {
		c.pending.Add(-1)
	}
	b.touch(i)
}

// removeLocked removes the resident in slot i of b without releasing its
// value: the caller moves or releases it. Caller holds b.mu.
func (c *Cache) removeLocked(b *bucket, i int32) {
	if b.remove(i) {
		c.pending.Add(-1)
	}
	c.occupancy.Add(-1)
}

// dropLocked removes the resident in slot i of b and releases its value.
// Caller holds b.mu.
func (c *Cache) dropLocked(b *bucket, i int32) {
	c.releaseLocked(b.vals[i])
	c.removeLocked(b, i)
}

// releaseLocked hands v, which the cache no longer holds, to the release
// function, if one is installed. Caller holds the lock of v's bucket.
func (c *Cache) releaseLocked(v interface{}) {
	if c.release != nil {
		c.release(v)
	}
}

// SetRelease installs fn as the cache's release function: it is called
// once for every value the cache stops holding — overwritten, evicted by
// an insert, force-evicted by a migration or deleted — and never for a
// value a migration moves to its new bucket. Storing a value over itself
// releases it. fn runs under the lock of the value's bucket, so a value
// it recycles is never read after it: a reader holds the same lock
// (View). fn must be cheap, must not block and must not call back into
// the cache. Install it before the cache is shared; nil removes it.
func (c *Cache) SetRelease(fn func(v interface{})) { c.release = fn }

// storeLocked stores item→value in bucket b, whose mutex the caller holds,
// handling eviction bookkeeping; i is item's slot in b, or none. It returns
// the victim, if the insert evicted one.
func (c *Cache) storeLocked(b *bucket, i int32, item trace.Item, value interface{}) (victim trace.Item, didEvict bool) {
	if i != none {
		c.releaseLocked(b.vals[i])
		b.vals[i] = value
		c.touchLocked(b, i)
		return 0, false
	}
	nOld := b.nOld
	if b.full() {
		c.releaseLocked(b.vals[b.tail]) // the insert's victim
	}
	victim, didEvict = b.insert(item, value)
	if !didEvict {
		c.occupancy.Add(1)
	} else {
		b.evictions++
	}
	// Occupancy is unchanged by an eviction (one out, one in); if the cache
	// as a whole still has free slots, this eviction is a pure conflict
	// eviction — the associativity restriction, not capacity, caused it.
	if didEvict && c.occupancy.Load() < int64(c.Capacity()) {
		b.conflictEvictions++
	}
	// An evicted tail may have been awaiting remap.
	if b.nOld != nOld {
		c.pending.Add(int64(b.nOld - nOld))
	}
	return victim, didEvict
}

// Update atomically reads and conditionally replaces the value cached
// under key: fn receives the current value (nil, false when absent) while
// the owning bucket's lock is held and returns the value to store plus
// whether to store it at all. A false second result leaves the cache
// untouched — the read-check-write is one critical section, so no
// concurrent Put or Update can interleave between fn's decision and the
// store. This is the primitive behind the server's versioned writes: a
// compare on the stored version and the conditional overwrite must be
// atomic or the lost-update race they exist to kill reopens at bucket
// scale.
//
// fn must not call back into the cache, and Update reserves the right to
// invoke it more than once (an implementation may retry after a concurrent
// rehash), so it must behave as a pure function of its argument. Update
// returns whether a store happened and, when it did, Put's eviction
// report.
func (c *Cache) Update(key uint64, fn func(old interface{}, present bool) (interface{}, bool)) (stored bool, evictedKey uint64, evicted bool) {
	item := trace.Item(key)
	a := c.enter(item)
	b, i := a.find(item)
	var old interface{}
	if i != none {
		old = b.vals[i]
	}
	var victim trace.Item
	v, stored := fn(old, i != none)
	if stored {
		if b != a.bn {
			// Overwrite of a non-remapped item: drop the stale resident and
			// store fresh in the new bucket.
			c.dropLocked(b, i)
			i = none
		}
		victim, evicted = c.storeLocked(a.bn, i, item, v)
	}
	c.leave(a, false)
	return stored, uint64(victim), evicted
}

// GetOrLoad returns the cached value for key, or runs load exactly once (per
// miss) to produce and cache it. The load runs outside the bucket lock, so
// concurrent misses for the same key may race and both load; the last writer
// wins, which is the usual contract of lock-free-read caches.
func (c *Cache) GetOrLoad(key uint64, load func() (interface{}, error)) (interface{}, error) {
	if v, ok := c.Get(key); ok {
		return v, nil
	}
	v, err := load()
	if err != nil {
		return nil, err
	}
	c.Put(key, v)
	return v, nil
}

// Delete removes key, reporting whether it was present.
func (c *Cache) Delete(key uint64) bool {
	return c.DeleteIf(key, func(interface{}) bool { return true })
}

// Rehash begins an online incremental rehash: a fresh indexing hash is
// drawn, every current resident is marked as awaiting remapping, and the
// migration proceeds under live traffic — hits move items to their new
// bucket, misses force-evict stragglers. If a previous migration is still in
// progress it is force-completed first, so at most two hash functions are
// ever live (the Section 6.1 invariant "every rehash finishes before the
// next one begins").
//
// Rehash blocks all cache operations for the duration of the marking pass
// (one bit-fill per bucket under the write lock, no allocation); the
// migration that follows is fully concurrent. See the package comment.
func (c *Cache) Rehash() {
	c.rehashMu.Lock()
	defer c.rehashMu.Unlock()
	p := c.pair.Load()
	if p.old != nil {
		for i := range c.buckets {
			b := &c.buckets[i]
			b.mu.Lock()
			for s := b.nextOld(); s != none; s = b.nextOld() {
				c.dropLocked(b, s)
				c.flushEvictions.Add(1)
			}
			b.mu.Unlock()
		}
		p = &hasherPair{hasher: p.hasher}
		c.pair.Store(p)
		c.migrating.Store(false)
	}

	// Publish the new pair BEFORE the marking pass takes any bucket lock.
	// Fast-path operations re-validate the pair under their bucket lock:
	// one that validated against the old pair finished before this store
	// became visible through its bucket's mutex, so the marking pass below
	// will see (and mark) whatever it inserted; one that observes the new
	// pair falls back to the slow path and blocks on rehashMu until the
	// marking pass is done.
	c.pair.Store(&hasherPair{
		hasher: hashfn.NewRandom(c.seeds.Next(), len(c.buckets)),
		old:    p.hasher,
	})
	total := 0
	for i := range c.buckets {
		b := &c.buckets[i]
		b.mu.Lock()
		total += b.markOld()
		b.mu.Unlock()
	}
	c.rehashes.Add(1)
	c.sweepCursor.Store(0)
	c.pending.Store(int64(total))
	if total == 0 {
		// Nothing to migrate: the rehash completes immediately.
		c.pair.Store(&hasherPair{hasher: c.pair.Load().hasher})
		c.migrating.Store(false)
		return
	}
	c.migrating.Store(true)
}

// migrateStep force-evicts one not-yet-remapped item, the gentlest
// per-miss schedule the paper allows (Section 6.1), sweeping buckets in
// order and each bucket from its least recently used resident. Caller
// holds rehashMu.RLock and no bucket locks.
func (c *Cache) migrateStep() {
	n := int64(len(c.buckets))
	for evicted := false; !evicted; {
		i := c.sweepCursor.Load()
		if i >= n {
			return
		}
		b := &c.buckets[i]
		b.mu.Lock()
		if s := b.nextOld(); s != none {
			c.dropLocked(b, s)
			c.flushEvictions.Add(1)
			evicted = true
		}
		drained := b.nOld == 0
		b.mu.Unlock()
		if drained {
			c.sweepCursor.CompareAndSwap(i, i+1)
		}
	}
}

// maybeFinishMigration retires the old hash function once every resident has
// been remapped or evicted. Called after operations release rehashMu.
func (c *Cache) maybeFinishMigration() {
	if !c.migrating.Load() || c.pending.Load() != 0 {
		return
	}
	c.rehashMu.Lock()
	if p := c.pair.Load(); p.old != nil && c.pending.Load() == 0 {
		c.pair.Store(&hasherPair{hasher: p.hasher})
		c.migrating.Store(false)
	}
	c.rehashMu.Unlock()
}

// Migrating reports whether an incremental rehash is in progress.
func (c *Cache) Migrating() bool { return c.migrating.Load() }

// PendingMigration returns the number of items still awaiting remapping.
func (c *Cache) PendingMigration() int { return int(c.pending.Load()) }

// Len returns the total number of cached entries (a racy snapshot).
func (c *Cache) Len() int {
	total := 0
	for i := range c.buckets {
		b := &c.buckets[i]
		b.mu.Lock()
		total += int(b.n)
		b.mu.Unlock()
	}
	return total
}

// Keys returns a racy snapshot of all resident keys, bucket by bucket.
// Entries inserted or evicted while the snapshot is taken may or may not
// appear; no key is reported twice.
func (c *Cache) Keys() []uint64 {
	out := make([]uint64, 0, c.occupancy.Load())
	c.Entries(func(key uint64, _ interface{}) { out = append(out, key) })
	return out
}

// Entries visits every resident entry, bucket by bucket, with the owning
// bucket's lock held — a racy snapshot with the same guarantees as Keys
// (entries inserted or evicted mid-walk may or may not appear, none twice),
// but carrying the values, so callers enumerating versioned records need
// not re-read each key. visit runs under a bucket lock: it must be cheap,
// must not block, and must not call back into the cache. The walk touches
// no recency state, so an enumeration never perturbs recency.
func (c *Cache) Entries(visit func(key uint64, v interface{})) {
	for i := range c.buckets {
		b := &c.buckets[i]
		b.mu.Lock()
		b.each(visit)
		b.mu.Unlock()
	}
}

// DeleteIf removes key only if fn, called with the current value under the
// owning bucket's lock, returns true. The read-check-delete is one critical
// section — the conditional mirror of Update — so a concurrent write cannot
// land between fn's decision and the removal. It reports whether a delete
// happened; an absent key never invokes fn. The cluster's near-cache
// invalidates by version floor with it: "drop this entry unless it is
// newer than the delete" must be atomic or the drop races a newer write.
func (c *Cache) DeleteIf(key uint64, fn func(v interface{}) bool) bool {
	item := trace.Item(key)
	a := c.enter(item)
	b, i := a.find(item)
	ok := i != none && fn(b.vals[i])
	if ok {
		c.dropLocked(b, i)
	}
	c.leave(a, false)
	return ok
}

// Capacity returns the total entry capacity k.
func (c *Cache) Capacity() int { return c.alpha * len(c.buckets) }

// Alpha returns the bucket size α.
func (c *Cache) Alpha() int { return c.alpha }

// NumBuckets returns the number of independent buckets (lock granularity).
func (c *Cache) NumBuckets() int { return len(c.buckets) }

// Stats returns cumulative hit/miss counters for Get calls.
func (c *Cache) Stats() (hits, misses uint64) {
	s := c.Snapshot()
	return s.Hits, s.Misses
}

// Snapshot is a point-in-time view of the cache's cumulative counters.
type Snapshot struct {
	Hits   uint64
	Misses uint64
	// Evictions counts the LRU evictions caused by insertions.
	Evictions uint64
	// ConflictEvictions is the subset of Evictions that happened while the
	// cache as a whole still had free slots: associativity conflicts, the
	// paper's Theorem 4 currency. The free slots include those a rehash's
	// forced evictions (FlushEvictions) left, so a full cache under a fixed
	// hash adds none, but the refill after a rehash counts each set
	// overflow until the cache is full again.
	ConflictEvictions uint64
	// FlushEvictions counts forced evictions performed by rehash migrations.
	FlushEvictions uint64
	// Rehashes counts completed Rehash calls.
	Rehashes uint64
	// Migrating reports an in-progress incremental rehash; Pending is the
	// number of items still awaiting remapping.
	Migrating bool
	Pending   int
	Len       int
	Capacity  int
	Alpha     int
	Buckets   int
}

// MissRatio returns Misses / (Hits + Misses), or 0 before any Get.
func (s Snapshot) MissRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// Snapshot returns the cache-wide counter snapshot.
func (c *Cache) Snapshot() Snapshot {
	s := Snapshot{
		FlushEvictions: c.flushEvictions.Load(),
		Rehashes:       c.rehashes.Load(),
		Migrating:      c.migrating.Load(),
		Pending:        int(c.pending.Load()),
		Capacity:       c.Capacity(),
		Alpha:          c.alpha,
		Buckets:        len(c.buckets),
	}
	for i := range c.buckets {
		b := &c.buckets[i]
		b.mu.Lock()
		s.Hits += b.hits
		s.Misses += b.misses
		s.Evictions += b.evictions
		s.ConflictEvictions += b.conflictEvictions
		s.Len += int(b.n)
		b.mu.Unlock()
	}
	return s
}

// ShardStat is one bucket's view of the load: its Get hits and misses, the
// evictions it performed, and its current occupancy.
type ShardStat struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Len       int
}

// ShardStats returns a per-bucket stats snapshot, indexed by bucket. The
// spread across shards is the direct measure of the balls-and-bins imbalance
// the paper's threshold analysis is about.
func (c *Cache) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.buckets))
	for i := range c.buckets {
		b := &c.buckets[i]
		b.mu.Lock()
		out[i] = ShardStat{Hits: b.hits, Misses: b.misses, Evictions: b.evictions, Len: int(b.n)}
		b.mu.Unlock()
	}
	return out
}
