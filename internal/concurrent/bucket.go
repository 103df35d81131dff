package concurrent

import (
	"sync"

	"repro/internal/trace"
)

// scanMax is the largest α whose buckets find a key by scanning the key
// array; above it a bucket carries a key → slot map. Measured in
// hypotheses/H7-flat-bucket-store.md (BenchmarkFindScanVsIndex): up to 64
// contiguous keys the scan wins the hit / miss / evicting-insert mix, since
// it keeps no map in step; at 128 the two tie and from 256 the map wins.
// The benchmark has rows on both sides (α = 16 and 64 scan, α = k indexes).
const scanMax = 64

// none is the slot index that ends the recency list.
const none = int32(-1)

// link is one slot's place in its bucket's recency list.
type link struct{ prev, next int32 }

// bucket is the paper's set: α slots that one request inspects in one go,
// guarded by one mutex. Slots [0, n) are in use and dense — a removal moves
// the last used slot into the hole — so a lookup scans exactly the resident
// keys and a free slot needs no list. A slot is a column across four
// parallel arrays, each a window of an array the Cache allocates once for
// all buckets:
//
//	keys[i]   the resident key (pointer-free: a scan never touches a value)
//	vals[i]   its value; nil from slot n on, so no dead value stays reachable
//	order[i]  its neighbours in the recency list, head = most recent
//	old       bit i set ⇔ slot i has not been remapped since the last Rehash
//
// A Get hit therefore reads the bucket header, at most α keys (two cache
// lines at α = 16), one value and the links of the slot and its two
// neighbours — no hash-map probe and no pointer chase.
//
// The recency list is exact LRU and is the only victim chooser: a full
// bucket evicts its tail, and forced evictions take the tail too.
// Awaiting-remap slots are never touched (a touch remaps), so they are
// exactly the nOld least recent ones: nextOld is the tail.
//
// All methods require mu.
type bucket struct {
	mu         sync.Mutex
	n, nOld    int32 // slots in use; of those, awaiting remap
	head, tail int32 // most / least recently used slot, none when empty
	keys       []trace.Item
	// Per-shard Get counters, written under mu: counting here rather than
	// cache-wide keeps a miss, like a hit, off every line another bucket's
	// requests write.
	hits   uint64
	misses uint64

	vals  []interface{}
	order []link
	old   []uint64
	// index maps key → slot when α > scanMax, nil otherwise.
	index     map[trace.Item]int32
	evictions uint64
	// conflictEvictions is the subset of evictions made while the cache as
	// a whole had free slots (see Snapshot.ConflictEvictions).
	conflictEvictions uint64

	_ [32]byte // pad to three cache lines, keeping hot buckets off shared ones
}

// find returns the slot holding item, or none.
func (b *bucket) find(item trace.Item) int32 {
	if b.index != nil {
		if i, ok := b.index[item]; ok {
			return i
		}
		return none
	}
	for i, k := range b.keys[:b.n] {
		if k == item {
			return int32(i)
		}
	}
	return none
}

// touch records a request for the resident in slot i.
func (b *bucket) touch(i int32) {
	if b.head != i {
		b.unlink(i)
		b.pushFront(i)
	}
}

// insert stores item, which the bucket must not hold, as its most recent
// resident. When the bucket is full the tail is the victim: its slot is
// reused in place and the victim reported.
func (b *bucket) insert(item trace.Item, val interface{}) (victim trace.Item, evicted bool) {
	i := b.n
	if b.full() {
		i, victim, evicted = b.tail, b.keys[b.tail], true
		b.vacate(i)
	} else {
		b.n++
	}
	b.keys[i], b.vals[i] = item, val
	if b.index != nil {
		b.index[item] = i
	}
	b.pushFront(i)
	return victim, evicted
}

// full reports whether every slot is in use, so that an insert evicts the
// tail.
func (b *bucket) full() bool { return int(b.n) == len(b.keys) }

// remove deletes the resident in slot i, reporting whether it was awaiting
// remap. The last used slot moves into i, so slot numbers do not survive a
// remove.
func (b *bucket) remove(i int32) (wasOld bool) {
	wasOld = b.vacate(i)
	last := b.n - 1
	if i != last {
		b.keys[i], b.vals[i] = b.keys[last], b.vals[last]
		l := b.order[last]
		b.order[i] = l
		if l.prev != none {
			b.order[l.prev].next = i
		} else {
			b.head = i
		}
		if l.next != none {
			b.order[l.next].prev = i
		} else {
			b.tail = i
		}
		if b.index != nil {
			b.index[b.keys[i]] = i
		}
		if b.clearOld(last) {
			b.old[i>>6] |= 1 << (i & 63)
			b.nOld++
		}
	}
	b.vals[last] = nil
	b.n = last
	return wasOld
}

// vacate takes slot i's resident out of the recency list, the index and
// the awaiting-remap set, leaving the slot itself for the caller to refill
// or close.
func (b *bucket) vacate(i int32) (wasOld bool) {
	b.unlink(i)
	if b.index != nil {
		delete(b.index, b.keys[i])
	}
	return b.clearOld(i)
}

// markOld marks every resident as awaiting remap and returns their number.
// No slot may be marked already.
func (b *bucket) markOld() int {
	full := b.n >> 6
	for w := range b.old[:full] {
		b.old[w] = ^uint64(0)
	}
	if r := b.n & 63; r != 0 {
		b.old[full] = 1<<r - 1
	}
	b.nOld = b.n
	return int(b.n)
}

// clearOld unmarks slot i, reporting whether it was marked.
func (b *bucket) clearOld(i int32) bool {
	if b.nOld == 0 || b.old[i>>6]&(1<<(i&63)) == 0 {
		return false
	}
	b.old[i>>6] &^= 1 << (i & 63)
	b.nOld--
	return true
}

// nextOld returns the least recently used slot still awaiting remap — the
// one a forced eviction takes next — or none.
func (b *bucket) nextOld() int32 {
	if b.nOld == 0 {
		return none
	}
	return b.tail
}

// each visits every resident in slot order without touching recency.
func (b *bucket) each(visit func(key uint64, v interface{})) {
	for i, k := range b.keys[:b.n] {
		visit(uint64(k), b.vals[i])
	}
}

func (b *bucket) unlink(i int32) {
	l := b.order[i]
	if l.prev != none {
		b.order[l.prev].next = l.next
	} else {
		b.head = l.next
	}
	if l.next != none {
		b.order[l.next].prev = l.prev
	} else {
		b.tail = l.prev
	}
}

func (b *bucket) pushFront(i int32) {
	b.order[i] = link{prev: none, next: b.head}
	if b.head != none {
		b.order[b.head].prev = i
	} else {
		b.tail = i
	}
	b.head = i
}
