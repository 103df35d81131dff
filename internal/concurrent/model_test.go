package concurrent

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hashfn"
	"repro/internal/policy"
	"repro/internal/trace"
)

// model is the store's specification, written the plain way: per bucket a
// policy.LRU, a value map and an awaiting-remap set, single-threaded, with
// the same hash seeds as the Cache it shadows. It is what the Cache was
// before its buckets became slot arrays, plus the one thing that store left
// to map iteration order: a forced eviction takes the bucket's least
// recently used awaiting-remap resident (rec keeps that order).
type model struct {
	buckets      []modelBucket
	seeds        *hashfn.SeedSequence
	hasher, old  *hashfn.Random
	capacity     int
	cursor       int
	pending, occ int
	snap         Snapshot // the counters, maintained exactly as documented
	// released lists the values the cache stops holding, as SetRelease
	// documents; rel counts them by cause, and moves counts the values a
	// hit moved to their new bucket, which are not released.
	released []interface{}
	rel      struct{ overwrites, evictions, forced, deletes int }
	moves    int
	// migrations counts the migrations that drained, each a full rehash.
	migrations int
}

type modelBucket struct {
	pol  policy.Policy
	vals map[trace.Item]interface{}
	old  map[trace.Item]struct{}
	rec  []trace.Item // most recently used first
}

func newModel(cfg Config) *model {
	n := cfg.Capacity / cfg.Alpha
	m := &model{
		buckets:  make([]modelBucket, n),
		seeds:    hashfn.NewSeedSequence(cfg.Seed),
		capacity: cfg.Capacity,
	}
	m.hasher = hashfn.NewRandom(m.seeds.Next(), n)
	for i := range m.buckets {
		m.buckets[i] = modelBucket{
			pol:  policy.NewLRU(cfg.Alpha),
			vals: map[trace.Item]interface{}{},
			old:  map[trace.Item]struct{}{},
		}
	}
	return m
}

func (b *modelBucket) forget(x trace.Item) {
	if i := slices.Index(b.rec, x); i >= 0 {
		b.rec = slices.Delete(b.rec, i, i+1)
	}
}

// request is one policy request for x, mirrored into the recency order.
func (b *modelBucket) request(x trace.Item) (hit bool, victim trace.Item, evicted bool) {
	hit, victim, evicted = b.pol.Request(x)
	if evicted {
		b.forget(victim)
	}
	b.forget(x)
	b.rec = slices.Insert(b.rec, 0, x)
	return hit, victim, evicted
}

// drop removes resident x of b, which is not an eviction, and releases its
// value.
func (m *model) drop(b *modelBucket, x trace.Item) {
	m.released = append(m.released, b.vals[x])
	m.remove(b, x)
}

// remove is drop for a value that stays in the cache: a move.
func (m *model) remove(b *modelBucket, x trace.Item) {
	b.pol.Delete(x)
	b.forget(x)
	delete(b.vals, x)
	m.clearOld(b, x)
	m.occ--
}

func (m *model) clearOld(b *modelBucket, x trace.Item) {
	if _, ok := b.old[x]; ok {
		delete(b.old, x)
		m.pending--
	}
}

// store is the documented insert: overwrite in place, or insert and report
// the policy's victim, classifying the eviction as a conflict when the
// cache as a whole had room.
func (m *model) store(b *modelBucket, x trace.Item, v interface{}) (victim trace.Item, evicted bool) {
	m.clearOld(b, x)
	hit, victim, evicted := b.request(x)
	if hit {
		m.released = append(m.released, b.vals[x])
		m.rel.overwrites++
	}
	if evicted {
		m.released = append(m.released, b.vals[victim])
		m.rel.evictions++
		delete(b.vals, victim)
		m.clearOld(b, victim)
		m.snap.Evictions++
		if m.occ < m.capacity {
			m.snap.ConflictEvictions++
		}
	} else if !hit {
		m.occ++
	}
	b.vals[x] = v
	return victim, evicted
}

// where locates x: its bucket under the live hash, and the bucket holding
// it (nil when absent) — the live one, or the previous hash's while x
// still awaits remapping.
func (m *model) where(x trace.Item) (bn, at *modelBucket) {
	bn = &m.buckets[m.hasher.Bucket(x)]
	if _, ok := bn.vals[x]; ok {
		return bn, bn
	}
	if m.old != nil {
		bo := &m.buckets[m.old.Bucket(x)]
		if _, ok := bo.old[x]; ok {
			return bn, bo
		}
	}
	return bn, nil
}

func (m *model) finish() {
	if m.old != nil && m.pending == 0 {
		m.old = nil
		m.migrations++
	}
}

func (m *model) get(x trace.Item) (interface{}, bool) {
	defer m.finish()
	bn, at := m.where(x)
	if at == nil {
		m.snap.Misses++
		if m.old != nil {
			m.forcedEviction()
		}
		return nil, false
	}
	m.snap.Hits++
	v := at.vals[x]
	if at == bn {
		m.clearOld(bn, x)
		bn.request(x)
	} else {
		m.remove(at, x)
		m.store(bn, x, v)
		m.moves++
	}
	return v, true
}

func (m *model) forcedEviction() {
	for evicted := false; !evicted && m.cursor < len(m.buckets); {
		b := &m.buckets[m.cursor]
		for i := len(b.rec) - 1; i >= 0; i-- {
			if _, ok := b.old[b.rec[i]]; ok {
				m.drop(b, b.rec[i])
				m.rel.forced++
				m.snap.FlushEvictions++
				evicted = true
				break
			}
		}
		if len(b.old) == 0 {
			m.cursor++
		}
	}
}

func (m *model) update(x trace.Item, fn func(interface{}, bool) (interface{}, bool)) (stored bool, victim trace.Item, evicted bool) {
	defer m.finish()
	bn, at := m.where(x)
	var cur interface{}
	if at != nil {
		cur = at.vals[x]
	}
	v, stored := fn(cur, at != nil)
	if !stored {
		return false, 0, false
	}
	if at != nil && at != bn {
		m.drop(at, x)
		m.rel.overwrites++
	}
	victim, evicted = m.store(bn, x, v)
	return true, victim, evicted
}

func (m *model) deleteIf(x trace.Item, fn func(interface{}) bool) bool {
	defer m.finish()
	_, at := m.where(x)
	if at == nil || !fn(at.vals[x]) {
		return false
	}
	m.drop(at, x)
	m.rel.deletes++
	return true
}

func (m *model) rehash() {
	if m.old != nil {
		for i := range m.buckets {
			b := &m.buckets[i]
			for x := range b.old {
				m.drop(b, x)
				m.rel.forced++
				m.snap.FlushEvictions++
			}
		}
	}
	m.old = m.hasher
	m.hasher = hashfn.NewRandom(m.seeds.Next(), len(m.buckets))
	for i := range m.buckets {
		b := &m.buckets[i]
		for x := range b.vals {
			b.old[x] = struct{}{}
		}
	}
	m.snap.Rehashes++
	m.cursor = 0
	m.pending = m.occ
	m.finish()
}

// checkAgainst compares everything observable, and the bucket internals,
// with the Cache the model shadows.
func (m *model) checkAgainst(c *Cache) error {
	want := m.snap
	want.Migrating, want.Pending, want.Len = m.old != nil, m.pending, m.occ
	want.Capacity, want.Alpha, want.Buckets = c.Capacity(), c.Alpha(), c.NumBuckets()
	if got := c.Snapshot(); got != want {
		return fmt.Errorf("Snapshot = %+v, model %+v", got, want)
	}
	if got := c.Len(); got != m.occ {
		return fmt.Errorf("Len = %d, model %d", got, m.occ)
	}
	if got := int(c.occupancy.Load()); got != m.occ {
		return fmt.Errorf("occupancy = %d, model %d", got, m.occ)
	}
	// Every resident is enumerated once, with the model's value; the
	// buckets' own key sets are compared slot by slot in checkBucket.
	var bad error
	visited := 0
	c.Entries(func(k uint64, v interface{}) {
		visited++
		if _, at := m.where(trace.Item(k)); at == nil || at.vals[trace.Item(k)] != v {
			bad = fmt.Errorf("Entries visits %d → %v, which the model does not hold", k, v)
		}
	})
	keys := c.Keys()
	slices.Sort(keys)
	if bad != nil || visited != m.occ || len(slices.Compact(keys)) != m.occ {
		return fmt.Errorf("Entries visited %d and Keys has %d distinct keys for %d residents (%v)", visited, len(slices.Compact(keys)), m.occ, bad)
	}
	for i := range m.buckets {
		if err := checkBucket(&c.buckets[i], &m.buckets[i]); err != nil {
			return fmt.Errorf("bucket %d: %w", i, err)
		}
	}
	return nil
}

// checkBucket holds one bucket's slot arrays to the layout's invariants and
// to the model's bucket: dense slots, no value past n, an exact recency
// list, the awaiting-remap bits and their count, the index.
func checkBucket(b *bucket, mb *modelBucket) error {
	if int(b.n) != len(mb.vals) {
		return fmt.Errorf("n = %d, model holds %d", b.n, len(mb.vals))
	}
	for i := int(b.n); i < len(b.vals); i++ {
		if b.vals[i] != nil {
			return fmt.Errorf("free slot %d still holds %v", i, b.vals[i])
		}
	}
	marked := 0
	for i := range b.old {
		marked += bits.OnesCount64(b.old[i])
	}
	if marked != int(b.nOld) || marked != len(mb.old) {
		return fmt.Errorf("%d slots marked, nOld = %d, model %d", marked, b.nOld, len(mb.old))
	}
	var order []trace.Item
	prev := none
	for i := b.head; i != none; prev, i = i, b.order[i].next {
		if i >= b.n || b.order[i].prev != prev || len(order) > int(b.n) {
			return fmt.Errorf("recency list broken at slot %d", i)
		}
		x := b.keys[i]
		order = append(order, x)
		if b.vals[i] != mb.vals[x] {
			return fmt.Errorf("key %d holds %v, model %v", x, b.vals[i], mb.vals[x])
		}
		isOld := b.old[i>>6]&(1<<(i&63)) != 0
		if _, want := mb.old[x]; isOld != want {
			return fmt.Errorf("key %d: awaiting-remap bit %v, model %v", x, isOld, want)
		}
		if isOld && len(order) <= int(b.n-b.nOld) {
			return fmt.Errorf("key %d awaits remap but is not among the %d least recent", x, b.nOld)
		}
		if b.find(x) != i {
			return fmt.Errorf("find(%d) = %d, want slot %d", x, b.find(x), i)
		}
	}
	if prev != b.tail || !slices.Equal(order, mb.rec) {
		return fmt.Errorf("recency order %v (tail %d), model %v", order, b.tail, mb.rec)
	}
	if (b.index != nil) != (len(b.keys) > scanMax) || (b.index != nil && len(b.index) != int(b.n)) {
		return fmt.Errorf("index has %d keys for %d residents at α = %d", len(b.index), b.n, len(b.keys))
	}
	return nil
}

// TestDifferentialModel drives seeded random operation streams through the
// Cache and the model side by side, on both sides of scanMax, and requires every return value, every counter, the
// resident set and each bucket's exact recency order to agree after every
// step — mid-migration included.
func TestDifferentialModel(t *testing.T) {
	rows := []struct{ alpha, capacity int }{
		{1, 16},
		{2, 16},
		{16, 128},
		{scanMax, 4 * scanMax},
		{scanMax + 1, 4 * (scanMax + 1)},
		{256, 512},
		{512, 512}, // α = k: one bucket
	}
	for _, r := range rows {
		// "native" names the store's own LRU, the only replacement it has.
		name := fmt.Sprintf("alpha=%d/k=%d/native=true", r.alpha, r.capacity)
		t.Run(name, func(t *testing.T) {
			seeds := uint64(3)
			if raceEnabled {
				seeds = 1 // single-threaded: nothing for the detector, ten times the wall clock
			}
			for seed := uint64(1); seed <= seeds; seed++ {
				cfg := Config{Capacity: r.capacity, Alpha: r.alpha, Seed: seed}
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				runDifferential(t, c, newModel(cfg), seed, nil)
			}
		})
	}
}

// runDifferential drives one seeded stream through c and m; after, when
// set, runs after every step's comparison, with the step's description.
func runDifferential(t *testing.T, c *Cache, m *model, seed uint64, after func(step string) error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	// Sized so that between two rehashes the cache refills and evicts, and
	// that some rehashes land while the previous migration is still
	// draining.
	universe := 2 * c.Capacity()
	steps := max(6000, 14*c.Capacity())
	rehashEvery := 4*c.Capacity() + 100
	even := func(v interface{}) bool { return v.(int)%2 == 0 }
	for step := 0; step < steps; step++ {
		key := uint64(rng.Intn(universe))
		x := trace.Item(key)
		var got, want string
		switch op := rng.Intn(100); {
		case step%rehashEvery == rehashEvery-1, step%(2*rehashEvery) == c.Capacity()/2:
			c.Rehash()
			m.rehash()
		case op < 45:
			v, ok := c.Get(key)
			mv, mok := m.get(x)
			got, want = fmt.Sprint("get ", v, ok), fmt.Sprint("get ", mv, mok)
		case op < 70:
			victim, ev := c.Put(key, step)
			_, mvictim, mev := m.update(x, func(interface{}, bool) (interface{}, bool) { return step, true })
			got, want = fmt.Sprint("put ", victim, ev), fmt.Sprint("put ", uint64(mvictim), mev)
		case op < 88:
			// Store over an odd value or into a hole, decline otherwise.
			fn := func(old interface{}, present bool) (interface{}, bool) {
				return step, !present || !even(old)
			}
			st, victim, ev := c.Update(key, fn)
			mst, mvictim, mev := m.update(x, fn)
			got, want = fmt.Sprint("update ", st, victim, ev), fmt.Sprint("update ", mst, uint64(mvictim), mev)
		case op < 94:
			always := func(interface{}) bool { return true }
			got, want = fmt.Sprint("delete ", c.Delete(key)), fmt.Sprint("delete ", m.deleteIf(x, always))
		default:
			got, want = fmt.Sprint("deleteIf ", c.DeleteIf(key, even)), fmt.Sprint("deleteIf ", m.deleteIf(x, even))
		}
		if got != want {
			t.Fatalf("seed %d step %d key %d: cache says %q, model %q", seed, step, key, got, want)
		}
		if err := m.checkAgainst(c); err != nil {
			t.Fatalf("seed %d step %d key %d (%s): %v", seed, step, key, got, err)
		}
		if after != nil {
			if err := after(got); err != nil {
				t.Fatalf("seed %d step %d key %d (%s): %v", seed, step, key, got, err)
			}
		}
	}
	if m.snap.Rehashes < 2 || m.snap.FlushEvictions == 0 || m.snap.Evictions == 0 || m.snap.Hits == 0 {
		t.Fatalf("seed %d: stream exercised too little: %+v", seed, m.snap)
	}
}
