package concurrent

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func mustNew(t *testing.T, capacity, alpha int) *Cache {
	t.Helper()
	c, err := New(Config{Capacity: capacity, Alpha: alpha, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBucketSize pins a bucket at three cache lines. The padding keeps one
// bucket's lock and counters off the lines its neighbours write; a field
// added without taking its bytes from the pad would shift every later
// bucket across a line boundary.
func TestBucketSize(t *testing.T) {
	if got := unsafe.Sizeof(bucket{}); got != 192 {
		t.Fatalf("bucket is %d bytes, want 192 (three 64-byte lines)", got)
	}
}

func TestBasicPutGet(t *testing.T) {
	c := mustNew(t, 16, 4)
	c.Put(1, "one")
	c.Put(2, "two")
	if v, ok := c.Get(1); !ok || v != "one" {
		t.Fatalf("Get(1) = %v, %v", v, ok)
	}
	if _, ok := c.Get(99); ok {
		t.Fatal("Get(99) should miss")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
}

func TestEvictionWithinBucket(t *testing.T) {
	// One bucket (α = capacity): behaves like plain LRU.
	c := mustNew(t, 2, 2)
	c.Put(1, "a")
	c.Put(2, "b")
	evictedKey, evicted := c.Put(3, "c")
	if !evicted || evictedKey != 1 {
		t.Fatalf("evicted %v/%v, want 1/true", evictedKey, evicted)
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("1 should be gone")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestValuesFollowEvictions(t *testing.T) {
	c := mustNew(t, 4, 1) // direct-mapped: heavy eviction traffic
	for i := uint64(0); i < 100; i++ {
		c.Put(i, i*10)
	}
	if c.Len() > c.Capacity() {
		t.Fatalf("Len %d > capacity", c.Len())
	}
	// Every cached key must return its own value.
	for i := uint64(0); i < 100; i++ {
		if v, ok := c.Get(i); ok && v != i*10 {
			t.Fatalf("Get(%d) = %v, want %d", i, v, i*10)
		}
	}
}

func TestDelete(t *testing.T) {
	c := mustNew(t, 8, 2)
	c.Put(5, "x")
	if !c.Delete(5) {
		t.Fatal("Delete(5) should succeed")
	}
	if c.Delete(5) {
		t.Fatal("second Delete(5) should fail")
	}
	if _, ok := c.Get(5); ok {
		t.Fatal("deleted key should miss")
	}
}

func TestGetOrLoad(t *testing.T) {
	c := mustNew(t, 8, 2)
	loads := 0
	load := func() (interface{}, error) { loads++; return "val", nil }
	v, err := c.GetOrLoad(7, load)
	if err != nil || v != "val" || loads != 1 {
		t.Fatalf("first GetOrLoad: %v %v loads=%d", v, err, loads)
	}
	v, err = c.GetOrLoad(7, load)
	if err != nil || v != "val" || loads != 1 {
		t.Fatalf("second GetOrLoad should hit: %v %v loads=%d", v, err, loads)
	}
	wantErr := errors.New("boom")
	if _, err := c.GetOrLoad(8, func() (interface{}, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("error not propagated: %v", err)
	}
	if _, ok := c.Get(8); ok {
		t.Fatal("failed load must not cache")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Capacity: 0, Alpha: 1},
		{Capacity: 8, Alpha: 0},
		{Capacity: 8, Alpha: 3},
		{Capacity: 8, Alpha: 16},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestGeometry(t *testing.T) {
	c := mustNew(t, 64, 4)
	if c.Capacity() != 64 || c.Alpha() != 4 || c.NumBuckets() != 16 {
		t.Fatalf("geometry = %d/%d/%d", c.Capacity(), c.Alpha(), c.NumBuckets())
	}
}

// TestConcurrentAccess hammers the cache from many goroutines under the race
// detector: per-bucket locking must keep every invariant intact.
func TestConcurrentAccess(t *testing.T) {
	c := mustNew(t, 256, 8)
	const goroutines = 8
	const opsPerG = 5000
	var wg sync.WaitGroup
	var errCount atomic.Int64
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPerG; i++ {
				key := uint64((g*opsPerG + i) % 512)
				switch i % 3 {
				case 0:
					c.Put(key, key)
				case 1:
					if v, ok := c.Get(key); ok && v != key {
						errCount.Add(1)
					}
				case 2:
					c.Delete(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if errCount.Load() != 0 {
		t.Fatalf("%d value mismatches under concurrency", errCount.Load())
	}
	if c.Len() > c.Capacity() {
		t.Fatalf("Len %d > capacity %d", c.Len(), c.Capacity())
	}
}

// TestConcurrentGetOrLoad checks the documented last-writer-wins contract.
func TestConcurrentGetOrLoad(t *testing.T) {
	c := mustNew(t, 64, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 200; i++ {
				v, err := c.GetOrLoad(i, func() (interface{}, error) {
					return fmt.Sprintf("v%d", i), nil
				})
				if err != nil || v != fmt.Sprintf("v%d", i) {
					t.Errorf("GetOrLoad(%d) = %v, %v", i, v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestUpdateBasics pins Update's contract: fn sees absent keys, the
// stored value round-trips, and a false second return leaves the cache
// untouched without reporting a store.
func TestUpdateBasics(t *testing.T) {
	c := mustNew(t, 64, 4)

	stored, _, _ := c.Update(7, func(old interface{}, present bool) (interface{}, bool) {
		if present || old != nil {
			t.Errorf("fn saw (%v, %v) for an absent key", old, present)
		}
		return "first", true
	})
	if !stored {
		t.Fatal("Update declined to store on an absent key")
	}
	if v, ok := c.Get(7); !ok || v != "first" {
		t.Fatalf("Get after Update = %v, %v", v, ok)
	}

	stored, _, _ = c.Update(7, func(old interface{}, present bool) (interface{}, bool) {
		if !present || old != "first" {
			t.Errorf("fn saw (%v, %v), want (first, true)", old, present)
		}
		return nil, false // conditional write loses: keep the current value
	})
	if stored {
		t.Fatal("Update reported a store fn declined")
	}
	if v, ok := c.Get(7); !ok || v != "first" {
		t.Fatalf("declined Update changed the value: %v, %v", v, ok)
	}

	if stored, _, _ = c.Update(7, func(old interface{}, present bool) (interface{}, bool) {
		return "second", true
	}); !stored {
		t.Fatal("overwriting Update declined")
	}
	if v, _ := c.Get(7); v != "second" {
		t.Fatalf("value after overwrite = %v", v)
	}
}

// TestUpdateAtomicIncrement is the reason Update exists: a read-modify-
// write through Get+Put loses increments under concurrency, Update must
// not — fn runs under the bucket lock, so every increment lands.
func TestUpdateAtomicIncrement(t *testing.T) {
	c := mustNew(t, 64, 4)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Update(3, func(old interface{}, present bool) (interface{}, bool) {
					n := 0
					if present {
						n = old.(int)
					}
					return n + 1, true
				})
			}
		}()
	}
	wg.Wait()
	if v, ok := c.Get(3); !ok || v != workers*per {
		t.Fatalf("count = %v (present %v), want %d: increments were lost", v, ok, workers*per)
	}
}

// TestUpdateDuringMigration drives Update across an in-flight incremental
// rehash: values in not-yet-remapped buckets must be found, updated and
// remapped without losing the old-bucket accounting.
func TestUpdateDuringMigration(t *testing.T) {
	c := mustNew(t, 256, 4)
	const n = 150
	for k := uint64(0); k < n; k++ {
		c.Put(k, int(0))
	}
	c.Rehash()
	if !c.Migrating() {
		t.Skip("migration completed instantly; nothing to exercise")
	}
	for k := uint64(0); k < n; k++ {
		c.Update(k, func(old interface{}, present bool) (interface{}, bool) {
			if !present {
				return nil, false // evicted by the migration: accounted, skip
			}
			return old.(int) + 1, true
		})
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := c.Get(k); ok && v != 1 {
			t.Fatalf("key %d = %v after update-under-migration, want 1", k, v)
		}
	}
	if c.Len() > c.Capacity() {
		t.Fatalf("Len %d > capacity %d", c.Len(), c.Capacity())
	}
}
