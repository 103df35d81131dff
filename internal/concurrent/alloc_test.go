package concurrent

import (
	"fmt"
	"testing"
)

// TestStoreAllocs gates the store's own allocations at zero on every
// steady-state operation, on both sides of scanMax: the slot arrays are
// allocated once in New, and a hit, a miss, an overwrite, an insert that
// evicts and a delete only rewrite slots. The value is boxed once up front,
// as the server's is, so what is counted is the store and not the caller.
func TestStoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates per operation; alloc gate runs without -race")
	}
	for _, alpha := range []int{16, 256} {
		t.Run(fmt.Sprintf("alpha=%d", alpha), func(t *testing.T) {
			const k = 1 << 12
			c := mustNew(t, k, alpha)
			var val interface{} = make([]byte, 64)
			store := func(interface{}, bool) (interface{}, bool) { return val, true }
			// Eight capacities of distinct keys leave every bucket full, so
			// each fresh key below evicts.
			for key := uint64(0); key < 8*k; key++ {
				c.Update(key, store)
			}
			if c.Len() != k {
				t.Fatalf("Len = %d after overfilling, want %d", c.Len(), k)
			}
			resident := c.Keys()
			next, fresh := 0, uint64(1)<<40
			for _, g := range []struct {
				op string
				fn func()
			}{
				{"Get hit", func() {
					if _, ok := c.Get(resident[next%len(resident)]); !ok {
						t.Fatal("resident key missed")
					}
					next++
				}},
				{"Get miss", func() {
					c.Get(fresh)
					fresh++
				}},
				{"Update overwrite", func() {
					c.Update(resident[next%len(resident)], store)
					next++
				}},
				{"Update insert with eviction, then Delete", func() {
					if _, _, evicted := c.Update(fresh, store); !evicted {
						t.Fatal("insert into a full cache did not evict")
					}
					if !c.Delete(fresh) {
						t.Fatal("Delete missed the key just stored")
					}
					// Refill the freed slot, so every bucket stays full and
					// the next round evicts again.
					c.Update(fresh, store)
					fresh++
				}},
			} {
				if allocs := testing.AllocsPerRun(2000, g.fn); allocs != 0 {
					t.Errorf("%s allocates %.3f objects/op, want 0", g.op, allocs)
				}
			}
		})
	}
}

// TestRehashAllocs gates rehash initiation on a populated, stable cache at
// a constant number of objects (the published pairs and their hasher): the
// marking pass fills bits under the cache-wide write lock, it does not
// build a set per bucket.
func TestRehashAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates per operation; alloc gate runs without -race")
	}
	const k, alpha = 1 << 12, 16
	c := mustNew(t, k, alpha)
	var val interface{} = make([]byte, 64)
	store := func(interface{}, bool) (interface{}, bool) { return val, true }
	allocs := testing.AllocsPerRun(5, func() {
		for key := uint64(0); key < k; key++ {
			c.Update(key, store)
		}
		c.Rehash() // the gated case: stable and populated
		if !c.Migrating() {
			t.Fatal("rehash of a populated cache did not start a migration")
		}
		c.Rehash() // force-completes it and, the cache now empty, finishes at once
		if c.Migrating() || c.Len() != 0 {
			t.Fatalf("migrating=%v len=%d after back-to-back rehash", c.Migrating(), c.Len())
		}
	})
	if buckets := float64(c.NumBuckets()); allocs > 16 {
		t.Errorf("two rehashes over %v buckets allocate %.0f objects, want a constant ≤ 16", buckets, allocs)
	}
}
