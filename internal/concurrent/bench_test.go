package concurrent

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/hashfn"
	"repro/internal/trace"
)

// BenchmarkAlphaSweepParallel measures parallel Get/Put throughput as α
// varies at fixed capacity k. Smaller α means more buckets, hence fewer
// lock collisions and higher throughput — the contention half of the
// paper's tradeoff (the miss-cost half is measured end to end by
// internal/server's benchmark and the E1/E2 experiments).
func BenchmarkAlphaSweepParallel(b *testing.B) {
	const k = 1 << 14
	for _, alpha := range []int{1, 4, 16, 64, 256, 1024, k} {
		b.Run(fmt.Sprintf("alpha=%d", alpha), func(b *testing.B) {
			c, err := New(Config{Capacity: k, Alpha: alpha, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			// Warm the cache with a working set around capacity.
			for i := uint64(0); i < k; i++ {
				c.Put(i, i)
			}
			var ctr atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each goroutine walks its own arithmetic stream over a
				// universe slightly above k: mostly hits, with misses and
				// Put traffic mixed in.
				base := ctr.Add(1) * 0x9e3779b9
				i := uint64(0)
				for pb.Next() {
					key := (base + i*7) % (k + k/8)
					if _, ok := c.Get(key); !ok {
						c.Put(key, key)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkSnapshotFastPath is the before/after for the atomic hasher-pair
// snapshot: the same parallel read-mostly load with the fast path enabled
// (steady-state reads touch only their bucket lock) versus forced onto the
// old rehashMu.RLock slow path (every read touches the shared RWMutex cache
// line). The gap is the cost of reader-count cache-line bouncing.
func BenchmarkSnapshotFastPath(b *testing.B) {
	const k = 1 << 14
	for _, mode := range []string{"atomic", "rwlock"} {
		b.Run(mode, func(b *testing.B) {
			disableFastPath = mode == "rwlock"
			defer func() { disableFastPath = false }()
			c, err := New(Config{Capacity: k, Alpha: 16, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			for i := uint64(0); i < k; i++ {
				c.Put(i, i)
			}
			var ctr atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				base := ctr.Add(1) * 0x9e3779b9
				i := uint64(0)
				for pb.Next() {
					key := (base + i*7) % k
					if _, ok := c.Get(key); !ok {
						c.Put(key, key)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkRehashDuringLoad measures Get throughput while online rehashes
// fire on the paper's every-N-misses schedule, quantifying the overhead of
// live migration.
func BenchmarkRehashDuringLoad(b *testing.B) {
	const k = 1 << 12
	for _, every := range []uint64{0, 1 << 14, 1 << 10} {
		name := "rehash=off"
		if every > 0 {
			name = fmt.Sprintf("rehash=every%d", every)
		}
		b.Run(name, func(b *testing.B) {
			c, err := New(Config{Capacity: k, Alpha: 16, Seed: 1, RehashEveryMisses: every})
			if err != nil {
				b.Fatal(err)
			}
			var ctr atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				base := ctr.Add(1) * 0x9e3779b9
				i := uint64(0)
				for pb.Next() {
					key := (base + i*3) % (2 * k)
					if _, ok := c.Get(key); !ok {
						c.Put(key, key)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkFindScanVsIndex is the measurement behind scanMax: the same
// single-threaded hit / miss / evicting-insert loops at each α with find
// forced onto the key-array scan and onto the key → slot map, whatever
// scanMax says. k and the value size are the standing benchmark's, so the
// slot arrays and the values do not all fit in cache and a probe pays the
// memory latency it pays there.
func BenchmarkFindScanVsIndex(b *testing.B) {
	const k = 1 << 15
	var val interface{} = make([]byte, 1024)
	store := func(interface{}, bool) (interface{}, bool) { return val, true }
	for _, alpha := range []int{8, 16, 32, 64, 128, 256, 1024} {
		for _, mode := range []string{"scan", "index"} {
			b.Run(fmt.Sprintf("alpha=%d/%s", alpha, mode), func(b *testing.B) {
				c, err := New(Config{Capacity: k, Alpha: alpha, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				for i := range c.buckets {
					c.buckets[i].index = nil
					if mode == "index" {
						c.buckets[i].index = make(map[trace.Item]int32, alpha)
					}
				}
				for key := uint64(0); key < 4*k; key++ {
					c.Update(hashfn.Mix64(key), store)
				}
				resident := c.Keys()
				rand.New(rand.NewSource(1)).Shuffle(len(resident), func(i, j int) {
					resident[i], resident[j] = resident[j], resident[i]
				})
				fresh := uint64(1) << 40
				for _, op := range []struct {
					name string
					fn   func(i int)
				}{
					{"hit", func(i int) { c.Get(resident[i%len(resident)]) }},
					{"miss", func(i int) { c.Get(fresh + uint64(i)) }},
					{"insert", func(i int) { fresh++; c.Update(hashfn.Mix64(fresh), store) }},
				} {
					b.Run(op.name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							op.fn(i)
						}
					})
				}
			})
		}
	}
}
