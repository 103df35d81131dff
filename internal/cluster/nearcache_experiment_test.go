package cluster

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/load"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkNearCacheZombies is the in-process repro behind
// hypotheses/H13-near-cache-zombies.md: bench's cluster-hot-open world
// without the wire to a separate process — 3 nodes (k = 32768, α = 16),
// R = 2, leases plus a 1024-slot near-cache, the same Zipf(s = 1.2) key
// stream, the same coldest-first prefill of 49,152 keys through SetBatch,
// and 2 callers reading 16-key batches with read-through SETs. One op is
// one GET; b.N must split evenly over the callers' batches, so run it
// with -benchtime Nx and N a multiple of 32.
//
//	go test -run '^$' -bench NearCacheZombies -benchtime 400000x ./internal/cluster
func BenchmarkNearCacheZombies(b *testing.B) {
	const (
		slots, universe, prefill = 1024, 196608, 49152
		callers, depth, size     = 2, 16, 64
	)
	addrs := startCluster(b, 3, 32768, 16)
	c, err := Dial(addrs, Options{Replicas: 2, Leases: true, NearCache: NearCacheOptions{Slots: slots}})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	keys := workload.Zipf{Universe: universe, S: 1.2, Shuffle: true}.Generate(1<<20, 1)
	distinct := make([]uint64, 0, prefill)
	seen := make(map[trace.Item]bool, prefill)
	for _, k := range keys {
		if len(distinct) == prefill {
			break
		}
		if !seen[k] {
			seen[k] = true
			distinct = append(distinct, uint64(k))
		}
	}
	slices.Reverse(distinct) // coldest first: the hottest are written last
	for len(distinct) > 0 {
		chunk := distinct[:min(64, len(distinct))]
		distinct = distinct[len(chunk):]
		if err := c.SetBatch(chunk, func(i int) []byte { return load.Payload(chunk[i], size) }); err != nil {
			b.Fatal(err)
		}
	}

	before := c.Snapshot().Near
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	half := len(keys) / callers
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(stream trace.Sequence) {
			defer wg.Done()
			batch := make([]uint64, depth)
			var missed []uint64
			visit := func(i int, hit bool, _ []byte) {
				if !hit {
					missed = append(missed, batch[i])
				}
			}
			for done, pos := 0, 0; done < b.N/callers; done += depth {
				for i := range batch {
					batch[i] = uint64(stream[pos])
					pos = (pos + 1) % len(stream)
				}
				missed = missed[:0]
				if err := c.GetBatch(batch, visit); err != nil {
					b.Error(err)
					return
				}
				if len(missed) > 0 {
					if err := c.SetBatch(missed, func(i int) []byte { return load.Payload(missed[i], size) }); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}(keys[w*half : (w+1)*half])
	}
	wg.Wait()
	b.StopTimer()

	after := c.Snapshot().Near
	gets := float64(b.N)
	b.ReportMetric(float64(after.Hits-before.Hits)/gets, "near_share")
	b.ReportMetric(float64(after.Expired-before.Expired)/gets, "expired/op")
	b.ReportMetric(float64(after.Evicts-before.Evicts)/gets, "evicts/op")
}
