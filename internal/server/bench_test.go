package server

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/load"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/workload"
)

// BenchmarkObserve prices what the request loop spends per GET on
// watching it, the way handleConn spends it at pipeline 16: one
// monotonic clock read per request plus one for each batch's first, then
// Server.observe — histogram Record, the sampler, and for the taken
// requests HashKey and the weighted sketch Record — over a seeded Zipf
// key stream as wide as TestObserveShareOfGetP50's pass.
func BenchmarkObserve(b *testing.B) {
	cache, err := concurrent.New(concurrent.Config{Capacity: 16, Alpha: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv := New(cache) // observe touches only the flight recorder
	keys := workload.Zipf{Universe: 2 * shareK, S: 0.99, Shuffle: true}.Generate(1<<16, 2)
	req, resp := wire.Request{Op: wire.OpGet}, wire.Response{Status: wire.StatusHit}
	smp := telemetry.NewSampler(1)
	b.ResetTimer()
	var end int64
	for i := 0; i < b.N; i++ {
		start := end
		if i%16 == 0 {
			start = monoNow()
		}
		req.Key = uint64(keys[i&(1<<16-1)])
		end = monoNow()
		srv.observe(&smp, &req, &resp, false, time.Duration(end-start))
	}
}

// BenchmarkSetEvict prices a SET that evicts: k = 32768 at α = 16, 1 KiB
// values over a key set eight times k, so seven SETs in eight insert into a
// full set and release its LRU victim, and the eighth releases the record
// it overwrites. Two goroutines call exec, the request path without the
// wire, each on its own key stream.
func BenchmarkSetEvict(b *testing.B) {
	const k, keys = 1 << 15, 8 << 15
	cache, err := concurrent.New(concurrent.Config{Capacity: k, Alpha: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv := New(cache)
	defer srv.Close()
	val := wirePayload(1 << 10)
	set := func(key uint64) {
		req, resp := wire.Request{Op: wire.OpSet, Key: key, Value: val}, wire.Response{}
		srv.exec(&req, &resp)
	}
	for key := uint64(0); key < 2*k; key++ {
		set(key) // fill every set, so the timed SETs evict
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := g; i < b.N; i += 2 {
				set(uint64(rng.Intn(keys)))
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkMonoNow prices the one clock read per request that
// BenchmarkObserve includes.
func BenchmarkMonoNow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		monoSink = monoNow()
	}
}

var monoSink int64

// BenchmarkAlphaSweep is the end-to-end measurement of the paper's
// α-tradeoff: at fixed capacity k, each sub-benchmark serves a zipf
// workload over loopback TCP with a different bucket size α. Small α gives
// more buckets (less lock contention → higher QPS) but more conflict misses
// once α drops below the ~log₂ k threshold; both sides are reported as
// metrics (qps, miss ratio, conflict evictions per op).
//
// Run with:
//
//	go test -bench AlphaSweep -benchtime 200000x ./internal/server/
func BenchmarkAlphaSweep(b *testing.B) {
	const k = 1 << 12
	for _, alpha := range []int{1, 4, 16, 128, 1024, k} {
		b.Run(fmt.Sprintf("alpha=%d", alpha), func(b *testing.B) {
			cache, err := concurrent.New(concurrent.Config{Capacity: k, Alpha: alpha, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			srv := New(cache)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln)
			defer srv.Close()

			keys := workload.Zipf{Universe: 2 * k, S: 0.9, Shuffle: true}.Generate(b.N, 11)
			b.ResetTimer()
			res, err := load.Run(load.Config{
				Addr:        ln.Addr().String(),
				Conns:       4,
				Keys:        keys,
				Pipeline:    16,
				ValueSize:   32,
				ReadThrough: true,
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			snap := cache.Snapshot()
			b.ReportMetric(res.Throughput, "qps")
			b.ReportMetric(res.MissRatio(), "missratio")
			b.ReportMetric(float64(snap.ConflictEvictions)/float64(res.Ops), "conflict/op")
		})
	}
}
