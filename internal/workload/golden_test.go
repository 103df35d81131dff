package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/trace"
)

// searchCDF is the binary search zipfSampler.rank replaced, kept as its
// reference: the smallest index i with cdf[i] > u.
func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// streamHash is FNV-1a over the keys' little-endian bytes.
func streamHash(seq trace.Sequence) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range seq {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestZipfStreamGolden pins the first 1<<20 keys of the Zipf streams the
// benchmark (node-hit, node-churn and lib-inproc, the two cluster
// workloads), the experiments, tracegen and cachecluster draw. The hashes
// were computed with the binary-search sampler this package used before
// the guide table; a sampler that moves one key moves hit ratios and the
// exact miss-ratio rows downstream, so it must show up here first.
func TestZipfStreamGolden(t *testing.T) {
	golden := []struct {
		gen  Generator
		seed uint64
		want uint64
	}{
		{Zipf{Universe: 16384, S: 0.99, Shuffle: true}, 1, 0xd06047dd53f3398c},
		{Zipf{Universe: 16384, S: 0.99, Shuffle: true}, 7, 0xa8426f0f6d0a60c2},
		{Zipf{Universe: 262144, S: 0.99, Shuffle: true}, 1, 0x8a9b6129bc13ab0f},
		{Zipf{Universe: 262144, S: 0.99, Shuffle: true}, 7, 0x3be715a453d913a5},
		{Zipf{Universe: 196608, S: 0.99, Shuffle: true}, 1, 0xeec21a66ff57b612},
		{Zipf{Universe: 196608, S: 0.99, Shuffle: true}, 7, 0x8f8e15a1ac06cb12},
		{Zipf{Universe: 196608, S: 1.2, Shuffle: true}, 1, 0x39f4246ed0f614de},
		{Zipf{Universe: 196608, S: 1.2, Shuffle: true}, 7, 0xc9338b0e0f0898e6},
		{Zipf{Universe: 1000, S: 0}, 1, 0xbc2cb906dd409a1d},
		{Zipf{Universe: 1000, S: 0}, 7, 0xc5eaa0df35c348d6},
		{Zipf{Universe: 1, S: 1}, 1, 0x637a2df54e222325},
		{Zipf{Universe: 1, S: 1}, 7, 0x637a2df54e222325},
		{ZipfWithScans{HotUniverse: 192, S: 0.6, BurstEvery: 256, BurstLen: 128}, 1, 0xc99526043dcd0c6f},
		{ZipfWithScans{HotUniverse: 192, S: 0.6, BurstEvery: 256, BurstLen: 128}, 7, 0x928484341fb5d5c3},
	}
	for _, g := range golden {
		if got := streamHash(g.gen.Generate(1<<20, g.seed)); got != g.want {
			t.Errorf("%s seed %d: stream hash %#016x, want %#016x", g.gen.Name(), g.seed, got, g.want)
		}
	}
}

// TestZipfSamplerMatchesSearch holds rank to the binary search on the
// inputs where a guide table can go wrong: every CDF value and its two
// float neighbours (the scan's stopping rule), every bucket's lower edge
// j/m and its neighbours (the guide's starting point), the top of [0, 1),
// and a run of generator draws. The benchmark's universe is checked at
// every 61st index: with s = 3 most of a large universe shares the top
// bucket, and each of those edges is a scan of tens of thousands of ranks
// (expected cost stays about two comparisons; the edges are the worst
// case, not the typical draw).
func TestZipfSamplerMatchesSearch(t *testing.T) {
	top := math.Nextafter(1, 0) // the largest u rng.float64 returns
	for _, c := range []struct {
		universes []int
		s         []float64
		stride    int
	}{
		{[]int{1, 2, 3, 7, 1000, 16384}, []float64{0, 0.6, 0.99, 1.2, 3}, 1},
		{[]int{196608}, []float64{0.99, 1.2}, 61},
	} {
		for _, universe := range c.universes {
			for _, s := range c.s {
				zs := newZipfSampler(universe, s)
				check := func(u float64) {
					if u < 0 || u >= 1 {
						return
					}
					if got, want := zs.rank(u), searchCDF(zs.cdf, u); got != want {
						t.Fatalf("U=%d s=%g: rank(%v) = %d, binary search says %d", universe, s, u, got, want)
					}
				}
				m := float64(universe)
				for i := 0; i < universe; i += c.stride {
					for _, u := range []float64{zs.cdf[i], float64(i) / m} {
						check(u)
						check(math.Nextafter(u, 0))
						check(math.Nextafter(u, 1))
					}
				}
				check(0)
				check(top)
				r := newRNG(uint64(universe))
				for i := 0; i < 1<<14; i++ {
					check(r.float64())
				}
			}
		}
	}
}

// TestGuideIndexTopEdge: the largest u the generator draws, times any
// table size m, must truncate to at most m−1 — rank indexes the guide
// table with int(u*m) and no clamp.
func TestGuideIndexTopEdge(t *testing.T) {
	top := math.Nextafter(1, 0)
	check := func(m int) {
		if j := int(top * float64(m)); j > m-1 {
			t.Fatalf("int(%v * %d) = %d, past the guide table's last index %d", top, m, j, m-1)
		}
	}
	for m := 1; m <= 1<<16; m++ {
		check(m)
	}
	for _, m := range []int{196608, 262144, 1<<20 - 1, 1 << 20, 1<<20 + 1, 1<<31 - 1, 1 << 31, 1<<40 + 3} {
		check(m)
	}
}

// BenchmarkZipfGenerate prices node-churn's and lib-inproc's key stream
// (U = 262144, s = 0.99, shuffled) per key, set-up included, as the
// benchmark's workload.gen_ns_per_key does, over 1<<20 keys per stream.
func BenchmarkZipfGenerate(b *testing.B) {
	const n = 1 << 20
	g := Zipf{Universe: 262144, S: 0.99, Shuffle: true}
	for i := 0; i < b.N; i++ {
		g.Generate(n, uint64(i))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
}
