// Package workload provides synthetic request-sequence generators: the
// benign workloads (uniform, Zipf, scans, phased working sets) used to
// exhibit the associativity threshold on "normal" inputs, and mixtures such
// as Zipf-with-scan-bursts used by the LRU-2 experiment (E14).
//
// All generators are deterministic in (parameters, seed), so every
// experiment is exactly reproducible.
package workload

import (
	"fmt"
	"math"

	"repro/internal/hashfn"
	"repro/internal/trace"
)

// Generator produces request sequences of a requested length.
type Generator interface {
	// Name identifies the generator (used in experiment tables).
	Name() string
	// Generate returns a sequence of n requests, deterministic in seed.
	Generate(n int, seed uint64) trace.Sequence
}

// rng is a small SplitMix64-based PRNG, self-contained so workloads do not
// depend on math/rand ordering guarantees across Go versions.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return hashfn.Mix64(r.state)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("workload: intn(%d)", n))
	}
	// Multiply-shift rejection-free mapping; bias is < 2^-32 for the n used
	// by the experiments, far below sampling noise.
	hi := (r.next() >> 32) * uint64(n) >> 32
	return int(hi)
}

// float64 returns a uniform float in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Uniform draws each request independently and uniformly from a universe of
// the given size.
type Uniform struct {
	Universe int
	// Base offsets item identifiers, letting disjoint workloads coexist.
	Base trace.Item
}

// Name implements Generator.
func (u Uniform) Name() string { return fmt.Sprintf("uniform(U=%d)", u.Universe) }

// Generate implements Generator.
func (u Uniform) Generate(n int, seed uint64) trace.Sequence {
	if u.Universe <= 0 {
		panic("workload: Uniform.Universe must be positive")
	}
	r := newRNG(seed)
	out := make(trace.Sequence, n)
	for i := range out {
		out[i] = u.Base + trace.Item(r.intn(u.Universe))
	}
	return out
}

// Zipf draws requests from a Zipf distribution over a finite universe:
// item rank i (1-based) has probability proportional to 1/i^S. It uses an
// exact inverse-CDF sampler (zipfSampler), valid for any S ≥ 0 (S = 0
// degenerates to uniform).
type Zipf struct {
	Universe int
	S        float64
	Base     trace.Item
	// Shuffle, when true, randomly permutes ranks over the universe so that
	// popularity is uncorrelated with item identifier. Without shuffling,
	// item 0 is the hottest.
	Shuffle bool
}

// Name implements Generator.
func (z Zipf) Name() string { return fmt.Sprintf("zipf(U=%d,s=%.2f)", z.Universe, z.S) }

// Generate implements Generator.
func (z Zipf) Generate(n int, seed uint64) trace.Sequence {
	if z.Universe <= 0 {
		panic("workload: Zipf.Universe must be positive")
	}
	zs := newZipfSampler(z.Universe, z.S)
	r := newRNG(seed)

	perm := identityPerm(z.Universe)
	if z.Shuffle {
		shuffle(perm, r)
	}

	out := make(trace.Sequence, n)
	for i := range out {
		out[i] = z.Base + trace.Item(perm[zs.rank(r.float64())])
	}
	return out
}

// zipfSampler inverts the Zipf CDF over ranks 0..universe-1 exactly:
// rank(u) is the smallest i with cdf[i] > u. A guide table (Chen & Asau,
// "On generating random variates from an empirical distribution", AIIE
// Trans. 1974) starts the search near the answer instead of binary
// searching the whole CDF: guide[j] is the smallest i whose own bucket
// int(cdf[i]*m) is at least j. Since cdf[rank(u)] > u, the answer's bucket
// is at least u's, so guide[int(u*m)] never overshoots it; with
// m = universe the forward scan from there averages about two comparisons.
type zipfSampler struct {
	cdf   []float64
	guide []int32
}

func newZipfSampler(universe int, s float64) zipfSampler {
	cdf := make([]float64, universe)
	total := 0.0
	for i := 0; i < universe; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[universe-1] = 1 // guard against rounding; also ends every scan
	guide := make([]int32, universe)
	m, i := float64(universe), 0
	for j := range guide {
		for int(cdf[i]*m) < j {
			i++
		}
		guide[j] = int32(i)
	}
	return zipfSampler{cdf: cdf, guide: guide}
}

// rank maps u in [0, 1) to its rank. u*m rounds below m for every u < 1,
// so int(u*m) indexes the guide table.
func (z zipfSampler) rank(u float64) int {
	i := int(z.guide[int(u*float64(len(z.guide)))])
	for z.cdf[i] <= u {
		i++
	}
	return i
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func shuffle(p []int, r *rng) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Scan cycles sequentially through a universe: 0, 1, ..., U−1, 0, 1, ...
// A scan over a working set slightly smaller than the cache is the
// canonical workload where set-associativity pays for its buckets.
type Scan struct {
	Universe int
	Base     trace.Item
}

// Name implements Generator.
func (s Scan) Name() string { return fmt.Sprintf("scan(U=%d)", s.Universe) }

// Generate implements Generator.
func (s Scan) Generate(n int, _ uint64) trace.Sequence {
	if s.Universe <= 0 {
		panic("workload: Scan.Universe must be positive")
	}
	out := make(trace.Sequence, n)
	for i := range out {
		out[i] = s.Base + trace.Item(i%s.Universe)
	}
	return out
}

// Phases emulates program phase behaviour: the sequence is divided into
// phases of PhaseLen requests; each phase draws uniformly from a fresh
// working set of SetSize items carved out of a shared universe.
type Phases struct {
	PhaseLen int
	SetSize  int
	Universe int
	Base     trace.Item
}

// Name implements Generator.
func (p Phases) Name() string {
	return fmt.Sprintf("phases(len=%d,set=%d,U=%d)", p.PhaseLen, p.SetSize, p.Universe)
}

// Generate implements Generator.
func (p Phases) Generate(n int, seed uint64) trace.Sequence {
	if p.PhaseLen <= 0 || p.SetSize <= 0 || p.Universe < p.SetSize {
		panic("workload: invalid Phases parameters")
	}
	r := newRNG(seed)
	out := make(trace.Sequence, 0, n)
	for len(out) < n {
		// Draw a fresh working set for this phase.
		set := make([]trace.Item, p.SetSize)
		for i := range set {
			set[i] = p.Base + trace.Item(r.intn(p.Universe))
		}
		for i := 0; i < p.PhaseLen && len(out) < n; i++ {
			out = append(out, set[r.intn(p.SetSize)])
		}
	}
	return out
}

// ZipfWithScans interleaves a hot Zipf working set with periodic one-shot
// scan bursts over cold items that are never revisited. The bursts are the
// "isolated accesses" of the paper's footnote 3: LRU caches them eagerly and
// suffers, LRU-2 ignores items seen only once (experiment E14).
type ZipfWithScans struct {
	HotUniverse int
	S           float64
	// BurstEvery inserts a scan burst after every BurstEvery hot requests.
	BurstEvery int
	// BurstLen is the number of distinct never-reused cold items per burst.
	BurstLen int
	Base     trace.Item
}

// Name implements Generator.
func (z ZipfWithScans) Name() string {
	return fmt.Sprintf("zipf+scans(U=%d,s=%.2f,every=%d,len=%d)",
		z.HotUniverse, z.S, z.BurstEvery, z.BurstLen)
}

// Generate implements Generator.
func (z ZipfWithScans) Generate(n int, seed uint64) trace.Sequence {
	if z.HotUniverse <= 0 || z.BurstEvery <= 0 || z.BurstLen < 0 {
		panic("workload: invalid ZipfWithScans parameters")
	}
	zs := newZipfSampler(z.HotUniverse, z.S)
	r := newRNG(seed)
	out := make(trace.Sequence, 0, n)
	// Cold items start above the hot universe and are never repeated.
	cold := z.Base + trace.Item(z.HotUniverse)
	sinceBurst := 0
	for len(out) < n {
		if sinceBurst == z.BurstEvery {
			sinceBurst = 0
			for i := 0; i < z.BurstLen && len(out) < n; i++ {
				out = append(out, cold)
				cold++
			}
			continue
		}
		out = append(out, z.Base+trace.Item(zs.rank(r.float64())))
		sinceBurst++
	}
	return out
}

// Fixed replays a pre-built sequence, truncating or cycling to the requested
// length. It adapts hand-built sequences (e.g. adversarial ones) to the
// Generator interface.
type Fixed struct {
	Label string
	Seq   trace.Sequence
}

// Name implements Generator.
func (f Fixed) Name() string { return f.Label }

// Generate implements Generator.
func (f Fixed) Generate(n int, _ uint64) trace.Sequence {
	if len(f.Seq) == 0 {
		panic("workload: Fixed with empty sequence")
	}
	out := make(trace.Sequence, n)
	for i := range out {
		out[i] = f.Seq[i%len(f.Seq)]
	}
	return out
}

// Markov is a two-state locality model: with probability Stickiness the
// next request re-draws from a small hot set around the previous item;
// otherwise it jumps uniformly into the universe (and the hot neighbourhood
// re-centres there). It produces the bursty temporal locality of real
// access traces that neither Zipf (no temporal correlation) nor Scan (no
// randomness) captures.
type Markov struct {
	Universe int
	// Neighbourhood is the size of the hot window around the current locus.
	Neighbourhood int
	// Stickiness is the probability of staying local, in [0, 1).
	Stickiness float64
	Base       trace.Item
}

// Name implements Generator.
func (m Markov) Name() string {
	return fmt.Sprintf("markov(U=%d,nb=%d,p=%.2f)", m.Universe, m.Neighbourhood, m.Stickiness)
}

// Generate implements Generator.
func (m Markov) Generate(n int, seed uint64) trace.Sequence {
	if m.Universe <= 0 || m.Neighbourhood <= 0 || m.Neighbourhood > m.Universe {
		panic("workload: invalid Markov parameters")
	}
	if m.Stickiness < 0 || m.Stickiness >= 1 {
		panic("workload: Markov.Stickiness must be in [0, 1)")
	}
	r := newRNG(seed)
	out := make(trace.Sequence, n)
	locus := 0
	for i := range out {
		if r.float64() < m.Stickiness {
			out[i] = m.Base + trace.Item((locus+r.intn(m.Neighbourhood))%m.Universe)
		} else {
			locus = r.intn(m.Universe)
			out[i] = m.Base + trace.Item(locus)
		}
	}
	return out
}
