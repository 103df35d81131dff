// Package hashfn provides the indexing functions used by set-associative
// caches. The paper assumes a fully random hash h : U → [k/α]; we substitute
// a seeded SplitMix64-style finalizing mixer, which for deterministic
// (adversary-oblivious) item sets is statistically indistinguishable from a
// fully random function in the balls-and-bins events the analysis relies on
// (verified empirically in experiments E3/E4).
//
// The package also provides a deliberately weak modulo indexer used as an
// ablation: it violates the fully-random assumption on structured universes
// and makes the threshold phenomenon disappear (experiment E1).
package hashfn

import (
	"fmt"
	"math/bits"

	"repro/internal/trace"
)

// Hasher maps items to bucket indices in [0, Buckets()).
type Hasher interface {
	// Bucket returns the bucket index of x.
	Bucket(x trace.Item) int
	// Buckets returns the number of buckets n.
	Buckets() int
}

// Mix64 applies the SplitMix64 finalizer to x. It is a bijection on 64-bit
// integers with excellent avalanche behaviour.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Random is a seeded pseudo-random Hasher. Two Random hashers with the same
// seed and bucket count agree on every item; distinct seeds behave as
// independent draws of the indexing function, which is what rehashing needs.
type Random struct {
	seed    uint64
	buckets int
}

// NewRandom returns a Random hasher over n buckets. n must be positive.
func NewRandom(seed uint64, n int) *Random {
	if n <= 0 {
		panic(fmt.Sprintf("hashfn: bucket count %d must be positive", n))
	}
	return &Random{seed: seed, buckets: n}
}

// Bucket implements Hasher.
func (r *Random) Bucket(x trace.Item) int {
	h := Mix64(uint64(x) ^ r.seed)
	// Lemire's multiply-shift maps h uniformly onto [0, buckets) without the
	// modulo bias of h % buckets.
	hi, _ := bits.Mul64(h, uint64(r.buckets))
	return int(hi)
}

// Buckets implements Hasher.
func (r *Random) Buckets() int { return r.buckets }

// Seed returns the seed this hasher was built with.
func (r *Random) Seed() uint64 { return r.seed }

// Modulo is the weak indexer x mod n (plus a fixed offset so that seed-like
// variation is possible). It is *not* fully random: contiguous universes
// stripe perfectly evenly, and strided universes can all collide. Used only
// for the hash-quality ablation.
type Modulo struct {
	offset  uint64
	buckets int
}

// NewModulo returns a Modulo hasher over n buckets.
func NewModulo(offset uint64, n int) *Modulo {
	if n <= 0 {
		panic(fmt.Sprintf("hashfn: bucket count %d must be positive", n))
	}
	return &Modulo{offset: offset, buckets: n}
}

// Bucket implements Hasher.
func (m *Modulo) Bucket(x trace.Item) int {
	return int((uint64(x) + m.offset) % uint64(m.buckets))
}

// Buckets implements Hasher.
func (m *Modulo) Buckets() int { return m.buckets }

// SeedSequence derives a stream of independent-looking seeds from one master
// seed; used to give each trial in a multi-seed experiment its own hash
// function and workload randomness.
type SeedSequence struct {
	state uint64
}

// NewSeedSequence returns a SeedSequence starting from master.
func NewSeedSequence(master uint64) *SeedSequence {
	return &SeedSequence{state: master}
}

// Next returns the next derived seed. The underlying generator is SplitMix64,
// whose outputs are equidistributed over the full 64-bit period.
func (s *SeedSequence) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return Mix64(s.state)
}
