package telemetry

import "math"

// SampleWeight is the inverse of the hot-key sampling rate: a Sampler
// takes each event with probability 1/SampleWeight, and a taken event is
// recorded into a TopK with weight SampleWeight, so a sketch's counts stay
// unbiased estimates of true occurrences. It is a constant, not an option:
// SampleSlack states the error bound for this rate.
const SampleWeight = 16

// Sampler picks which events of one stream feed a hot-key sketch, each
// independently with probability 1/SampleWeight. It draws the gap to the
// next taken event from the geometric distribution, so an event that is
// passed over costs one decrement, and a periodic stream (a 16-key batch
// repeated forever) cannot alias with the sample the way every-Nth
// counting would. A Sampler is not safe for concurrent use; the server
// keeps one per connection.
type Sampler struct {
	x    uint64 // xorshift64 state, never 0
	skip uint64 // events still to pass over before the next take
}

// logKeep is ln(1 − 1/SampleWeight), the log of the per-event pass
// probability that turns a uniform draw into a geometric gap.
var logKeep = math.Log1p(-1.0 / SampleWeight)

// NewSampler seeds a Sampler. Streams with distinct seeds draw
// independent-looking gaps; the same seed replays the same choices.
func NewSampler(seed uint64) Sampler {
	s := Sampler{x: HashKey(seed) | 1}
	s.skip = s.gap()
	return s
}

// Take reports whether the next event is sampled.
func (s *Sampler) Take() bool {
	if s.skip > 0 {
		s.skip--
		return false
	}
	s.skip = s.gap()
	return true
}

// gap draws the number of events passed over before the next take,
// Geometric(1/SampleWeight) by inversion: for u uniform on (0, 1],
// P(⌊ln u / ln q⌋ ≥ k) = P(u ≤ qᵏ) = qᵏ with q = 1 − 1/SampleWeight.
func (s *Sampler) gap() uint64 {
	s.x ^= s.x << 13
	s.x ^= s.x >> 7
	s.x ^= s.x << 17
	u := float64(s.x>>11+1) / (1 << 53)
	return uint64(math.Log(u) / logKeep)
}

// SampleSlack bounds what sampling adds to a sketch count. For a key with
// n true occurrences, the weight its taken events carry, SampleWeight·S
// with S ~ Binomial(n, 1/SampleWeight), lies within n ± SampleSlack(n)
// except with probability 10⁻⁶. By Bernstein's inequality: each
// occurrence adds SampleWeight·B − 1 with B ~ Bernoulli(1/SampleWeight),
// a term of mean 0 whose variance and range are both m = SampleWeight − 1,
// so with L = ln(2/10⁻⁶) the bound is the root of t² = 2L(n·m + m·t/3).
// With space-saving's own Err on top, a reported entry of a sampled
// sketch satisfies Count − Err − SampleSlack(n) ≤ n ≤ Count +
// SampleSlack(n). The bound holds for a sum over nodes too, with n the
// summed occurrences. Relative to n it shrinks as 1/√n: about 22% at
// n = 10⁴ and 6.7% at n = 10⁵.
func SampleSlack(n uint64) float64 {
	m, l := float64(SampleWeight-1), math.Log(2/1e-6)
	a := m * l / 3
	return a + math.Sqrt(a*a+2*float64(n)*m*l)
}
