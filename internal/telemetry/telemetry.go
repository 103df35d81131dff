// Package telemetry is the server-side flight recorder: allocation-free,
// atomics-only primitives for recording what a hot request path did —
// log-bucketed latency histograms, monotonic counters, and a ring of
// request records (Span) — cheap enough to run always-on in the cached
// request loop.
//
// The design constraints, in order:
//
//   - Recording must be lock-free and allocation-free. Histogram.Record is
//     a bucket-index computation plus one atomic add; Counter.Add is one
//     atomic. A test pins 0 allocs/op and CI fails on regression
//     (TestRecordZeroAllocs).
//   - Snapshots must be mergeable: the cluster router fans METRICS out to
//     every member and merges the per-node histograms into one cluster
//     view, so HistogramSnapshot.Merge(a, b) of two nodes' snapshots must
//     equal the snapshot a single node would have produced had it recorded
//     both streams. Bucket-wise addition gives exactly that, and a property
//     test pins it.
//   - Percentiles must be reconstructable from the buckets. The histogram
//     is log-linear: SubBuckets linear sub-buckets per power of two, which
//     bounds the relative error of any reconstructed quantile by
//     1/SubBuckets (6.25%) — accurate enough to tell a 100µs p99 from a
//     10ms one, which is the job.
//
// The recording side (Histogram, Counter, SpanRing) is written
// against concurrent writers; the snapshot side is weakly consistent (a
// snapshot taken during concurrent recording may tear between buckets) but
// every count lands in exactly one bucket, so nothing is lost or double
// counted across snapshots of a quiescent recorder.
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: log-linear over nanoseconds.
const (
	// SubBits is log2 of the linear sub-bucket count per power of two.
	SubBits = 4
	// SubBuckets is the number of linear sub-buckets per power of two;
	// quantiles reconstructed from the buckets have relative error at most
	// 1/SubBuckets.
	SubBuckets = 1 << SubBits
	// NumBuckets is the total bucket count: SubBuckets exact buckets for
	// values below SubBuckets ns, then SubBuckets sub-buckets for each of
	// the 64−SubBits octaves from 2^SubBits through 2⁶³.
	NumBuckets = (64 - SubBits + 1) * SubBuckets
)

// bucketIndex maps a nanosecond value to its bucket. Values below
// SubBuckets map exactly; above, the bucket is identified by the position
// of the leading bit (the octave) and the next SubBits bits (the linear
// sub-bucket within it).
func bucketIndex(v uint64) int {
	if v < SubBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 1
	sub := (v >> (uint(exp) - SubBits)) & (SubBuckets - 1)
	return (exp-SubBits+1)*SubBuckets + int(sub)
}

// BucketLow returns the smallest nanosecond value that lands in bucket i.
// Together with the next bucket's low bound it delimits the bucket's value
// range; quantile reconstruction answers with the bucket midpoint.
func BucketLow(i int) uint64 {
	if i < SubBuckets {
		return uint64(i)
	}
	exp := i/SubBuckets + SubBits - 1
	sub := uint64(i % SubBuckets)
	return 1<<uint(exp) | sub<<(uint(exp)-SubBits)
}

// bucketMid returns the representative (midpoint) value of bucket i.
func bucketMid(i int) uint64 {
	lo := BucketLow(i)
	if i < SubBuckets {
		return lo // exact region
	}
	width := uint64(1) << uint(i/SubBuckets-1)
	return lo + width/2
}

// Histogram is a lock-free log-linear latency histogram. The zero value is
// ready to use. Record is safe for any number of concurrent callers and
// performs no allocation; Snapshot may run concurrently with Record and
// returns a weakly consistent copy.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
}

// Record adds one duration sample. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.RecordNanos(uint64(d))
}

// RecordNanos adds one sample of ns nanoseconds. It is a single atomic
// add — the sample's sum contribution is reconstructed from the bucket
// midpoint at snapshot time, trading exact means for half the hot-path
// cost (the overhead budget TestRecordShareOfGetP50 holds against GET p50).
func (h *Histogram) RecordNanos(ns uint64) {
	h.counts[bucketIndex(ns)].Add(1)
}

// Snapshot copies the histogram's current state. It is weakly consistent
// under concurrent Record: the per-bucket counts are each read atomically,
// but the set of buckets is not read as one atomic unit.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		if n := h.counts[i].Load(); n != 0 {
			s.Buckets[i] = n
			s.Count += n
			s.Sum += n * bucketMid(i)
		}
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, the mergeable
// unit the METRICS wire payload carries. Count is the total sample count
// (always the sum of Buckets) and Sum the total recorded nanoseconds
// reconstructed from bucket midpoints (relative error ≤ 1/SubBuckets, the
// same bound as quantiles — the recorder does not keep an exact sum so
// that RecordNanos stays a single atomic add).
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [NumBuckets]uint64
}

// Merge adds o's samples into s. Merging the snapshots of two recorders
// yields exactly the snapshot one recorder would have produced from both
// sample streams — the property that makes per-node histograms mergeable
// into a cluster view.
func (s *HistogramSnapshot) Merge(o *HistogramSnapshot) {
	for i, n := range o.Buckets {
		s.Buckets[i] += n
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Quantile reconstructs the p-quantile (0 ≤ p ≤ 1) from the buckets,
// answering the midpoint of the bucket holding the p·(Count−1)-th sample.
// Relative error is bounded by 1/SubBuckets. An empty snapshot answers 0.
func (s *HistogramSnapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(s.Count-1)))
	var seen uint64
	for i, n := range s.Buckets {
		seen += n
		if n != 0 && seen > rank {
			return time.Duration(bucketMid(i))
		}
	}
	// Unreachable when Count == ΣBuckets; answer the top occupied bucket.
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return time.Duration(bucketMid(i))
		}
	}
	return 0
}

// Mean returns the arithmetic mean of the recorded samples, derived from
// the bucket-midpoint Sum (relative error ≤ 1/SubBuckets).
func (s *HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// Counter is a monotonic atomic counter. The zero value is ready to use.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// HashKey scrambles a cache key for the flight recorder (SplitMix64
// finalizer: bijective, so distinct keys stay distinguishable, but not
// invertible by eyeball). Loggers use it so the flight recorder never
// spells raw keys.
func HashKey(key uint64) uint64 {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
