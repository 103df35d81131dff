package main

import (
	"math"
	"sort"
	"time"
)

// summary is how every reported value is carried: the median over the
// timed repetitions with the extremes and the repetition count beside it.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize reduces per-repetition values to their median, min and max.
// An empty input is the zero summary.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{Median: medianSorted(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// medianSorted is the middle of a sorted sample, the mean of the two
// middles when the count is even.
func medianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileSorted is the nearest-rank percentile internal/load reports:
// the sample at index p·(n−1), so p99 of fewer than 100 samples is the
// largest but one at most — never an interpolated value nobody observed.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[int(p*float64(len(s)-1))]
}

// repPercentiles sorts one repetition's latency samples in place and
// returns its own p50 and p99. Percentiles are taken per repetition and
// the median of those is reported; samples are never pooled across
// repetitions, so one slow repetition cannot own the tail.
func repPercentiles(samples []float64) (p50, p99 float64) {
	sort.Float64s(samples)
	return percentileSorted(samples, 0.50), percentileSorted(samples, 0.99)
}

// relDiff is the signed share by which b is worse than a: positive when
// b moved in the losing direction of a metric whose better side is given.
func relDiff(a, b float64, better string) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// pacer is the open-loop arrival schedule of one worker: batch j is due
// at start + offset + j·interval. The schedule is a pure function of j —
// it never looks at the clock, so a stall cannot reset it: every batch
// scheduled during a stall stays due when it was, and its latency is
// charged from then.
type pacer struct {
	start    time.Time
	offset   time.Duration
	interval time.Duration
}

// newPacer staggers workers evenly inside one interval so the aggregate
// arrival stream is as regular as each worker's own.
func newPacer(start time.Time, rate float64, depth, worker, workers int) pacer {
	interval := time.Duration(float64(depth*workers) / rate * float64(time.Second))
	return pacer{start: start, offset: interval * time.Duration(worker) / time.Duration(workers), interval: interval}
}

func (p pacer) due(j int) time.Time {
	return p.start.Add(p.offset + time.Duration(j)*p.interval)
}

// sleepAbove is how far off its due time a batch must be before the
// generator sleeps rather than busy-waits: two timer ticks of the coarsest
// kernel clock seen (HZ=250), since a sleep may overshoot by one.
const sleepAbove = 8 * time.Millisecond
