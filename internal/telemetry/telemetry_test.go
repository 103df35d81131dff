package telemetry

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestBucketIndexProperties sweeps representative values across the full
// uint64 range and pins the invariants quantile reconstruction relies on:
// indices are in range, non-decreasing in the value, exact below
// SubBuckets, and every bucket's low bound maps back to that bucket.
func TestBucketIndexProperties(t *testing.T) {
	prev := -1
	var prevV uint64
	check := func(v uint64) {
		i := bucketIndex(v)
		if i < 0 || i >= NumBuckets {
			t.Fatalf("bucketIndex(%d) = %d, out of [0,%d)", v, i, NumBuckets)
		}
		if i < prev {
			t.Fatalf("bucketIndex not monotonic: v=%d idx=%d after v=%d idx=%d", v, i, prevV, prev)
		}
		if lo := BucketLow(i); bucketIndex(lo) != i {
			t.Fatalf("BucketLow(%d) = %d maps to bucket %d", i, lo, bucketIndex(lo))
		}
		prev, prevV = i, v
	}
	for v := uint64(0); v < 4096; v++ {
		check(v)
	}
	for shift := uint(12); shift < 64; shift++ {
		base := uint64(1) << shift
		for _, off := range []uint64{0, 1, base / 3, base/2 + 1, base - 1} {
			check(base + off)
		}
	}
	check(^uint64(0))

	for v := uint64(0); v < SubBuckets; v++ {
		if bucketIndex(v) != int(v) {
			t.Fatalf("small value %d not exact: bucket %d", v, bucketIndex(v))
		}
	}
	// The low bound of bucket i must not exceed any value mapping to i —
	// i.e. relative bucket width ≤ 1/SubBuckets above the exact region.
	for i := SubBuckets; i < NumBuckets-1; i++ {
		lo, next := BucketLow(i), BucketLow(i+1)
		if next <= lo {
			t.Fatalf("bucket %d bounds not increasing: [%d, %d)", i, lo, next)
		}
		if width := next - lo; width > lo/SubBuckets+1 {
			t.Fatalf("bucket %d width %d exceeds %d/16", i, width, lo)
		}
	}
}

// TestQuantileAccuracy records a known distribution and checks the
// reconstructed quantiles stay within the histogram's 1/SubBuckets
// relative-error bound.
func TestQuantileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, 0, 100000)
	for i := 0; i < 100000; i++ {
		// Log-uniform from ~1µs to ~16ms, the latency range that matters.
		v := uint64(1000) << uint(rng.Intn(15))
		v += uint64(rng.Int63n(int64(v)))
		vals = append(vals, v)
		h.RecordNanos(v)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(vals)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(vals))
	}
	sorted := append([]uint64(nil), vals...)
	for i := range sorted {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := sorted[int(p*float64(len(sorted)-1))]
		got := uint64(s.Quantile(p))
		err := float64(got)/float64(exact) - 1
		if err < 0 {
			err = -err
		}
		// Midpoint answers are within half a bucket width of the truth, but
		// rank quantization adds a little; allow the full bucket width.
		if err > 1.0/SubBuckets {
			t.Errorf("p%.3f = %d, exact %d, relative error %.3f > %.3f", p, got, exact, err, 1.0/SubBuckets)
		}
	}
	var sum uint64
	for _, v := range vals {
		sum += v
	}
	exactMean := float64(sum) / float64(len(vals))
	if got := float64(s.Mean()); math.Abs(got/exactMean-1) > 1.0/SubBuckets {
		t.Errorf("Mean = %v, exact %v, beyond the 1/%d midpoint bound", got, exactMean, SubBuckets)
	}
}

// TestQuantileEdgeCases pins the empty and single-sample answers.
func TestQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Error("empty snapshot must answer 0")
	}
	var h Histogram
	h.Record(5 * time.Millisecond)
	s := h.Snapshot()
	for _, p := range []float64{0, 0.5, 1, -1, 2} {
		got := s.Quantile(p)
		if got < 4*time.Millisecond || got > 6*time.Millisecond {
			t.Errorf("single-sample Quantile(%v) = %v, want ~5ms", p, got)
		}
	}
	h.Record(-time.Second) // negative clamps to 0, must not panic
	if h.Snapshot().Count != 2 {
		t.Error("negative duration not recorded as a clamped sample")
	}
}

// TestMergeProperty is the satellite-required property test: merging the
// snapshots of two independent recorders equals the snapshot of one
// recorder fed both streams.
func TestMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b, both Histogram
	for i := 0; i < 20000; i++ {
		v := uint64(rng.Int63()) >> uint(rng.Intn(40))
		if rng.Intn(2) == 0 {
			a.RecordNanos(v)
		} else {
			b.RecordNanos(v)
		}
		both.RecordNanos(v)
	}
	merged := a.Snapshot()
	bs := b.Snapshot()
	merged.Merge(&bs)
	want := both.Snapshot()
	if merged != want {
		t.Fatal("merge of snapshots != snapshot of merged stream")
	}
	// Merge must be order-independent too.
	merged2 := b.Snapshot()
	as := a.Snapshot()
	merged2.Merge(&as)
	if merged2 != want {
		t.Fatal("merge is order-dependent")
	}
}

// TestConcurrentRecordSnapshot is the -race stress: hammer Record from
// many goroutines while snapshotting, then verify no sample was lost.
func TestConcurrentRecordSnapshot(t *testing.T) {
	var h Histogram
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent snapshotter
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				var n uint64
				for _, c := range s.Buckets {
					n += c
				}
				if n != s.Count {
					t.Error("snapshot Count != sum of buckets")
					return
				}
			}
		}
	}()
	var workersWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func(seed int64) {
			defer workersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.RecordNanos(uint64(rng.Int63n(1 << 30)))
			}
		}(int64(w))
	}
	workersWG.Wait()
	close(stop)
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*perWorker {
		t.Fatalf("lost samples: Count = %d, want %d", got, workers*perWorker)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(2)
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("Counter = %d, want 8000", c.Load())
	}
}

func TestHashKey(t *testing.T) {
	seen := map[uint64]bool{}
	for k := uint64(0); k < 1000; k++ {
		h := HashKey(k)
		if h == k {
			t.Fatalf("HashKey(%d) is identity", k)
		}
		if seen[h] {
			t.Fatalf("HashKey collision at %d", k)
		}
		seen[h] = true
	}
}

// TestRecordZeroAllocs is the satellite-required assertion: the Record
// path must not allocate.
func TestRecordZeroAllocs(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Record(123456 * time.Nanosecond) }); n != 0 {
		t.Fatalf("Histogram.Record allocates %.1f/op, want 0", n)
	}
	var c Counter
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %.1f/op, want 0", n)
	}
}
