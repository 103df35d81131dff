package telemetry

import (
	"testing"
	"time"

	"repro/internal/workload"
)

// BenchmarkRecord measures the hot-path cost of one histogram sample —
// the number TestRecordShareOfGetP50 (internal/server) compares to the
// per-op service time to bound instrumentation overhead.
func BenchmarkRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.RecordNanos(uint64(i)*2654435761 + 1)
	}
}

// BenchmarkRecordParallel shows contention behavior: per-op histograms are
// touched by every connection goroutine at once.
func BenchmarkRecordParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := uint64(12345)
		for pb.Next() {
			v = v*2654435761 + 1
			h.RecordNanos(v)
		}
	})
}

// BenchmarkTopKRecord measures the cost of one hot-key sketch sample the
// way the server takes one — HashKey of the request key, then Record —
// over a seeded Zipf stream as skewed and as wide as the standing
// benchmark's, so both the tracked-key increment and the eviction of the
// sketch's minimum are on the path. The server pays it for one request in
// SampleWeight; TestObserveShareOfGetP50 (internal/server) prices that
// whole path.
func BenchmarkTopKRecord(b *testing.B) {
	keys := workload.Zipf{Universe: 16384, S: 0.99}.Generate(1<<16, 1)
	t := NewTopK(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Record(HashKey(uint64(keys[i&(1<<16-1)])), 1)
	}
}

// BenchmarkSnapshot prices the read side (taken per METRICS request).
func BenchmarkSnapshot(b *testing.B) {
	var h Histogram
	for i := 0; i < 10000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := h.Snapshot()
		_ = s.Count
	}
}
