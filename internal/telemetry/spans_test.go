package telemetry

import (
	"sync"
	"testing"
)

// TestSlowLogRing pins ring semantics for the slow ring: its capacity,
// fed slow-op records (versioned, mostly untraced).
func TestSlowLogRing(t *testing.T) {
	checkRing(t, SlowRingSize, func(i int) Span {
		return Span{Op: byte(i), DurationNanos: uint64(i), Version: uint64(i)}
	})
}

// TestSpanRing pins ring semantics for the span ring: its capacity, fed
// traced-request records.
func TestSpanRing(t *testing.T) {
	checkRing(t, SpanRingSize, func(i int) Span {
		return Span{Op: byte(i), Status: 1, TraceID: TraceID{byte(i)}, KeyHash: uint64(i)}
	})
}

// checkRing drives a ring of the given capacity through partial fill and
// wrap, checking oldest-first snapshots and total counting; rec(i) is the
// i-th record appended.
func checkRing(t *testing.T, size int, rec func(i int) Span) {
	t.Helper()
	r := NewSpanRing(size)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("fresh ring holds %d spans", len(got))
	}
	for i := 1; i <= 3; i++ {
		r.Append(rec(i))
	}
	got := r.Snapshot()
	if len(got) != 3 || got[0] != rec(1) || got[2] != rec(3) {
		t.Fatalf("partial ring snapshot = %+v", got)
	}
	n := size + 6 // wrap the ring
	for i := 4; i <= n; i++ {
		r.Append(rec(i))
	}
	got = r.Snapshot()
	if len(got) != size || r.Cap() != size {
		t.Fatalf("full ring holds %d of cap %d, want %d", len(got), r.Cap(), size)
	}
	for i, s := range got { // the newest size records, oldest first
		if want := rec(n - size + 1 + i); s != want {
			t.Fatalf("ring[%d] = %+v, want %+v", i, s, want)
		}
	}
	if r.Total() != uint64(n) {
		t.Fatalf("Total = %d, want %d", r.Total(), n)
	}
}

// TestSpanRingRace is the satellite-required -race test: concurrent
// appenders and snapshotters, then an exact total check.
func TestSpanRingRace(t *testing.T) {
	r := NewSpanRing(64)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if s := r.Snapshot(); len(s) > r.Cap() {
					t.Error("snapshot larger than capacity")
					return
				}
			}
		}
	}()
	var aw sync.WaitGroup
	for w := 0; w < workers; w++ {
		aw.Add(1)
		go func(w int) {
			defer aw.Done()
			var id TraceID
			id[0] = byte(w)
			for i := 0; i < per; i++ {
				r.Append(Span{Op: 1, TraceID: id, DurationNanos: uint64(i)})
			}
		}(w)
	}
	aw.Wait()
	close(stop)
	wg.Wait()
	if r.Total() != workers*per {
		t.Fatalf("Total = %d, want %d", r.Total(), workers*per)
	}
}

// TestSpanRingZeroAllocs: recording must not allocate, at either ring
// size.
func TestSpanRingZeroAllocs(t *testing.T) {
	s := Span{Op: 1, TraceID: TraceID{1, 2, 3}, KeyHash: 9, DurationNanos: 100, Version: 7}
	for _, size := range []int{SlowRingSize, SpanRingSize} {
		r := NewSpanRing(size)
		if n := testing.AllocsPerRun(1000, func() { r.Append(s) }); n != 0 {
			t.Fatalf("SpanRing(%d).Append allocates %.1f/op, want 0", size, n)
		}
	}
}

// TestTraceID pins the zero test and hex rendering used to join IDs
// across nodes.
func TestTraceID(t *testing.T) {
	var z TraceID
	if !z.IsZero() {
		t.Error("zero TraceID not IsZero")
	}
	id := TraceID{0xab, 0x01}
	if id.IsZero() {
		t.Error("nonzero TraceID reports IsZero")
	}
	if got := id.String(); got != "ab010000000000000000000000000000" {
		t.Errorf("String = %q", got)
	}
}
