package telemetry

import (
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 16-byte request trace identifier, minted by the cluster
// router and carried end to end through the wire v6 trace context — across
// batch fan-out, fallback reads, quorum writes, and the read repairs they
// schedule. The zero value means "untraced".
type TraceID [16]byte

// IsZero reports whether the ID is the untraced zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits, the form every
// human-facing surface (cachecluster, -debug-addr JSON, slow-op dumps)
// uses so IDs can be grepped across nodes.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// Span is one sampled request observation on one node: what a traced
// request did there and how long each part took. The key is retained only
// as a scrambled hash (HashKey), never verbatim. Spans from different
// nodes that share a TraceID are the same logical request seen at each
// hop — joining them reconstructs the request's cluster-side path,
// including the read repairs the router sent after answering.
type Span struct {
	// Op is the wire opcode byte the node served.
	Op byte
	// Status is the wire status byte of the response.
	Status byte
	// TraceID identifies the originating request.
	TraceID TraceID
	// KeyHash is HashKey of the operation's key (0 for keyless ops).
	KeyHash uint64
	// DurationNanos is the service time.
	DurationNanos uint64
	// UnixNanos is the wall-clock completion time.
	UnixNanos uint64
}

// Duration returns the service time as a time.Duration.
func (s Span) Duration() time.Duration { return time.Duration(s.DurationNanos) }

// DefaultSpanRingSize is the ring capacity of a SpanRing built by
// NewSpanRing when asked for size 0.
const DefaultSpanRingSize = 1024

// SpanRing is a fixed-size ring buffer of sampled spans. Like SlowLog it
// is allocation-free on the write path and mutex-protected: only sampled
// requests reach it (1/N as chosen by the router), so Append is off the
// common path and a mutex beats the complexity of a lock-free ring.
type SpanRing struct {
	mu    sync.Mutex
	recs  []Span
	next  int // ring write position
	full  bool
	total atomic.Uint64
}

// NewSpanRing builds a ring of the given capacity (DefaultSpanRingSize
// when size ≤ 0).
func NewSpanRing(size int) *SpanRing {
	if size <= 0 {
		size = DefaultSpanRingSize
	}
	return &SpanRing{recs: make([]Span, size)}
}

// Append records one span, overwriting the oldest once the ring is full.
// It performs no allocation.
func (r *SpanRing) Append(s Span) {
	r.mu.Lock()
	r.recs[r.next] = s
	r.next++
	if r.next == len(r.recs) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
	r.total.Add(1)
}

// Total returns the number of spans ever appended (the ring holds only
// the newest len ≤ cap of them).
func (r *SpanRing) Total() uint64 { return r.total.Load() }

// Cap returns the ring capacity.
func (r *SpanRing) Cap() int { return len(r.recs) }

// Snapshot returns the retained spans, oldest first.
func (r *SpanRing) Snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Span(nil), r.recs[:r.next]...)
	}
	out := make([]Span, 0, len(r.recs))
	out = append(out, r.recs[r.next:]...)
	return append(out, r.recs[:r.next]...)
}
