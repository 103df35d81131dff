package telemetry

import (
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 16-byte request trace identifier, minted by the cluster
// router and carried end to end as a request's trace context — across
// batch fan-out, fallback reads, quorum writes, and the read repairs they
// schedule. The zero value means "untraced".
type TraceID [16]byte

// IsZero reports whether the ID is the untraced zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits, the form every
// human-facing surface (cachecluster, -debug-addr JSON, slow-op dumps)
// uses so IDs can be grepped across nodes.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// Span is the flight recorder's one record: what one request did on one
// node and how long it took. The server keeps it in two rings — the slow
// ring, for requests over the slow threshold, and the span ring, for
// traced requests — and a request that is both leaves the same record in
// each. The key is retained only as a scrambled hash (HashKey), never
// verbatim. Records from different nodes that share a TraceID are the
// same logical request seen at each hop — joining them reconstructs the
// request's cluster-side path, including the read repairs the router sent
// after answering.
type Span struct {
	// Op is the wire opcode byte the node served.
	Op byte
	// Status is the wire status byte of the response.
	Status byte
	// TraceID identifies the originating request; all-zero when it was
	// not traced.
	TraceID TraceID
	// KeyHash is HashKey of the operation's key (0 for keyless ops).
	KeyHash uint64
	// DurationNanos is the service time.
	DurationNanos uint64
	// Version is the value version involved (stored version of a GET hit,
	// assigned version of a SET; 0 otherwise).
	Version uint64
	// UnixNanos is the wall-clock completion time.
	UnixNanos uint64
}

// Duration returns the service time as a time.Duration.
func (s Span) Duration() time.Duration { return time.Duration(s.DurationNanos) }

// The server's two ring capacities.
const (
	// SlowRingSize is the capacity of the slow ring.
	SlowRingSize = 256
	// SpanRingSize is the capacity of the span ring.
	SpanRingSize = 1024
)

// SpanRing is a fixed-size ring buffer of records: the newest records
// win, the total is counted monotonically, and Append performs no
// allocation. Only slow or traced requests reach a ring, so Append is off
// the common path and a mutex beats the complexity of a lock-free ring.
type SpanRing struct {
	mu    sync.Mutex
	recs  []Span
	next  int // ring write position
	full  bool
	total atomic.Uint64
}

// NewSpanRing builds a ring of the given capacity, which must be
// positive.
func NewSpanRing(size int) *SpanRing { return &SpanRing{recs: make([]Span, size)} }

// Append records one span, overwriting the oldest once the ring is full.
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
