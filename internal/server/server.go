// Package server exposes a concurrent set-associative cache
// (internal/concurrent) over TCP using the wire protocol (internal/wire).
//
// The server is the production half of the paper's motivating use case: a
// sharded cache service whose lock granularity is the bucket. Each
// connection is served by one goroutine; requests are applied directly to
// the shared cache, so cross-connection contention is exactly per-bucket
// lock contention, and the α-tradeoff (fewer slots per bucket → more
// buckets → less contention, but more conflict misses) is measurable from
// the outside with cmd/cachecluster.
//
// A node rehashes on its own miss-count schedule only
// (concurrent.Config.RehashEveryMisses, cached -rehash-auto); no request
// starts one. A rehash uses the cache's incremental migration (Section 6.1
// of the paper), so live traffic continues while items drain from the old
// hash function to the new one.
//
// Every stored value carries a monotonically increasing per-key version
// (protocol v4). User SETs assign versions and always win; maintenance
// writes (PUT) carry the version their writer observed and are applied
// atomically only when strictly newer than the stored one — rejections
// answer VERSION_STALE and count in the STALE_REPAIRS counter. The check runs
// where the record is applied, so however long a repair was delayed on its
// way here, it cannot reinstate a value a concurrent user SET already
// replaced.
//
// The server also holds the node's view of the cluster topology: a member
// list stamped with a monotonically increasing epoch, pushed at it by the
// cluster router or a joining peer (TOPOLOGY) and served back to anyone
// who asks (a TOPOLOGY offer with no members). Every response carries the
// current epoch, so routers piggyback staleness detection on ordinary
// traffic and refresh only when the epoch moves. The server itself never routes — topology is data it
// stores and spreads, which is what lets a client bootstrap a whole
// cluster view from one seed address.
package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/concurrent"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// DefaultHintBudget bounds the bytes a node will hold in queued hints
// (HINT op) for dead peers. At the budget the oldest hint is dropped —
// safe, because hints are an optimization over anti-entropy, which
// repairs whatever a dropped hint would have. Override with
// SetHintBudget.
const DefaultHintBudget = 4 << 20

// DefaultHintReplay is how often the background replayer re-attempts
// delivery of queued hints to their targets. Override with
// SetHintReplayInterval (before the first hint arrives).
const DefaultHintReplay = 2 * time.Second

// DefaultSlowOpThreshold is the service time above which an operation is
// recorded in the slow-op ring. Loopback service times are microseconds,
// so 10ms marks something genuinely wrong — a stalled bucket lock, a
// value large enough to hurt, scheduler trouble — without the ring
// churning under healthy load. Override with SetSlowOpThreshold (cached
// -slow-op-threshold).
const DefaultSlowOpThreshold = 10 * time.Millisecond

// A stored record is what the server keeps in the cache under a key: a
// value with a monotonically increasing per-key version, or a tombstone:
// the versioned fact that the key was deleted, kept so no older copy of
// the value can be reinstated by delayed maintenance. A tombstone takes a
// slot like any record and leaves the way every record does, when its
// set's LRU policy evicts it.
// Which version a write stores under is its rule (see write): SET and DEL
// assign max(wall-clock nanos, stored+1) — per-key monotonic by
// construction, and wall-clock anchored so versions assigned on different
// nodes for successive writes of the same key compare the way their
// real-time order did — while PUT stores the version its record carries
// verbatim, so a record keeps its origin version as maintenance copies it
// between nodes. DEL is just SET's rule producing a tombstone, and a PUT
// of a tombstone record is how a delete replicates — deletes compete in
// the same version order as every other write. A record with no value may
// also carry a fill lease (lease.go): a placeholder for an absent key
// (version 0) or a tombstone.
//
// A record is one of five types, told apart by its Go type alone, so the
// store's release reads no line of the record it lets go:
//   - *valRec, a value in the server's arena (arena.go);
//   - *bigRec, a value over the arena's largest class, on the heap;
//   - *tombstone, a tombstone;
//   - *leasedTomb, a tombstone carrying a fill lease (lease.go);
//   - *fillLease, a lease placeholder for an absent key.
//
// The heap types hold no pointers, so the collector never scans them and
// a DEL's tombstone comes from the tiny allocator. A record is read only
// under its set's lock: the store releases an arena record under that
// lock when it leaves, and the arena hands it to the next write.

// tombstone is a tombstone record.
type tombstone struct{ ver uint64 }

// recView is what a stored record says, copied out under its set's lock;
// val aliases the record and dies with the lock.
type recView struct {
	ver        uint64
	val        []byte
	live, tomb bool
	lease      *fillLease
}

// viewOf reads the stored record v, under its set's lock. It reports false
// for a value that is not one of the server's records.
func viewOf(v interface{}) (recView, bool) {
	switch r := v.(type) {
	case *valRec:
		return recView{ver: r.ver, val: r.value(), live: true}, true
	case *bigRec:
		return recView{ver: r.ver, val: (*valRec)(r).value(), live: true}, true
	case *tombstone:
		return recView{ver: r.ver, tomb: true}, true
	case *leasedTomb:
		return recView{ver: r.ver, tomb: true, lease: (*fillLease)(r)}, true
	case *fillLease:
		return recView{lease: r}, true
	}
	return recView{}, false
}

// newValue copies req's value into a record of the server's arena; a
// tombstone has none.
func (s *Server) newValue(req *wire.Request) *valRec {
	if req.Tombstone {
		return nil
	}
	r := s.arena.alloc(len(req.Value))
	copy(r.value(), req.Value)
	return r
}

// record is a maintenance record as the server holds one in the hint
// queue: the wire's {key, version, tombstone} plus a value the server owns.
type record struct {
	wire.KeyRec
	val []byte
}

// Server serves a concurrent.Cache over TCP.
type Server struct {
	cache *concurrent.Cache
	// arena holds every stored value record; the cache's release function
	// gives one back (release).
	arena arena

	// sets and repairSets split write traffic by operation: user writes
	// (SET, FILL) versus replica maintenance (PUT: read repair, warm-up,
	// migration, hint replay, anti-entropy). Keeping them at the server
	// rather than in the cache means repair churn never skews the
	// cache-level counters the α experiments read. staleRepairs counts
	// PUTs rejected because the stored version was newer — each one a
	// lost-update race the check won.
	sets         atomic.Uint64
	repairSets   atomic.Uint64
	staleRepairs atomic.Uint64
	// hits and misses count the HIT and MISS answers GET and GETL gave,
	// added per connection at each flush (answers); the store's own
	// lookup counts also see tombstones and lease records.
	hits, misses atomic.Uint64

	// Topology state: the member list under topoMu, the epoch mirrored in
	// an atomic so every response handler can stamp it without locking.
	topoMu  sync.Mutex
	members []string
	epoch   atomic.Uint64

	// keysChunk overrides the KEYS stream chunk size (0 = DefaultKeysChunk);
	// tests shrink it to exercise multi-chunk streams cheaply.
	keysChunk atomic.Int64

	// stop is closed by Close; the background hint replayer exits on it.
	stop chan struct{}

	// Flight recorder (protocol v5). opHists holds one service-time
	// histogram per opcode, indexed by the op byte. All recording is
	// lock-free and allocation-free (internal/telemetry), so it stays on
	// even under benchmark load.
	opHists       [int(wire.OpLast) + 1]telemetry.Histogram
	bytesIn       telemetry.Counter
	bytesOut      telemetry.Counter
	connsAccepted telemetry.Counter
	slow          *telemetry.SpanRing // requests over slowThreshold
	slowThreshold atomic.Int64        // nanoseconds; ≤0 disables the slow ring

	// Fill leases (protocol v7, see lease.go) live in the store records;
	// the server keeps only the token source, the TTL and two counters.
	leaseTokens   atomic.Uint64 // last token issued, so never 0
	leaseTTL      atomic.Int64  // nanoseconds
	leasesGranted atomic.Uint64
	leasesExpired atomic.Uint64

	// tombstones is the TOMBSTONES gauge: up when a write stores a
	// tombstone record, down when the store releases one. A release can
	// run before the write that stored the record counts it, so it may dip
	// below zero for a moment; stats reads it clamped.
	tombstones atomic.Int64

	// Hinted-handoff state (protocol v8): writes a router could not land
	// on a dead owner, parked here by a live peer (HINT op) and replayed —
	// as PUTs — when the owner answers again. One
	// FIFO across targets under hintMu, byte-budgeted, oldest dropped at
	// the budget. The replayer goroutine starts lazily on the first hint.
	hintMu        sync.Mutex
	hints         []hint
	hintBytes     int
	hintBudget    int
	hintBudgetSet bool
	hintsQueued   atomic.Uint64
	hintsReplayed atomic.Uint64
	hintInterval  atomic.Int64 // nanoseconds
	hintOnce      sync.Once
	hintStarted   atomic.Bool
	hintDone      chan struct{}
	hintDial      func(addr string) (*wire.Client, error)

	// Tracing and hot-key attribution (protocol v6). spans retains one
	// record per traced request; hotKeys holds one always-on
	// space-saving sketch per traffic class, indexed by the wire hot-key
	// class byte, fed a 1-in-telemetry.SampleWeight sample of the requests
	// (see observe). Both record allocation-free, like the rest of the
	// flight recorder.
	spans   *telemetry.SpanRing
	hotKeys [int(wire.HotEvict) + 1]*telemetry.TopK

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New wraps cache in a server and installs the server's release function
// on it (concurrent.Cache.SetRelease), so values the cache lets go of
// return to the server's arena. The cache may be shared with in-process
// users, whose values the release function ignores; it must not be handed
// to a second server. The server adds no locking of its own beyond the
// cache's.
func New(cache *concurrent.Cache) *Server {
	s := &Server{
		cache:    cache,
		conns:    make(map[net.Conn]struct{}),
		stop:     make(chan struct{}),
		hintDone: make(chan struct{}),
		hintDial: wire.Dial,
		slow:     telemetry.NewSpanRing(telemetry.SlowRingSize),
		spans:    telemetry.NewSpanRing(telemetry.SpanRingSize),
	}
	for class := wire.HotGet; class <= wire.HotEvict; class++ {
		s.hotKeys[class] = telemetry.NewTopK(0)
	}
	s.slowThreshold.Store(int64(DefaultSlowOpThreshold))
	s.leaseTTL.Store(int64(DefaultLeaseTTL))
	s.hintInterval.Store(int64(DefaultHintReplay))
	cache.SetRelease(s.release)
	return s
}

// isRecord reports whether v is one of the server's records.
func isRecord(v interface{}) bool { _, ok := viewOf(v); return ok }

// release is the store's release function, called under the set lock of
// a record the store no longer holds: an arena record returns to the
// arena, and a tombstone leaves the TOMBSTONES gauge. It decides by the
// record's type and reads none of its bytes.
func (s *Server) release(v interface{}) {
	switch r := v.(type) {
	case *valRec:
		s.arena.free(r)
	case *tombstone, *leasedTomb:
		s.tombstones.Add(-1)
	}
}

// SetHintBudget configures the byte budget for queued hints (n == 0
// disables hint storage: every HINT is accepted and dropped). Must be
// called before the server receives traffic; the default is
// DefaultHintBudget.
func (s *Server) SetHintBudget(n int) {
	s.hintBudget = n
	s.hintBudgetSet = true
}

// SetHintReplayInterval configures how often queued hints are re-attempted;
// d ≤ 0 restores DefaultHintReplay. Must be set before the first hint
// arrives (the replayer reads it once at start).
func (s *Server) SetHintReplayInterval(d time.Duration) {
	if d <= 0 {
		d = DefaultHintReplay
	}
	s.hintInterval.Store(int64(d))
}

// SetSlowOpThreshold configures the service time above which an op is
// recorded in the slow-op ring; d ≤ 0 disables the ring. The default is
// DefaultSlowOpThreshold.
func (s *Server) SetSlowOpThreshold(d time.Duration) { s.slowThreshold.Store(int64(d)) }

// SetKeysChunk overrides the number of keys per KEYS stream frame (0
// restores wire.DefaultKeysChunk). Tests shrink it to exercise multi-chunk
// streams without millions of residents.
func (s *Server) SetKeysChunk(n int) { s.keysChunk.Store(int64(n)) }

// OfferTopology is the server's one topology operation. It applies the
// wire adoption rule to an offered topology: adopt it when it is strictly
// newer than the held view, or when no view is held yet; otherwise keep
// the current one. Offers with no members are never adopted — holding a
// bare epoch over an empty member list would let a later, lower epoch
// "win" and roll the monotonic epoch backwards — so an empty offer is a
// read. It returns the view the server holds after the offer, which the
// TOPOLOGY response reports so a losing offerer learns the newer topology
// in the same round trip. cmd/cached seeds a standalone node by offering
// its own address before it accepts connections.
func (s *Server) OfferTopology(t wire.Topology) wire.Topology {
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	if len(t.Members) > 0 && (t.Epoch > s.epoch.Load() || len(s.members) == 0) {
		s.members = append([]string(nil), t.Members...)
		s.epoch.Store(t.Epoch)
	}
	return wire.Topology{Epoch: s.epoch.Load(), Members: append([]string(nil), s.members...)}
}

// Cache returns the underlying cache (used by tests and embedders).
func (s *Server) Cache() *concurrent.Cache { return s.cache }

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It always closes ln.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()

	for seq := uint64(1); ; seq++ {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn, seq)
	}
}

// Addr returns the listening address, once Serve has been called.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes all live connections, and waits for their
// handlers — and the hint replayer, if it ever started — to finish. Then
// it deletes its records from the cache, which releases them, and returns
// the arena's chunks to the process-wide pool, so no resident value
// aliases a chunk the next server carves. In-process users' values stay.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	close(s.stop)
	if s.hintStarted.Load() {
		<-s.hintDone
	}
	for _, key := range s.cache.Keys() {
		s.cache.DeleteIf(key, isRecord)
	}
	s.arena.close()
	return err
}

// handleConn serves one connection; seq numbers it among the listener's
// connections and seeds its hot-key sampler.
func (s *Server) handleConn(conn net.Conn, seq uint64) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()

	s.connsAccepted.Add(1)
	r := wire.NewReader(countingReader{conn, &s.bytesIn})
	w := wire.NewWriter(countingWriter{conn, &s.bytesOut})
	if err := r.ReadPreamble(); err != nil {
		if errors.Is(err, wire.ErrVersionMismatch) {
			// Tell the peer *why* before closing: the ERROR frame layout is
			// stable across revisions, so even an older client reads the
			// documented version error instead of a bare EOF.
			w.WriteResponse(wire.Response{
				Status: wire.StatusError, Epoch: s.epoch.Load(), Err: err.Error(),
			})
			w.Flush()
		}
		return
	}
	var (
		smp  = telemetry.NewSampler(seq)
		resp wire.Response
		// end is when the previous response was encoded; queued says the
		// next request was already buffered behind it then.
		end    int64
		queued bool
		told   answers
	)
	defer s.addAnswers(&told)
	for {
		req, err := r.ReadRequest()
		if err != nil {
			// readFrame returns io.EOF bare for a clean close between
			// frames. Anything else is an ill-formed or truncated frame:
			// say why in its response slot and flush the answers to the
			// valid requests pipelined ahead of it (withheld so far because
			// more input was buffered) — then the conn is done either way.
			if err != io.EOF {
				w.WriteResponse(wire.Response{
					Status: wire.StatusError, Epoch: s.epoch.Load(), Err: err.Error(),
				})
				w.Flush()
			}
			return
		}
		// Service time: request decoded → response encoded, on one
		// monotonic clock read per request. A request that was already
		// buffered when its predecessor's response was encoded starts
		// where that one ended, so its time includes its own decode; any
		// other request starts when it has been decoded, so idle wait
		// between requests never pollutes the histograms.
		start := end
		if !queued {
			start = monoNow()
		}
		resp = wire.Response{}
		var displaced bool
		if req.Op == wire.OpKeys {
			// KEYS answers with a stream of chunk frames, not one response.
			resp.Status = wire.StatusKeys
			if err := s.streamKeys(w); err != nil {
				return
			}
		} else {
			var err error
			if displaced, err = s.apply(req, &resp, w); err != nil {
				return
			}
			told.count(resp.Status)
		}
		end = monoNow()
		s.observe(&smp, req, &resp, displaced, time.Duration(end-start))
		// Pipelining: only pay the syscall when the client has no more
		// requests already buffered.
		if queued = r.Buffered() > 0; !queued {
			s.addAnswers(&told)
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// answers tallies one connection's HIT and MISS answers since its last
// flush. Adding them to the server's counters once per flush, before the
// flush that ends the batch, keeps a shared atomic write off every GET
// and the counters exact for a client that has its batch's answers.
type answers struct{ hits, misses uint64 }

// count tallies one response by its status; only GET and GETL answer HIT
// or MISS, and a GETL grant or wait (LEASE) is neither.
func (a *answers) count(st wire.Status) {
	switch st {
	case wire.StatusHit:
		a.hits++
	case wire.StatusMiss:
		a.misses++
	}
}

// addAnswers moves a connection's tally into HITS and MISSES.
func (s *Server) addAnswers(a *answers) {
	if a.hits > 0 {
		s.hits.Add(a.hits)
	}
	if a.misses > 0 {
		s.misses.Add(a.misses)
	}
	*a = answers{}
}

// monoBase anchors monoNow. time.Since on a Time that carries a
// monotonic reading reads only the monotonic clock, half of what
// time.Now costs.
var monoBase = time.Now()

// monoNow returns monotonic nanoseconds since monoBase.
func monoNow() int64 { return int64(time.Since(monoBase)) }

// countingReader and countingWriter sit between the connection and the
// wire codecs, feeding the BYTES_IN/BYTES_OUT counters. They count per
// syscall (the codec layers above batch frames), so the cost is one
// atomic add per read/write — and one per whole vectored flush — not
// per byte or per frame.
type countingReader struct {
	r io.Reader
	c *telemetry.Counter
}

// Read forwards to the wrapped reader and counts the bytes delivered.
func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(uint64(n))
	return n, err
}

type countingWriter struct {
	w io.Writer
	c *telemetry.Counter
}

// Write forwards to the wrapped writer and counts the bytes sent.
func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(uint64(n))
	return n, err
}

// WriteBuffers lets the wire.Writer's corked flush reach the connection
// as one vectored write (writev) instead of one Write syscall per
// segment — without it, wrapping the conn in a byte counter would undo
// the batching the codec set up.
func (cw countingWriter) WriteBuffers(v *net.Buffers) (int64, error) {
	n, err := v.WriteTo(cw.w)
	cw.c.Add(uint64(n))
	return n, err
}

// observe records one request's service time into the per-op histogram
// and, only for the requests that need it, looks further. A request smp
// takes feeds its key into its op class's hot-key sketch — and, when its
// write displaced a resident, into the EVICT class's — with weight
// telemetry.SampleWeight, so the sketches estimate true counts within
// telemetry.SampleSlack. A traced request, or one over the slow threshold,
// leaves one record, read off one wall clock, in the span ring if traced
// and in the slow ring if slow; a traced slow request leaves the same
// record in both. The key is hashed only for those three, so the common
// request pays one histogram add and one sampler decrement.
func (s *Server) observe(smp *telemetry.Sampler, req *wire.Request, resp *wire.Response, displaced bool, d time.Duration) {
	op := int(req.Op)
	if op <= 0 || op >= len(s.opHists) {
		return // unknown op: answered with ERROR, nothing to attribute
	}
	s.opHists[op].Record(d)
	sampled := smp.Take()
	traced := !req.Trace.IsZero()
	thr := s.slowThreshold.Load()
	slow := thr > 0 && int64(d) >= thr
	if !sampled && !traced && !slow {
		return
	}
	var kh uint64
	var class byte
	switch req.Op {
	case wire.OpGet, wire.OpGetLease:
		kh, class = telemetry.HashKey(req.Key), wire.HotGet
	case wire.OpSet, wire.OpFill:
		kh, class = telemetry.HashKey(req.Key), wire.HotSet
	case wire.OpPut:
		// No hot-key class: the SET class tracks user traffic, and a
		// maintenance copy of a key the cluster already ranked hot would
		// double-count it.
		kh = telemetry.HashKey(req.Key)
	case wire.OpDel:
		kh, class = telemetry.HashKey(req.Key), wire.HotDel
	}
	if sampled {
		if class != 0 {
			s.hotKeys[class].Record(kh, telemetry.SampleWeight)
		}
		if displaced {
			// Conflict-pressure attribution: the EVICT class ranks keys whose
			// writes displace residents, the observable proxy for bucket
			// conflict pressure (the α tradeoff, seen per key).
			s.hotKeys[wire.HotEvict].Record(kh, telemetry.SampleWeight)
		}
	}
	if !traced && !slow {
		return
	}
	rec := telemetry.Span{
		Op:            byte(req.Op),
		Status:        byte(resp.Status),
		TraceID:       req.Trace,
		KeyHash:       kh,
		DurationNanos: uint64(d),
		Version:       resp.Version,
		UnixNanos:     uint64(time.Now().UnixNano()),
	}
	if traced {
		s.spans.Append(rec)
	}
	if slow {
		s.slow.Append(rec)
	}
}

// MetricsSnapshot assembles the flight-recorder sections selected by
// flags — the payload of a METRICS response, also served as JSON by
// cached's -debug-addr endpoint. Histograms with no samples are omitted.
func (s *Server) MetricsSnapshot(flags wire.MetricsFlags) *wire.Metrics {
	m := &wire.Metrics{Flags: flags}
	if flags&wire.MetricsHistograms != 0 {
		for op := int(wire.OpGet); op < len(s.opHists); op++ {
			if snap := s.opHists[op].Snapshot(); snap.Count > 0 {
				m.Hists = append(m.Hists, wire.OpHist{ID: byte(op), Snap: snap})
			}
		}
	}
	if flags&wire.MetricsCounters != 0 {
		m.Counters = s.stats().Counters()
	}
	if flags&wire.MetricsSlowOps != 0 {
		m.SlowOps = s.slow.Snapshot()
	}
	if flags&wire.MetricsTraces != 0 {
		m.Spans = s.spans.Snapshot()
	}
	if flags&wire.MetricsHotKeys != 0 {
		for class := wire.HotGet; class <= wire.HotEvict; class++ {
			if snap := s.hotKeys[class].Snapshot(); len(snap) > 0 {
				m.HotKeys = append(m.HotKeys, wire.HotKeyClass{Class: class, Keys: snap.Top(wire.MaxHotKeys)})
			}
		}
	}
	if flags&wire.MetricsOccupancy != 0 {
		shards := s.cache.ShardStats()
		m.Occupancy = make([]uint64, len(shards))
		for i, sh := range shards {
			m.Occupancy[i] = uint64(sh.Len)
		}
	}
	return m
}

// streamKeys writes the chunked KEYS response: a racy snapshot of the
// resident records — key, version, tombstone bit — split into bounded
// frames, ending in an empty terminator frame. Chunking keeps every frame
// far below MaxFrame, so a node's enumerable residency is no longer capped
// by the frame limit. Carrying versions and tombstones makes one KEYS pass
// sufficient for replica comparison: anti-entropy diffs two streams
// without a per-key read.
func (s *Server) streamKeys(w *wire.Writer) error {
	recs := make([]wire.KeyRec, 0, s.cache.Len())
	s.cache.Entries(func(key uint64, v interface{}) {
		// A lease placeholder is no record of the key: it is absent.
		if r, ok := viewOf(v); ok && (r.live || r.tomb) {
			recs = append(recs, wire.KeyRec{Key: key, Version: r.ver, Tombstone: r.tomb})
		}
	})
	chunk := int(s.keysChunk.Load())
	if chunk <= 0 {
		chunk = wire.DefaultKeysChunk
	}
	for off := 0; off < len(recs); off += chunk {
		end := off + chunk
		if end > len(recs) {
			end = len(recs)
		}
		if err := w.WriteResponse(wire.Response{
			Status: wire.StatusKeys, Keys: recs[off:end], Epoch: s.epoch.Load(),
		}); err != nil {
			return err
		}
	}
	return w.WriteResponse(wire.Response{Status: wire.StatusKeys, Epoch: s.epoch.Load()})
}

// apply executes one request against the cache and answers it on w,
// building the answer in resp, which the caller passes zeroed. It reports
// whether the request's write displaced a resident: the EVICT hot-key
// class's event, which a DEL's response does not carry (its Evicted means
// a live value was present).
func (s *Server) apply(req *wire.Request, resp *wire.Response, w *wire.Writer) (displaced bool, err error) {
	if req.Op == wire.OpGet || req.Op == wire.OpGetLease {
		return s.get(req, resp, w)
	}
	displaced = s.exec(req, resp)
	resp.Epoch = s.epoch.Load()
	return displaced, w.Respond(resp)
}

// get answers a GET or GETL on w. A HIT is encoded inside View, while the
// key's set lock keeps the stored record in place, so the answer copies
// the stored bytes once, into w's frame buffer.
func (s *Server) get(req *wire.Request, resp *wire.Response, w *wire.Writer) (displaced bool, err error) {
	for {
		sent := false
		s.cache.View(req.Key, func(v interface{}) {
			switch r, ok := viewOf(v); {
			case !ok:
				resp.Status = wire.StatusError
				resp.Err = fmt.Sprintf("non-wire value of type %T cached under key %d", v, req.Key)
			case r.live:
				resp.Status, resp.Value, resp.Version = wire.StatusHit, r.val, r.ver
				resp.Epoch = s.epoch.Load()
				err, sent = w.Respond(resp), true
				resp.Value = nil // the bytes are the store's again once the lock goes
			}
		})
		switch {
		case sent:
			return false, err
		case resp.Status == wire.StatusError:
		case req.Op == wire.OpGet:
			resp.Status = wire.StatusMiss
		default:
			// A tombstone is a resident record of an absence: reads see a
			// miss, and GETL may take a fresh fill lease over it — a
			// post-delete load from the origin is a legitimate new write, it
			// is only pre-delete copies the tombstone exists to block.
			var answered bool
			if displaced, answered = s.getLease(req.Key, resp); !answered {
				continue // a value landed since View: read it
			}
		}
		resp.Epoch = s.epoch.Load()
		return displaced, w.Respond(resp)
	}
}

// exec executes one request other than GET and GETL against the cache,
// answering in resp, and reports what apply does.
func (s *Server) exec(req *wire.Request, resp *wire.Response) (displaced bool) {
	switch req.Op {
	case wire.OpSet:
		s.sets.Add(1)
		_, ver, evicted, _ := s.write(assign, req.Key, 0, s.newValue(req), 0)
		resp.Status, resp.Evicted, resp.Version = wire.StatusOK, evicted, ver
		return evicted
	case wire.OpFill:
		s.sets.Add(1)
		applied, ver, evicted, _ := s.write(ifLeased, req.Key, 0, s.newValue(req), req.LeaseToken)
		if !applied {
			resp.Status, resp.Version = wire.StatusLeaseLost, ver
			return false
		}
		resp.Status, resp.Evicted, resp.Version = wire.StatusOK, evicted, ver
		return evicted
	case wire.OpPut:
		s.repairSets.Add(1)
		applied, ver, evicted, _ := s.write(ifNewer, req.Key, req.Version, s.newValue(req), 0)
		if !applied {
			s.staleRepairs.Add(1)
			resp.Status, resp.Version = wire.StatusVersionStale, ver
			return false
		}
		resp.Status, resp.Evicted, resp.Version = wire.StatusOK, evicted, ver
		return evicted
	case wire.OpDel:
		// DEL always answers OK; Evicted reports whether a live value was
		// present. The tombstone is written even when the key was absent
		// here: this replica may simply be the one that missed the write,
		// and the tombstone is what stops anti-entropy from copying the
		// value back from a replica that has it.
		_, ver, evicted, live := s.write(assign, req.Key, 0, nil, 0)
		resp.Status, resp.Evicted, resp.Version = wire.StatusOK, live, ver
		return evicted
	case wire.OpHint:
		rec := record{KeyRec: wire.KeyRec{Key: req.Key, Version: req.Version, Tombstone: req.Tombstone}, val: make([]byte, len(req.Value))}
		copy(rec.val, req.Value)
		s.queueHint(hint{target: req.Target, rec: rec})
		resp.Status = wire.StatusOK
	case wire.OpTopology:
		resp.Status, resp.Topology = wire.StatusMembers, s.OfferTopology(req.Topology)
	case wire.OpMetrics:
		resp.Status, resp.Metrics = wire.StatusMetrics, s.MetricsSnapshot(req.MetricsFlags)
	default:
		resp.Status, resp.Err = wire.StatusError, fmt.Sprintf("unknown op %v", req.Op)
	}
	return false
}

// writeRule is the one thing that differs between the server's writes:
// whether the record is stored, and under which version. Storing replaces
// the key's record, so every write ends the key's fill lease.
type writeRule int

const (
	// assign (SET, DEL) always stores, under max(wall-clock nanos,
	// stored+1) — strictly above everything this node ever held for the
	// key, and above any version an earlier write of the key was assigned
	// elsewhere whose real-time order precedes this one.
	assign writeRule = iota
	// ifNewer (PUT) stores the record's carried version verbatim, and only
	// when it is strictly newer than the stored one. A tombstone record
	// obeys it like a value: replicated deletes lose to anything newer,
	// exactly like replicated writes.
	ifNewer
	// ifLeased (FILL) stores under assign's version, but only while the
	// record still carries the unexpired lease the fill's token names: any
	// write since the grant replaced the record, and with it the lease. A
	// leased tombstone does not refuse the fill: its lease was granted
	// after the delete, so the fill is a fresh post-delete origin load,
	// stored above the tombstone's version so it wins replication
	// everywhere the tombstone went.
	ifLeased
)

// write applies one record to the cache under rule, as a single atomic
// read-check-write under the owning bucket's lock
// (concurrent.Cache.Update), so no concurrent write can interleave
// between the version comparison and the overwrite. val is the record's
// value, nil for a tombstone; version is the one a PUT carries (ifNewer
// only) and token the lease a FILL names (ifLeased only). It reports
// whether the record was stored, the version the key holds afterwards
// (the winning one on a refusal), whether storing displaced a resident,
// and whether the key held a live value before. A refused record returns
// to the arena; a stored one belongs to the store.
func (s *Server) write(rule writeRule, key, version uint64, val *valRec, token uint64) (applied bool, ver uint64, evicted, live bool) {
	now := time.Now().UnixNano()
	var lapsed *fillLease // the fill's own lease, if refused only for lateness
	applied, _, evicted = s.cache.Update(key, func(old interface{}, present bool) (interface{}, bool) {
		cur, ok := viewOf(old)
		live, lapsed = present && (cur.live || !ok), nil
		switch {
		case rule == ifNewer && present && version <= cur.ver:
			ver = cur.ver
			return nil, false
		case rule == ifLeased && (cur.lease == nil || cur.lease.token != token || now >= cur.lease.expires):
			if cur.lease != nil && cur.lease.token == token {
				lapsed = cur.lease
			}
			ver = cur.ver
			return nil, false
		case rule == ifNewer:
			ver = version
		default:
			ver = max(uint64(now), cur.ver+1)
		}
		if val == nil {
			return &tombstone{ver: ver}, true
		}
		val.ver = ver
		return val.stored(), true
	})
	if !applied {
		if val != nil {
			s.release(val.stored())
		}
		s.countExpired(lapsed)
		return false, ver, false, live
	}
	if val == nil {
		s.tombstones.Add(1)
	}
	return true, ver, evicted, live
}

// hint is one parked record awaiting a dead owner's return: the target
// that should hold it, and the record to replay there as a PUT. Replay is
// idempotent — the target's version check rejects anything it already has
// newer.
type hint struct {
	target string
	rec    record
}

// hintCost is a hint's accounting size against the byte budget: the value
// plus a fixed overhead so a flood of tiny (or tombstone) hints cannot
// queue unboundedly just because the values are empty.
func hintCost(h hint) int { return len(h.rec.val) + 64 }

// queueHint parks one hint, dropping the oldest queued hints when the
// byte budget is exceeded (dropping is safe: anti-entropy repairs
// whatever a hint would have). Starts the replayer on first use.
func (s *Server) queueHint(h hint) {
	budget := s.hintBudget
	if !s.hintBudgetSet {
		budget = DefaultHintBudget
	}
	s.hintMu.Lock()
	s.hints = append(s.hints, h)
	s.hintBytes += hintCost(h)
	for s.hintBytes > budget && len(s.hints) > 0 {
		s.hintBytes -= hintCost(s.hints[0])
		s.hints = s.hints[1:]
	}
	s.hintMu.Unlock()
	s.hintsQueued.Add(1)
	s.startHintReplayer()
}

// startHintReplayer launches the background hint replayer (once).
func (s *Server) startHintReplayer() {
	s.hintOnce.Do(func() {
		s.hintStarted.Store(true)
		interval := time.Duration(s.hintInterval.Load())
		go func() {
			defer close(s.hintDone)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.ReplayHints()
				case <-s.stop:
					return
				}
			}
		}()
	})
}

// ReplayHints attempts delivery of every queued hint to its target, and
// returns how many landed. A target that cannot be dialed keeps its hints
// for the next attempt; a response — OK or VERSION_STALE alike — counts
// the hint replayed, because a stale rejection means the target already
// holds something newer, which is the same outcome delivered. Runs on the
// background ticker; exported so tests and operators can force a
// deterministic replay.
func (s *Server) ReplayHints() int {
	total := 0
	for _, target := range s.hintTargets() {
		total += s.replayTarget(target)
	}
	return total
}

// hintTargets returns the distinct targets with queued hints, in
// first-queued order.
func (s *Server) hintTargets() []string {
	s.hintMu.Lock()
	defer s.hintMu.Unlock()
	var out []string
	for _, h := range s.hints {
		seen := false
		for _, t := range out {
			if t == h.target {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, h.target)
		}
	}
	return out
}

// takeHints removes and returns every queued hint for target, preserving
// order. The caller replays them outside the lock and requeues on failure
// — replaying as PUTs makes a duplicate or reordered delivery harmless, so crashing between take and replay costs only the hints.
func (s *Server) takeHints(target string) []hint {
	s.hintMu.Lock()
	defer s.hintMu.Unlock()
	var took []hint
	rest := s.hints[:0]
	for _, h := range s.hints {
		if h.target == target {
			took = append(took, h)
			s.hintBytes -= hintCost(h)
		} else {
			rest = append(rest, h)
		}
	}
	s.hints = rest
	return took
}

// requeueHints returns undelivered hints to the queue (at the back —
// order across requeues is irrelevant, the version check arbitrates).
func (s *Server) requeueHints(hints []hint) {
	s.hintMu.Lock()
	defer s.hintMu.Unlock()
	for _, h := range hints {
		s.hints = append(s.hints, h)
		s.hintBytes += hintCost(h)
	}
}

// replayTarget delivers target's queued hints as one pipelined batch of
// PUTs, returning how many were acknowledged. Whatever a transport failure
// left unacknowledged is requeued.
func (s *Server) replayTarget(target string) int {
	hints := s.takeHints(target)
	if len(hints) == 0 {
		return 0
	}
	cl, err := s.hintDial(target)
	if err != nil {
		s.requeueHints(hints)
		return 0
	}
	defer cl.Close()
	recs := make([]wire.KeyRec, len(hints))
	for i, h := range hints {
		recs[i] = h.rec.KeyRec
	}
	// The error needs no handling of its own: the counts say how many
	// hints were acknowledged before it, and the rest are requeued.
	applied, stale, _ := cl.PutBatch(recs, func(i int) []byte { return hints[i].rec.val })
	n := applied + stale
	s.requeueHints(hints[n:])
	s.hintsReplayed.Add(uint64(n))
	return n
}

// HintBacklog reports the queued hint count and byte total (test hook).
func (s *Server) HintBacklog() (n, bytes int) {
	s.hintMu.Lock()
	defer s.hintMu.Unlock()
	return len(s.hints), s.hintBytes
}

// stats gathers every METRICS counter.
func (s *Server) stats() *wire.Stats {
	snap := s.cache.Snapshot()
	return &wire.Stats{
		BytesIn:           s.bytesIn.Load(),
		BytesOut:          s.bytesOut.Load(),
		SlowOps:           s.slow.Total(),
		Conns:             s.connsAccepted.Load(),
		Hits:              s.hits.Load(),
		Misses:            s.misses.Load(),
		Evictions:         snap.Evictions,
		ConflictEvictions: snap.ConflictEvictions,
		FlushEvictions:    snap.FlushEvictions,
		Rehashes:          snap.Rehashes,
		Pending:           uint64(snap.Pending),
		Len:               uint64(snap.Len),
		Capacity:          uint64(snap.Capacity),
		Buckets:           uint64(snap.Buckets),
		Sets:              s.sets.Load(),
		RepairSets:        s.repairSets.Load(),
		StaleRepairs:      s.staleRepairs.Load(),
		LeasesGranted:     s.leasesGranted.Load(),
		LeasesExpired:     s.leasesExpired.Load(),
		HintsQueued:       s.hintsQueued.Load(),
		HintsReplayed:     s.hintsReplayed.Load(),
		Migrating:         snap.Migrating,
		Tombstones:        uint64(max(s.tombstones.Load(), 0)),
	}
}
