// Package wire defines the compact binary protocol spoken between the
// cached server (internal/server, cmd/cached) and its clients
// (cmd/cachecluster through the cluster router in internal/cluster, and the load
// harness in internal/load). The authoritative byte-level specification
// lives in ARCHITECTURE.md at the repository root; a spec test
// (spec_test.go) keeps that document and this package in lockstep.
//
// The protocol is deliberately in the same spirit as the SATR trace format:
// little-endian, versioned, and trivially parseable. A connection begins
// with a 8-byte client preamble:
//
//	magic   [4]byte  "SACW" (Set-Associative Cache Wire)
//	version uint32   16
//
// after which both directions carry length-prefixed frames:
//
//	length  uint32   body length in bytes (≤ MaxFrame)
//	body    length × byte
//
// A request body is an opcode byte followed by opcode-specific fields; the
// opcode byte's high bit (OpFlagTraced) is a frame flag marking a trace
// context — the request's 16-byte trace ID — inserted between the opcode
// byte and the opcode fields, so untraced requests pay zero extra bytes.
// A response body is a status byte, the server's topology epoch (uint64),
// then status-specific fields. Responses are returned in request order,
// so clients may pipeline: write any number of request frames before
// reading the matching responses. The server flushes its write
// buffer whenever it runs out of buffered requests, making batched round
// trips cheap.
//
//	GET      key uint64                        → Hit version, value | Miss
//	GETL     key uint64                        → Hit version, value |
//	                                             Lease token, TTL
//	SET      key uint64, value                 → OK evicted, version
//	FILL     key uint64, token uint64, value   → OK evicted, version |
//	                                             LeaseLost stored version
//	PUT      record                            → OK evicted, version |
//	                                             VersionStale stored version
//	DEL      key uint64                        → OK evicted, version
//	HINT     target addr, record               → OK
//	KEYS                                       → stream of Keys frames of
//	                                             {key, version, tombstone}
//	                                             records; a frame with count 0
//	                                             terminates
//	TOPOLOGY topology payload                  → Members (the view after apply;
//	                                             an empty offer is a read)
//	METRICS  flags byte                        → Metrics payload (see Metrics)
//
// A record is the store's own {key, version, tombstone} — the 17 bytes of
// one KEYS stream entry (KeyRec) — followed by the value; PUT and HINT
// carry it through one codec (appendRecord, parseRecord).
//
// Every write is one of three operations, and the operation is the rule:
//
//   - SET is a user write. It always stores, and the server assigns the
//     version max(wall-clock ns, stored+1), so a user write is strictly
//     newer than everything the node ever held for the key.
//   - FILL is the write half of GETL: it carries the nonzero token a LEASE
//     grant handed this caller and lands only while the key's record still
//     carries that exact unexpired lease; any write of the key ends it. A
//     fill that lost its lease answers LEASE_LOST with the stored version
//     (0 when the key is absent) and changes nothing.
//   - PUT is a maintenance write — read repair, warm-up, migration, hint
//     replay, anti-entropy: the record a copy of the key was observed at,
//     stored verbatim iff its version is strictly newer than the stored
//     one, VERSION_STALE (counted in Stats.StaleRepairs) otherwise. Both
//     refusals are successes by other means: fresher state already won.
//
// DEL is SET's rule storing a tombstone — the versioned fact that the key
// was deleted, resident until its set evicts it — and a PUT whose record
// is a tombstone is how replicas learn a delete, so no older live copy can
// ever win.
// HINT parks a record for an unreachable owner on a live member, which
// replays it to the target as a PUT once it answers again.
//
// The other protocol features, by the revision that introduced them:
// every response carries the server's topology epoch, TOPOLOGY moves
// member lists, and KEYS streams in bounded chunk frames (v3);
// values are versioned (v4); METRICS exports the server's flight recorder
// (v5); requests may carry a trace context, and METRICS gained the TRACES
// and HOTKEYS sections (v6); GETL and the LEASE/LEASE_LOST statuses (v7);
// tombstones, {key, version, tombstone} KEYS records and HINT (v8).
// Version 9 removed the SET flags byte — five bits and a legality table
// that encoded exactly the three operations above — in favour of the
// FILL and PUT opcodes, and made the decoders strict enough that every
// accepted frame re-encodes to itself (FuzzReadRequest,
// FuzzReadResponse). Version 10 removed the server's queued-PUT path:
// PUT's queued byte (a PUT body is exactly one record), three STATS rows,
// the REPAIR_WAIT histogram and the span record's queue-wait field.
// Version 11 removed the STATS op: its counters are METRICS counters
// numbered after CONNS (Stats is their typed view) and its per-shard
// detail is the OCCUPANCY section; opcode and status 4 stay unassigned.
// Version 12 removed MEMBERS: a TOPOLOGY offer with no members (epoch 0)
// reads the held view; opcode 7 stays unassigned, status 7 keeps the name
// of its payload. Version 13 removed the stale hint: the server decides a
// lease in the key's store record, so a LEASE body is exactly token and
// TTL, and the STALE_SERVES counter is gone. Version 14 removed the
// reaped-tombstone counter: a tombstone leaves by eviction, like every
// record, so nothing reaps it. Version 15 removed the trace-flag byte,
// whose one flag (SAMPLED) every minted context set: a trace context is
// its 16-byte ID, and a request is traced exactly when it carries one.
// The slow-op and TRACES sections of METRICS share one 50-byte record.
// Version 16 removed REHASH: a node rehashes on its own miss-count
// schedule only; opcode 5 stays unassigned.
// Peers of other versions are rejected at the preamble.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"repro/internal/telemetry"
)

// ErrVersionMismatch is wrapped by ReadPreamble when the peer speaks a
// protocol revision other than Version. The server detects it with
// errors.Is and answers with a StatusError frame naming both revisions
// before closing the connection — the ERROR layout (status byte, epoch,
// message) has been stable since v3, so a v3 client reads a clear error
// instead of hanging on a silently closed connection. (v1/v2 peers
// predate the epoch field and see its bytes as message prefix; they still
// get a framed ERROR rather than a hang.)
var ErrVersionMismatch = errors.New("unsupported protocol version")

// Protocol constants.
const (
	// Magic is the 4-byte connection preamble prefix.
	Magic = "SACW"
	// Version is the protocol revision; the preamble carries it and servers
	// reject mismatches, so a bump needs no compatibility path. The package
	// comment and ARCHITECTURE.md list what each revision changed.
	Version = 16
	// MaxFrame bounds a frame body; it caps both value sizes and the damage
	// a corrupt length prefix can do.
	MaxFrame = 16 << 20
	// DefaultKeysChunk is the key count per KEYS stream frame servers use
	// unless configured otherwise: 64Ki keys is a 512KiB frame, far below
	// MaxFrame, and a full enumeration costs one frame per chunk rather
	// than one unbounded frame per node.
	DefaultKeysChunk = 1 << 16
	// MaxMembers bounds the member count of a topology payload.
	MaxMembers = 4096
	// MaxAddrLen bounds one member address in a topology payload.
	MaxAddrLen = 255
)

// Topology is a cluster member list stamped with a monotonically increasing
// epoch. Servers hold one (offered by routers or joining peers via the
// TOPOLOGY op, which answers with the view held after the offer) and
// stamp its epoch into every response, which is how clients detect
// membership changes without polling.
// A server adopts a pushed topology only when it is strictly newer than the
// one it holds (or when it holds none), so stale pushes cannot roll the
// cluster view backwards.
type Topology struct {
	// Epoch is the version of the member list; it only ever increases.
	Epoch uint64
	// Members are the cluster node addresses, conventionally sorted.
	Members []string
}

// Validate rejects a topology whose member list could not have been
// produced by a conforming peer: too many members, empty or oversized
// addresses, or duplicates.
func (t Topology) Validate() error {
	if len(t.Members) > MaxMembers {
		return fmt.Errorf("wire: topology has %d members, max %d", len(t.Members), MaxMembers)
	}
	seen := make(map[string]bool, len(t.Members))
	for _, m := range t.Members {
		if m == "" {
			return fmt.Errorf("wire: topology has an empty member address")
		}
		if len(m) > MaxAddrLen {
			return fmt.Errorf("wire: topology member address %d bytes, max %d", len(m), MaxAddrLen)
		}
		if seen[m] {
			return fmt.Errorf("wire: topology lists member %q twice", m)
		}
		seen[m] = true
	}
	return nil
}

// appendTopology encodes t: epoch, member count, then length-prefixed
// addresses. The same layout serves TOPOLOGY requests and MEMBERS
// responses.
func appendTopology(body []byte, t Topology) []byte {
	body = binary.LittleEndian.AppendUint64(body, t.Epoch)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(t.Members)))
	for _, m := range t.Members {
		body = binary.LittleEndian.AppendUint16(body, uint16(len(m)))
		body = append(body, m...)
	}
	return body
}

// parseTopology decodes a topology payload and validates it.
func parseTopology(body []byte) (Topology, error) {
	if len(body) < 12 {
		return Topology{}, fmt.Errorf("wire: topology payload %d bytes, want ≥12", len(body))
	}
	t := Topology{Epoch: binary.LittleEndian.Uint64(body)}
	n := int(binary.LittleEndian.Uint32(body[8:]))
	if n > MaxMembers {
		return Topology{}, fmt.Errorf("wire: topology claims %d members, max %d", n, MaxMembers)
	}
	body = body[12:]
	t.Members = make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(body) < 2 {
			return Topology{}, fmt.Errorf("wire: topology payload truncated at member %d", i)
		}
		l := int(binary.LittleEndian.Uint16(body))
		body = body[2:]
		if len(body) < l {
			return Topology{}, fmt.Errorf("wire: topology member %d claims %d bytes, %d remain", i, l, len(body))
		}
		t.Members = append(t.Members, string(body[:l]))
		body = body[l:]
	}
	if len(body) != 0 {
		return Topology{}, fmt.Errorf("wire: topology payload has %d trailing bytes", len(body))
	}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// OpFlagTraced is the frame flag on the request opcode byte (its high
// bit) marking that the request's 16-byte trace ID follows the opcode
// byte before the opcode-specific fields; a traced frame whose ID is zero
// is a protocol error. The low 7 bits stay the opcode proper, and
// untraced requests are byte-identical to v5 frames: tracing costs
// nothing unless a request opts in.
const OpFlagTraced byte = 0x80

// Op is a request opcode.
type Op byte

// The request opcodes. Per-op telemetry (the server's service-time
// histograms, METRICS histogram IDs) is indexed by the opcode byte and
// sized by OpLast, so an opcode added to this block is countable,
// nameable and exportable by construction.
const (
	OpGet Op = iota + 1
	// OpSet (SET) is a user write: the server always stores the value and
	// assigns its version. The response is OK.
	OpSet
	OpDel
	_ // 4 was STATS until v11; never reassigned
	_ // 5 was REHASH until v15; never reassigned
	OpKeys
	_ // 7 was MEMBERS until v12; never reassigned
	OpTopology
	OpMetrics
	// OpGetLease (GETL, v7) is GET with lease semantics on a miss: a
	// resident key answers HIT exactly like GET, a miss answers LEASE —
	// granting this caller the fill token, or telling it someone else
	// already holds it. The body is the same 8-byte key as GET.
	OpGetLease
	// OpHint (HINT, v8) hands the receiving server a hinted-handoff
	// record whose intended owner — the target address in the body — was
	// unreachable. The server queues it under a byte budget and replays
	// it to the target as a PUT once the target is reachable again; over
	// budget, the oldest hints are dropped (the anti-entropy sweep is the
	// backstop). The response is OK.
	OpHint
	// OpFill (FILL, v9) is a lease fill, the write half of GETL: the body
	// carries the nonzero token a LEASE grant handed this caller, and the
	// server stores the value only while that lease is outstanding. The
	// response is OK or LEASE_LOST.
	OpFill
	// OpPut (PUT, v9) is a maintenance write: a record — a value or a
	// tombstone at the version its writer observed — stored verbatim iff
	// strictly newer than what the server holds. The response is OK or
	// VERSION_STALE.
	OpPut

	opEnd // one past the last opcode
)

// OpLast is the highest defined opcode.
const OpLast = opEnd - 1

// opNames is indexed by opcode; an opcode is defined exactly when it has a
// name, and TestSpecOpcodes requires an ARCHITECTURE.md row for each.
var opNames = [opEnd]string{
	OpGet: "GET", OpSet: "SET", OpDel: "DEL", OpKeys: "KEYS",
	OpTopology: "TOPOLOGY", OpMetrics: "METRICS", OpGetLease: "GETL",
	OpHint: "HINT", OpFill: "FILL", OpPut: "PUT",
}

// defined reports whether o is an opcode of this protocol revision.
func (o Op) defined() bool { return o < opEnd && opNames[o] != "" }

// String implements fmt.Stringer.
func (o Op) String() string {
	if o.defined() {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", byte(o))
}

// Status is a response status code.
type Status byte

// The response statuses.
const (
	StatusHit Status = iota + 1
	StatusMiss
	StatusOK
	_ // 4 was STATS until v11; never reassigned
	StatusError
	StatusKeys
	StatusMembers
	// StatusVersionStale rejects a PUT whose carried version was not
	// strictly newer than the stored one; the body reports the stored
	// (winning) version. It is a refusal, not a failure: the invariant the
	// writer wanted — never overwrite fresher state — held, so callers
	// treat it as a successful no-op.
	StatusVersionStale
	// StatusMetrics carries a METRICS response payload.
	StatusMetrics
	// StatusLease answers a GETL miss (v7). A nonzero token grants this
	// caller the lease: it alone should load the origin and fill the key
	// with a FILL carrying the token, within the TTL. A zero
	// token means another caller already holds the lease: the caller
	// should back off briefly and retry while the holder fills.
	StatusLease
	// StatusLeaseLost rejects a FILL whose lease is no longer
	// outstanding: it expired, or a write or an eviction replaced the
	// key's record since the grant. The body reports the stored version
	// (0 when the key is absent). Like VERSION_STALE it is a refusal, not a failure: the
	// invariant the protocol wants — at most one fill lands per lease, and
	// never over fresher state — held.
	StatusLeaseLost
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusHit:
		return "HIT"
	case StatusMiss:
		return "MISS"
	case StatusOK:
		return "OK"
	case StatusError:
		return "ERROR"
	case StatusKeys:
		return "KEYS"
	case StatusMembers:
		return "MEMBERS"
	case StatusVersionStale:
		return "VERSION_STALE"
	case StatusMetrics:
		return "METRICS"
	case StatusLease:
		return "LEASE"
	case StatusLeaseLost:
		return "LEASE_LOST"
	default:
		return fmt.Sprintf("Status(%d)", byte(s))
	}
}

// Request is one decoded request frame.
type Request struct {
	// Op is the request opcode.
	Op Op
	// Key is the cache key of a GET, GETL, SET, FILL, DEL, PUT or HINT.
	Key uint64
	// Value is the payload of a SET, FILL, PUT or HINT. It aliases the
	// reader's scratch buffer and is only valid until the next Read call.
	Value []byte
	// Version is the version a PUT's or HINT's record is stored under at
	// its source; a conforming frame never carries zero.
	Version uint64
	// Tombstone marks a PUT or HINT whose record is a delete; the Value is
	// then empty.
	Tombstone bool
	// LeaseToken is the fill token a FILL carries; a conforming frame never
	// carries zero (the "no lease" sentinel in LEASE responses).
	LeaseToken uint64
	// Target is the intended owner address of a HINT: the member the
	// record could not reach and should be replayed to.
	Target string
	// Topology is the payload of a TOPOLOGY offer; an empty one (no
	// members, epoch 0) reads the server's view.
	Topology Topology
	// MetricsFlags selects the payload sections of a METRICS request; it
	// must name at least one section.
	MetricsFlags MetricsFlags
	// Trace is the request's trace ID, minted once by the cluster router
	// and stamped on every wire request the original request fans out
	// into — including the read repairs the router sends after the
	// response went out. A request is traced exactly when it is nonzero:
	// the frame then sets OpFlagTraced and carries the ID.
	Trace telemetry.TraceID
}

// KeyRec is one record of a KEYS stream frame (v8): a resident key, the
// version it is stored under, and whether the record is a tombstone — a
// versioned delete its set has not yet evicted. Tombstones travel in the
// stream so replica comparison (anti-entropy, warm-up, migration) sees
// deletes with the same one-pass scan it sees values, instead of
// mistaking a deleted key for a missing one.
type KeyRec struct {
	// Key is the cache key.
	Key uint64
	// Version is the version the record is stored under.
	Version uint64
	// Tombstone marks a versioned delete; the key has no value.
	Tombstone bool
}

// Response is one decoded response frame.
type Response struct {
	Status Status
	// Epoch is the responding server's topology epoch; every response
	// carries it, so clients piggyback staleness detection on any traffic.
	Epoch uint64
	// Value is a GET hit's payload; valid until the next Read call.
	Value []byte
	// Version is the stored value version: in a HIT it is the version of
	// the value returned, in an OK replying to an applied write (SET, FILL,
	// PUT, DEL) it is the version the record was stored under (0 replying
	// to HINT), and in a VERSION_STALE or LEASE_LOST it is the version
	// that won.
	Version uint64
	// Evicted reports whether a write displaced an entry — or, replying to
	// DEL, whether a live value was present.
	Evicted bool
	// Keys is the payload of one KEYS stream frame — {key, version,
	// tombstone} records since v8; an empty Keys frame terminates the
	// stream.
	Keys []KeyRec
	// Topology is the payload of a MEMBERS response: the view a server
	// holds after a TOPOLOGY offer.
	Topology Topology
	// Metrics is the payload of a METRICS response.
	Metrics *Metrics
	// LeaseToken is a LEASE response's fill token: nonzero grants this
	// caller the lease, zero means another caller holds it.
	LeaseToken uint64
	// LeaseTTL is how long the lease (or, for a zero-token LEASE, the
	// current holder's lease) remains outstanding; the wire carries it as
	// whole milliseconds, at least 1.
	LeaseTTL time.Duration
	// Err is the message of an error response.
	Err string
}

// keyRecLen is the encoded size of a KeyRec: key uint64, version uint64,
// tombstone byte.
const keyRecLen = 17

// boolByte is the wire form of a flag field: exactly 0 or 1.
func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// parseBool decodes a flag field, refusing anything but 0 and 1 so every
// accepted frame has exactly one encoding.
func parseBool(b byte, field string) (bool, error) {
	if b > 1 {
		return false, fmt.Errorf("wire: %s byte %#02x, want 0 or 1", field, b)
	}
	return b == 1, nil
}

// appendKeyRec encodes rec in its keyRecLen-byte wire form — one entry of
// a KEYS stream frame, and the head of a PUT's or HINT's record.
func appendKeyRec(b []byte, rec KeyRec) []byte {
	b = binary.LittleEndian.AppendUint64(b, rec.Key)
	b = binary.LittleEndian.AppendUint64(b, rec.Version)
	return append(b, boolByte(rec.Tombstone))
}

// parseKeyRec decodes the keyRecLen bytes at the head of b.
func parseKeyRec(b []byte) (KeyRec, error) {
	tomb, err := parseBool(b[16], "tombstone")
	return KeyRec{
		Key:       binary.LittleEndian.Uint64(b),
		Version:   binary.LittleEndian.Uint64(b[8:]),
		Tombstone: tomb,
	}, err
}

// appendRecord encodes the record a PUT or HINT carries: req's {Key,
// Version, Tombstone} as a KeyRec, to be followed by the value as the rest
// of the frame. With parseRecord it is the record's one codec, and
// checkRecord its one rule, so the two ops cannot drift apart.
func appendRecord(b []byte, req *Request) ([]byte, error) {
	if err := checkRecord(req); err != nil {
		return b, err
	}
	return appendKeyRec(b, KeyRec{Key: req.Key, Version: req.Version, Tombstone: req.Tombstone}), nil
}

// parseRecord decodes body — a KeyRec, then the value — into req.
func parseRecord(body []byte, req *Request) error {
	if len(body) < keyRecLen {
		return fmt.Errorf("wire: %v record %d bytes, want ≥%d", req.Op, len(body), keyRecLen)
	}
	rec, err := parseKeyRec(body)
	if err != nil {
		return err
	}
	req.Key, req.Version, req.Tombstone, req.Value = rec.Key, rec.Version, rec.Tombstone, body[keyRecLen:]
	return checkRecord(req)
}

// checkRecord enforces what makes a record well formed: a nonzero version
// (the server never assigns zero, so zero can only be an encoding bug —
// and, stored, would lose to everything), and no value on a tombstone.
func checkRecord(req *Request) error {
	if req.Version == 0 {
		return fmt.Errorf("wire: %v with a zero version", req.Op)
	}
	if req.Tombstone && len(req.Value) != 0 {
		return fmt.Errorf("wire: tombstone %v carries a value", req.Op)
	}
	return nil
}

// Codec buffer tuning. The shrink policy keeps one large frame (a KEYS
// chunk, a METRICS snapshot, a big value) from pinning its buffer on a
// long-lived connection forever: once the buffer exceeds codecShrinkCap
// and codecIdleFrames consecutive frames (reads) or flushes (writes)
// stayed under it, the buffer is reallocated back down to codecShrinkCap.
const (
	// codecShrinkCap is the largest buffer capacity a steady small-frame
	// workload retains per connection endpoint, and every Reader's stream
	// buffer size. The stream buffer sets how many pipelined frames one
	// read syscall drains (hypotheses/H3, H22): 64 KiB holds ~5000 GET
	// requests or fifteen 4 KiB HITs, at 64 KiB per connection end.
	codecShrinkCap = 64 << 10
	// codecIdleFrames is how many consecutive small frames/flushes an
	// oversized buffer survives before shrinking — large enough that a
	// periodic KEYS/METRICS poll doesn't thrash the allocation.
	codecIdleFrames = 64
	// zeroCopyMin is the value length from which WriteRequest (any op
	// carrying a value) stops copying the value into the frame buffer and
	// instead sends it as its own vectored-write segment. Below it the
	// memcpy is cheaper than an extra iovec entry. Responses always copy:
	// a server's stored value may be read only under its set's lock.
	zeroCopyMin = 4 << 10
)

// BuffersWriter is the optional interface a Writer's destination can
// implement to receive a whole flush as one vectored write. net.Conn
// destinations don't need it (net.Buffers.WriteTo already uses writev);
// wrappers around a net.Conn (byte counters, instrumented writers)
// implement it by delegating to the wrapped connection, so the writev
// survives the wrapping instead of degrading to one syscall per segment.
type BuffersWriter interface {
	WriteBuffers(*net.Buffers) (int64, error)
}

// Writer encodes frames into an owned buffer and sends a whole flush in
// one (vectored) write. It is not safe for concurrent use.
//
// Values at least zeroCopyMin long passed to WriteRequest are not copied:
// the slice is referenced until the next Flush, so the caller must not
// modify its contents in between. Clients (values held across the
// enqueue→Flush window of one batch) satisfy this naturally. A HIT value
// passed to WriteResponse is copied into the frame buffer before the call
// returns; see the "Buffer ownership and aliasing" section of
// ARCHITECTURE.md.
//
// A flush error is sticky: the buffered frames (possibly half-sent) are
// discarded, and every later call returns the same error, so a partial
// frame can never be resent as the prefix of fresh scratch. Callers drop
// the connection, exactly as they would for any transport error.
type Writer struct {
	out   io.Writer
	chunk []byte      // frames encoded in place; chunk[mark:] is not yet sealed
	segs  net.Buffers // sealed flush segments: chunk regions + zero-copy values
	send  net.Buffers // segs' header as a vectored write consumes it
	mark  int         // start of the unsealed tail of chunk
	err   error       // sticky flush error
	idle  int         // consecutive small flushes with an oversized chunk
}

// NewWriter wraps w in a frame encoder.
func NewWriter(w io.Writer) *Writer {
	return &Writer{out: w}
}

// WritePreamble emits the connection preamble (client side, once).
func (w *Writer) WritePreamble() error {
	if w.err != nil {
		return w.err
	}
	w.chunk = append(w.chunk, Magic...)
	w.chunk = binary.LittleEndian.AppendUint32(w.chunk, Version)
	return nil
}

// Flush sends every buffered frame in one vectored write.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.seal()
	var err error
	switch len(w.segs) {
	case 0:
		return nil
	case 1:
		_, err = w.out.Write(w.segs[0])
	default:
		// Both writes consume the slice header they are handed, so they get
		// send, not segs, whose capacity must outlive the flush.
		w.send = w.segs
		if bw, ok := w.out.(BuffersWriter); ok {
			_, err = bw.WriteBuffers(&w.send)
		} else {
			_, err = w.send.WriteTo(w.out)
		}
	}
	// Drop segment references either way: on success they are sent, on
	// error the connection is dead and half a frame must never survive
	// as reusable scratch.
	for i := range w.segs {
		w.segs[i] = nil
	}
	w.segs = w.segs[:0]
	used := len(w.chunk)
	w.chunk = w.chunk[:0]
	w.mark = 0
	if err != nil {
		w.err = err
		return err
	}
	// Shrink-on-idle: a chunk grown by one huge frame (METRICS, a big
	// value) must not stay pinned on a connection that went back to
	// small frames.
	if cap(w.chunk) > codecShrinkCap {
		if used <= codecShrinkCap {
			if w.idle++; w.idle >= codecIdleFrames {
				w.chunk = make([]byte, 0, codecShrinkCap)
				w.idle = 0
			}
		} else {
			w.idle = 0
		}
	}
	return nil
}

// seal closes the unsealed tail of chunk into a flush segment.
func (w *Writer) seal() {
	if len(w.chunk) > w.mark {
		w.segs = append(w.segs, w.chunk[w.mark:len(w.chunk):len(w.chunk)])
		w.mark = len(w.chunk)
	}
}

// beginFrame reserves a frame's 4-byte length prefix in chunk and returns
// its offset, to be backfilled by endFrame once the body length is known.
func (w *Writer) beginFrame() int {
	w.chunk = append(w.chunk, 0, 0, 0, 0)
	return len(w.chunk) - 4
}

// endFrame backfills the length prefix of the frame begun at off.
// external counts value bytes that will travel as their own segment
// rather than through chunk. On error the partial frame is discarded.
func (w *Writer) endFrame(off, external int) error {
	n := len(w.chunk) - off - 4 + external
	if n > MaxFrame {
		w.chunk = w.chunk[:off]
		return fmt.Errorf("wire: frame body %d exceeds max %d", n, MaxFrame)
	}
	binary.LittleEndian.PutUint32(w.chunk[off:], uint32(n))
	return nil
}

// sealValue appends val as a zero-copy segment of the current flush. The
// caller must keep val unmodified until Flush returns.
func (w *Writer) sealValue(val []byte) {
	w.seal()
	w.segs = append(w.segs, val)
}

// abortFrame discards the partial frame begun at off and returns err.
func (w *Writer) abortFrame(off int, err error) error {
	w.chunk = w.chunk[:off]
	return err
}

// WriteRequest encodes one request frame (buffered; call Flush to send).
// A Value at least zeroCopyMin long is referenced, not copied, and must
// stay unmodified until Flush.
func (w *Writer) WriteRequest(req Request) error { return w.writeRequest(&req) }

// writeRequest is WriteRequest on a request the caller keeps, so the
// client's enqueue paths hand it over without copying the struct.
func (w *Writer) writeRequest(req *Request) error {
	if w.err != nil {
		return w.err
	}
	off := w.beginFrame()
	if req.Trace.IsZero() {
		w.chunk = append(w.chunk, byte(req.Op))
	} else {
		w.chunk = append(w.chunk, byte(req.Op)|OpFlagTraced)
		w.chunk = append(w.chunk, req.Trace[:]...)
	}
	var (
		value []byte // the frame's trailing value field, for the ops that have one
		err   error
	)
	switch req.Op {
	case OpGet, OpDel, OpGetLease:
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, req.Key)
	case OpSet:
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, req.Key)
		value = req.Value
	case OpFill:
		if req.LeaseToken == 0 {
			err = fmt.Errorf("wire: FILL with a zero token")
			break
		}
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, req.Key)
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, req.LeaseToken)
		value = req.Value
	case OpPut:
		w.chunk, err = appendRecord(w.chunk, req)
		value = req.Value
	case OpHint:
		if req.Target == "" || len(req.Target) > MaxAddrLen {
			err = fmt.Errorf("wire: HINT target address %d bytes, want 1..%d", len(req.Target), MaxAddrLen)
			break
		}
		w.chunk = append(w.chunk, byte(len(req.Target)))
		w.chunk = append(w.chunk, req.Target...)
		w.chunk, err = appendRecord(w.chunk, req)
		value = req.Value
	case OpKeys:
	case OpMetrics:
		if err := req.MetricsFlags.validate(); err != nil {
			return w.abortFrame(off, err)
		}
		w.chunk = append(w.chunk, byte(req.MetricsFlags))
	case OpTopology:
		if err := req.Topology.Validate(); err != nil {
			return w.abortFrame(off, err)
		}
		if len(req.Topology.Members) == 0 && req.Topology.Epoch != 0 {
			return w.abortFrame(off, fmt.Errorf("wire: TOPOLOGY offer with no members at epoch %d", req.Topology.Epoch))
		}
		w.chunk = appendTopology(w.chunk, req.Topology)
	default:
		err = fmt.Errorf("wire: unknown request op %v", req.Op)
	}
	if err != nil {
		return w.abortFrame(off, err)
	}
	external := 0
	if len(value) >= zeroCopyMin {
		external = len(value)
	} else {
		w.chunk = append(w.chunk, value...)
	}
	if err := w.endFrame(off, external); err != nil {
		return err
	}
	if external > 0 {
		w.sealValue(value)
	}
	return nil
}

// WriteResponse encodes one response frame (buffered; call Flush to send).
// Every response carries resp.Epoch — the server's topology epoch — right
// after the status byte. A HIT Value is copied into the frame buffer, so
// the caller may reuse its bytes once the call returns: the server encodes
// a HIT while its set's lock keeps the stored value in place.
func (w *Writer) WriteResponse(resp Response) error { return w.Respond(&resp) }

// Respond is WriteResponse for a Response the caller keeps: the server's
// request loop builds each answer in place and hands it over by pointer,
// so no response struct is copied on the way to the frame buffer.
func (w *Writer) Respond(resp *Response) error {
	if w.err != nil {
		return w.err
	}
	off := w.beginFrame()
	w.chunk = append(w.chunk, byte(resp.Status))
	w.chunk = binary.LittleEndian.AppendUint64(w.chunk, resp.Epoch)
	switch resp.Status {
	case StatusHit:
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, resp.Version)
		w.chunk = append(w.chunk, resp.Value...)
	case StatusMiss:
	case StatusOK:
		w.chunk = append(w.chunk, boolByte(resp.Evicted))
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, resp.Version)
	case StatusVersionStale:
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, resp.Version)
	case StatusLease:
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, resp.LeaseToken)
		ms := resp.LeaseTTL.Milliseconds()
		if ms < 1 {
			ms = 1 // a lease is never already dead on the wire
		} else if ms > math.MaxUint32 {
			ms = math.MaxUint32
		}
		w.chunk = binary.LittleEndian.AppendUint32(w.chunk, uint32(ms))
	case StatusLeaseLost:
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, resp.Version)
	case StatusError:
		w.chunk = append(w.chunk, resp.Err...)
	case StatusKeys:
		w.chunk = binary.LittleEndian.AppendUint32(w.chunk, uint32(len(resp.Keys)))
		for _, rec := range resp.Keys {
			w.chunk = appendKeyRec(w.chunk, rec)
		}
	case StatusMembers:
		if err := resp.Topology.Validate(); err != nil {
			return w.abortFrame(off, err)
		}
		w.chunk = appendTopology(w.chunk, resp.Topology)
	case StatusMetrics:
		if resp.Metrics == nil {
			return w.abortFrame(off, fmt.Errorf("wire: metrics response without payload"))
		}
		var err error
		if w.chunk, err = appendMetrics(w.chunk, resp.Metrics); err != nil {
			return w.abortFrame(off, err)
		}
	default:
		return w.abortFrame(off, fmt.Errorf("wire: unknown response status %v", resp.Status))
	}
	return w.endFrame(off, 0)
}

// Reader decodes frames from a buffered stream of codecShrinkCap bytes,
// the same on both ends of a connection. It is not safe for concurrent
// use.
//
// A frame that fits the stream buffer is decoded where it lies: readFrame
// peeks it, the decoded Value aliases the stream buffer, and the frame is
// discarded at the next read. A larger frame is copied into body. Either
// way a decoded frame is valid until the next read, and so are the
// Request or Response the Reader decoded it into.
type Reader struct {
	br   *bufio.Reader
	body []byte
	// held is the length of the frame last decoded in place: still in br's
	// buffer, discarded at the next read, and not counted by Buffered.
	held int
	// keys backs Response.Keys across calls, like body backs Value.
	keys []KeyRec
	// req and resp are what ReadRequest and ReadResponse decode into and
	// return, so a decoded frame is never copied as a struct.
	req  Request
	resp Response
	// idle counts consecutive frames that fit codecShrinkCap while body
	// was grown beyond it (shrink-on-idle, mirroring the Writer).
	idle int
}

// NewReader wraps r in a frame decoder whose 64 KiB stream buffer lets
// one read drain a whole pipelined batch.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, codecShrinkCap)}
}

// ReadPreamble validates the connection preamble (server side, once).
func (r *Reader) ReadPreamble() error {
	pre, err := r.br.Peek(8)
	if err != nil {
		return fmt.Errorf("wire: reading preamble: %w", err)
	}
	r.br.Discard(8)
	if string(pre[:4]) != Magic {
		return fmt.Errorf("wire: bad magic %q", pre[:4])
	}
	if v := binary.LittleEndian.Uint32(pre[4:8]); v != Version {
		return fmt.Errorf("wire: %w %d (this end speaks %d)", ErrVersionMismatch, v, Version)
	}
	return nil
}

// Buffered returns the number of bytes already readable without blocking,
// not counting the frame just decoded; the server uses it to decide when
// to flush responses.
func (r *Reader) Buffered() int { return r.br.Buffered() - r.held }

// readFrame returns the next frame's body. io.EOF before the first byte of
// a frame means a clean close; a stream that ends mid-frame is
// io.ErrUnexpectedEOF.
func (r *Reader) readFrame() ([]byte, error) {
	if r.held > 0 {
		r.br.Discard(r.held) // already buffered: cannot fail
		r.held = 0
	}
	ln, err := r.br.Peek(4)
	if len(ln) < 4 {
		if len(ln) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(ln))
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d exceeds max %d", n, MaxFrame)
	}
	// Shrink-on-idle: one KEYS or METRICS frame must not pin up to
	// MaxFrame (and a keys buffer) on this connection forever once the
	// traffic goes back to small frames.
	if cap(r.body) > codecShrinkCap && n <= codecShrinkCap {
		if r.idle++; r.idle >= codecIdleFrames {
			r.body = make([]byte, 0, codecShrinkCap)
			r.keys = nil
			r.idle = 0
		}
	} else {
		r.idle = 0
	}
	// A frame that fits the stream buffer is decoded where it lies and
	// discarded at the next read; a larger one is copied into body.
	var body []byte
	if 4+n <= r.br.Size() {
		var frame []byte
		if frame, err = r.br.Peek(4 + n); err == nil {
			r.held, body = 4+n, frame[4:]
		}
	} else {
		r.br.Discard(4)
		if cap(r.body) < n {
			r.body = make([]byte, n)
		}
		r.body = r.body[:n]
		_, err = io.ReadFull(r.br, r.body)
		body = r.body
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: reading frame body: %w", err)
	}
	return body, nil
}

// ReadRequest decodes the next request frame (server side). The returned
// Request is the Reader's own, and it and its Value are valid until the
// next call.
func (r *Reader) ReadRequest() (*Request, error) {
	body, err := r.readFrame()
	if err != nil {
		return nil, err
	}
	if len(body) < 1 {
		return nil, fmt.Errorf("wire: empty request frame")
	}
	req := &r.req
	*req = Request{Op: Op(body[0] &^ OpFlagTraced)}
	if body[0]&OpFlagTraced != 0 {
		if len(body) < 1+len(req.Trace) {
			return nil, fmt.Errorf("wire: traced %v frame %d bytes, too short for a trace ID", req.Op, len(body))
		}
		copy(req.Trace[:], body[1:])
		if req.Trace.IsZero() {
			return nil, fmt.Errorf("wire: traced %v frame with a zero trace ID", req.Op)
		}
		body = body[1+len(req.Trace):]
	} else {
		body = body[1:]
	}
	switch req.Op {
	case OpGet, OpDel, OpGetLease:
		if len(body) != 8 {
			return nil, fmt.Errorf("wire: %v body %d bytes, want 8", req.Op, len(body))
		}
		req.Key = binary.LittleEndian.Uint64(body)
	case OpSet:
		if len(body) < 8 {
			return nil, fmt.Errorf("wire: SET body %d bytes, want ≥8", len(body))
		}
		req.Key = binary.LittleEndian.Uint64(body)
		req.Value = body[8:]
	case OpFill:
		if len(body) < 16 {
			return nil, fmt.Errorf("wire: FILL body %d bytes, want ≥16 (key + token)", len(body))
		}
		req.Key = binary.LittleEndian.Uint64(body)
		if req.LeaseToken = binary.LittleEndian.Uint64(body[8:]); req.LeaseToken == 0 {
			return nil, fmt.Errorf("wire: FILL with a zero token")
		}
		req.Value = body[16:]
	case OpPut:
		if err = parseRecord(body, req); err != nil {
			return nil, err
		}
	case OpHint:
		if len(body) < 1 || body[0] == 0 || len(body) < 1+int(body[0]) {
			return nil, fmt.Errorf("wire: HINT body %d bytes lacks a target address", len(body))
		}
		al := 1 + int(body[0])
		req.Target = string(body[1:al])
		if err = parseRecord(body[al:], req); err != nil {
			return nil, err
		}
	case OpKeys:
		if len(body) != 0 {
			return nil, fmt.Errorf("wire: %v body %d bytes, want 0", req.Op, len(body))
		}
	case OpMetrics:
		if len(body) != 1 {
			return nil, fmt.Errorf("wire: METRICS body %d bytes, want 1", len(body))
		}
		req.MetricsFlags = MetricsFlags(body[0])
		if err := req.MetricsFlags.validate(); err != nil {
			return nil, err
		}
	case OpTopology:
		t, err := parseTopology(body)
		if err != nil {
			return nil, err
		}
		// An offer with no members is a read and carries epoch 0. A bare
		// nonzero epoch over no members is refused: adopting it would leave
		// the receiver holding a high epoch over no members, from which
		// any later epoch could "win" — a rollback of the monotonic-epoch
		// invariant through one malformed frame.
		if len(t.Members) == 0 && t.Epoch != 0 {
			return nil, fmt.Errorf("wire: TOPOLOGY offer with no members at epoch %d", t.Epoch)
		}
		req.Topology = t
	default:
		return nil, fmt.Errorf("wire: unknown request op %d", byte(req.Op))
	}
	return req, nil
}

// ReadResponse decodes the next response frame (client side). The returned
// Response is the Reader's own, and it, its Value and its Keys are valid
// until the next call.
func (r *Reader) ReadResponse() (*Response, error) {
	body, err := r.readFrame()
	if err != nil {
		return nil, err
	}
	if len(body) < 9 {
		return nil, fmt.Errorf("wire: response frame %d bytes, want ≥9 (status + epoch)", len(body))
	}
	resp := &r.resp
	*resp = Response{Status: Status(body[0]), Epoch: binary.LittleEndian.Uint64(body[1:])}
	body = body[9:]
	switch resp.Status {
	case StatusHit:
		if len(body) < 8 {
			return nil, fmt.Errorf("wire: HIT body %d bytes, want ≥8 (version)", len(body))
		}
		resp.Version = binary.LittleEndian.Uint64(body)
		resp.Value = body[8:]
	case StatusMiss:
		if len(body) != 0 {
			return nil, fmt.Errorf("wire: MISS body %d bytes, want 0", len(body))
		}
	case StatusOK:
		if len(body) != 9 {
			return nil, fmt.Errorf("wire: OK body %d bytes, want 9", len(body))
		}
		if resp.Evicted, err = parseBool(body[0], "OK evicted"); err != nil {
			return nil, err
		}
		resp.Version = binary.LittleEndian.Uint64(body[1:])
	case StatusVersionStale:
		if len(body) != 8 {
			return nil, fmt.Errorf("wire: VERSION_STALE body %d bytes, want 8", len(body))
		}
		resp.Version = binary.LittleEndian.Uint64(body)
	case StatusLease:
		if len(body) != 12 {
			return nil, fmt.Errorf("wire: LEASE body %d bytes, want 12 (token + ttl)", len(body))
		}
		resp.LeaseToken = binary.LittleEndian.Uint64(body)
		ms := binary.LittleEndian.Uint32(body[8:])
		if ms == 0 {
			return nil, fmt.Errorf("wire: LEASE with a zero TTL")
		}
		resp.LeaseTTL = time.Duration(ms) * time.Millisecond
	case StatusLeaseLost:
		if len(body) != 8 {
			return nil, fmt.Errorf("wire: LEASE_LOST body %d bytes, want 8", len(body))
		}
		resp.Version = binary.LittleEndian.Uint64(body)
	case StatusError:
		resp.Err = string(body)
	case StatusKeys:
		if len(body) < 4 {
			return nil, fmt.Errorf("wire: keys payload %d bytes, want ≥4", len(body))
		}
		n := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if len(body) != keyRecLen*n {
			return nil, fmt.Errorf("wire: keys payload %d bytes, want %d", len(body), keyRecLen*n)
		}
		if n > 0 {
			// Like Value, Keys aliases reader-owned memory valid until
			// the next call — KEYS streams reuse one buffer per chunk.
			if cap(r.keys) < n {
				r.keys = make([]KeyRec, n)
			}
			resp.Keys = r.keys[:n]
			for i := range resp.Keys {
				if resp.Keys[i], err = parseKeyRec(body[keyRecLen*i:]); err != nil {
					return nil, fmt.Errorf("keys record %d: %w", i, err)
				}
			}
		}
	case StatusMembers:
		t, err := parseTopology(body)
		if err != nil {
			return nil, err
		}
		resp.Topology = t
	case StatusMetrics:
		m, err := parseMetrics(body)
		if err != nil {
			return nil, err
		}
		resp.Metrics = m
	default:
		return nil, fmt.Errorf("wire: unknown response status %d", byte(resp.Status))
	}
	return resp, nil
}
