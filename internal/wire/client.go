package wire

import (
	"fmt"
	"io"
	"net"
	"time"
)

// DefaultDialTimeout bounds Dial's connection establishment. Without a
// bound, a black-holed address (dead host, dropped SYNs) parks the caller
// in the kernel's connect retry cycle for minutes — long enough to stall a
// topology refresh, a warm-up, or a join on a single dead member. Failing
// in seconds instead lets those paths skip the corpse and proceed.
const DefaultDialTimeout = 3 * time.Second

// Client speaks the wire protocol over one connection. A Client is NOT safe
// for concurrent use; the load harness opens one per worker goroutine.
//
// The simple methods (Get, Set, Del, Stats, Rehash) are synchronous: one
// round trip each. For batched pipelining, enqueue requests with the
// Enqueue* methods, Flush once, then read the responses in order with
// ReadResponse.
type Client struct {
	conn io.ReadWriteCloser
	r    *Reader
	w    *Writer
	// lastEpoch is the topology epoch carried by the most recent response;
	// see LastEpoch.
	lastEpoch uint64
}

// Dial connects to a cached server and performs the preamble handshake,
// bounding connection establishment by DefaultDialTimeout.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, DefaultDialTimeout)
}

// DialTimeout is Dial with an explicit connect timeout; d ≤ 0 means no
// bound (the raw net.Dial behavior).
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	var conn net.Conn
	var err error
	if d > 0 {
		conn, err = net.DialTimeout("tcp", addr, d)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	return NewClient(conn)
}

// NewClient wraps an established connection, sending the preamble.
func NewClient(conn io.ReadWriteCloser) (*Client, error) {
	c := &Client{conn: conn, r: NewReader(conn), w: NewWriter(conn)}
	if err := c.w.WritePreamble(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

// EnqueueGet buffers a GET without flushing.
func (c *Client) EnqueueGet(key uint64) error {
	return c.w.WriteRequest(Request{Op: OpGet, Key: key})
}

// EnqueueSet buffers a user SET (no flags) without flushing.
func (c *Client) EnqueueSet(key uint64, value []byte) error {
	return c.EnqueueSetFlags(key, 0, value)
}

// EnqueueSetFlags buffers a SET carrying the given flag byte without
// flushing. The cluster router sets SetFlagRepair on read-repair and
// migration writes so servers do not count them as user traffic.
func (c *Client) EnqueueSetFlags(key uint64, flags SetFlags, value []byte) error {
	return c.w.WriteRequest(Request{Op: OpSet, Key: key, Flags: flags, Value: value})
}

// EnqueueSetVersioned buffers a conditional maintenance SET without
// flushing: the write carries version (the version the caller observed the
// value at) and the server applies it only when that is strictly newer
// than the version it holds, answering VERSION_STALE otherwise.
// SetFlagVersioned is added to flags implicitly; flags must include
// SetFlagRepair.
func (c *Client) EnqueueSetVersioned(key uint64, flags SetFlags, version uint64, value []byte) error {
	return c.w.WriteRequest(Request{
		Op: OpSet, Key: key, Flags: flags | SetFlagVersioned, Version: version, Value: value,
	})
}

// EnqueueGetLease buffers a GETL without flushing: GET with lease
// semantics on a miss (v7). A resident key answers HIT exactly like GET;
// a miss answers LEASE, electing at most one concurrent misser to load
// the origin.
func (c *Client) EnqueueGetLease(key uint64) error {
	return c.w.WriteRequest(Request{Op: OpGetLease, Key: key})
}

// EnqueueSetLease buffers a lease fill without flushing: a user SET
// carrying SetFlagLease and the nonzero token a LEASE grant handed this
// caller. The server applies it only while that lease is still
// outstanding, answering LEASE_LOST otherwise.
func (c *Client) EnqueueSetLease(key, token uint64, value []byte) error {
	return c.w.WriteRequest(Request{Op: OpSet, Key: key, Flags: SetFlagLease, LeaseToken: token, Value: value})
}

// EnqueueDel buffers a DEL without flushing.
func (c *Client) EnqueueDel(key uint64) error {
	return c.w.WriteRequest(Request{Op: OpDel, Key: key})
}

// EnqueueSetTombstone buffers a conditional maintenance delete without
// flushing (v8): a SET carrying SetFlagTombstone, SetFlagVersioned and an
// empty value. The server stores a tombstone under version iff it is
// strictly newer than what it holds, answering VERSION_STALE otherwise.
// flags must include SetFlagRepair.
func (c *Client) EnqueueSetTombstone(key uint64, flags SetFlags, version uint64) error {
	return c.w.WriteRequest(Request{
		Op: OpSet, Key: key, Flags: flags | SetFlagVersioned | SetFlagTombstone, Version: version,
	})
}

// Hint issues one HINT round trip (v8): it parks a hinted handoff — a
// versioned write (tombstone=true for a delete, with a nil value) whose
// intended owner target was unreachable — on the receiving server, which
// replays it to target as a conditional versioned write once target is
// reachable again.
func (c *Client) Hint(target string, key uint64, tombstone bool, version uint64, value []byte) error {
	resp, err := c.roundTrip(Request{
		Op: OpHint, Target: target, Key: key, Tombstone: tombstone, Version: version, Value: value,
	})
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("wire: unexpected HINT response %v", resp.Status)
	}
	return nil
}

// EnqueueGetTraced is EnqueueGet with a trace context attached (v6): the
// server propagates tc into its telemetry for this request, recording a
// span when tc is sampled.
func (c *Client) EnqueueGetTraced(key uint64, tc TraceContext) error {
	return c.w.WriteRequest(Request{Op: OpGet, Key: key, Trace: tc, Traced: true})
}

// EnqueueSetFlagsTraced is EnqueueSetFlags with a trace context attached.
func (c *Client) EnqueueSetFlagsTraced(key uint64, flags SetFlags, tc TraceContext, value []byte) error {
	return c.w.WriteRequest(Request{Op: OpSet, Key: key, Flags: flags, Trace: tc, Traced: true, Value: value})
}

// EnqueueSetVersionedTraced is EnqueueSetVersioned with a trace context
// attached; for ASYNC writes the context rides the server's repair queue
// and is recorded when the entry drains, so the span's queue wait names
// the originating request even seconds later.
func (c *Client) EnqueueSetVersionedTraced(key uint64, flags SetFlags, version uint64, tc TraceContext, value []byte) error {
	return c.w.WriteRequest(Request{
		Op: OpSet, Key: key, Flags: flags | SetFlagVersioned, Version: version,
		Trace: tc, Traced: true, Value: value,
	})
}

// EnqueueGetLeaseTraced is EnqueueGetLease with a trace context attached.
func (c *Client) EnqueueGetLeaseTraced(key uint64, tc TraceContext) error {
	return c.w.WriteRequest(Request{Op: OpGetLease, Key: key, Trace: tc, Traced: true})
}

// EnqueueSetLeaseTraced is EnqueueSetLease with a trace context attached.
func (c *Client) EnqueueSetLeaseTraced(key, token uint64, tc TraceContext, value []byte) error {
	return c.w.WriteRequest(Request{
		Op: OpSet, Key: key, Flags: SetFlagLease, LeaseToken: token,
		Trace: tc, Traced: true, Value: value,
	})
}

// EnqueueDelTraced is EnqueueDel with a trace context attached.
func (c *Client) EnqueueDelTraced(key uint64, tc TraceContext) error {
	return c.w.WriteRequest(Request{Op: OpDel, Key: key, Trace: tc, Traced: true})
}

// Flush sends all buffered requests.
func (c *Client) Flush() error { return c.w.Flush() }

// ReadResponse reads the next pipelined response. The response Value
// aliases an internal buffer valid until the next read.
func (c *Client) ReadResponse() (Response, error) {
	resp, err := c.r.ReadResponse()
	if err != nil {
		return resp, err
	}
	c.lastEpoch = resp.Epoch
	if resp.Status == StatusError {
		return resp, fmt.Errorf("wire: server error: %s", resp.Err)
	}
	return resp, nil
}

// LastEpoch returns the server topology epoch carried by the most recent
// response read on this connection (0 before any response). The cluster
// router compares it against its own epoch to piggyback membership
// staleness detection on ordinary traffic.
func (c *Client) LastEpoch() uint64 { return c.lastEpoch }

func (c *Client) roundTrip(req Request) (Response, error) {
	if err := c.w.WriteRequest(req); err != nil {
		return Response{}, err
	}
	if err := c.w.Flush(); err != nil {
		return Response{}, err
	}
	return c.ReadResponse()
}

// Get fetches key. The returned value is a copy and safe to retain.
func (c *Client) Get(key uint64) ([]byte, bool, error) {
	v, ok, err := c.GetShared(key)
	if ok {
		v = append([]byte(nil), v...)
	}
	return v, ok, err
}

// GetShared is Get without the defensive copy: the returned value aliases
// the client's receive buffer and is valid only until the next operation
// on this client — the same ownership rule the server Reader and the
// batch visit callbacks already follow. Callers that retain the value
// past the next call must copy it (or use Get); callers that consume it
// immediately get an allocation-free hit. See "Buffer ownership and
// aliasing" in ARCHITECTURE.md.
func (c *Client) GetShared(key uint64) ([]byte, bool, error) {
	resp, err := c.roundTrip(Request{Op: OpGet, Key: key})
	if err != nil {
		return nil, false, err
	}
	switch resp.Status {
	case StatusHit:
		return resp.Value, true, nil
	case StatusMiss:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("wire: unexpected GET response %v", resp.Status)
	}
}

// Set stores value under key as user traffic, reporting whether an entry
// was evicted.
func (c *Client) Set(key uint64, value []byte) (evicted bool, err error) {
	return c.SetFlags(key, 0, value)
}

// SetFlags stores value under key with the given SET flag byte, reporting
// whether an entry was evicted.
func (c *Client) SetFlags(key uint64, flags SetFlags, value []byte) (evicted bool, err error) {
	resp, err := c.roundTrip(Request{Op: OpSet, Key: key, Flags: flags, Value: value})
	if err != nil {
		return false, err
	}
	if resp.Status != StatusOK {
		return false, fmt.Errorf("wire: unexpected SET response %v", resp.Status)
	}
	return resp.Evicted, nil
}

// SetVersioned stores value under key conditionally: the write carries the
// version the caller observed the value at (plus flags, which must include
// SetFlagRepair; SetFlagVersioned is added implicitly) and applies only
// when that version is strictly newer than the stored one. It returns
// whether the write applied and the version the server holds after the
// call — the carried version when applied, the newer winning version when
// not. With SetFlagAsync the write is only accepted (applied=true means
// queued) and the version check happens when the queue drains.
func (c *Client) SetVersioned(key uint64, flags SetFlags, version uint64, value []byte) (applied bool, stored uint64, err error) {
	resp, err := c.roundTrip(Request{
		Op: OpSet, Key: key, Flags: flags | SetFlagVersioned, Version: version, Value: value,
	})
	if err != nil {
		return false, 0, err
	}
	switch resp.Status {
	case StatusOK:
		return true, resp.Version, nil
	case StatusVersionStale:
		return false, resp.Version, nil
	default:
		return false, 0, fmt.Errorf("wire: unexpected VERSIONED SET response %v", resp.Status)
	}
}

// SetVersionedTraced is SetVersioned with a trace context attached — the
// synchronous form the cluster's repair applier uses so the repair write
// carries its originating request's trace end to end.
func (c *Client) SetVersionedTraced(key uint64, flags SetFlags, version uint64, tc TraceContext, value []byte) (applied bool, stored uint64, err error) {
	resp, err := c.roundTrip(Request{
		Op: OpSet, Key: key, Flags: flags | SetFlagVersioned, Version: version,
		Trace: tc, Traced: true, Value: value,
	})
	if err != nil {
		return false, 0, err
	}
	switch resp.Status {
	case StatusOK:
		return true, resp.Version, nil
	case StatusVersionStale:
		return false, resp.Version, nil
	default:
		return false, 0, fmt.Errorf("wire: unexpected VERSIONED SET response %v", resp.Status)
	}
}

// Lease is the decoded outcome of a GETL round trip.
type Lease struct {
	// Hit reports a resident key: Version and Value carry the live value
	// (exactly a GET hit) and no lease state was touched.
	Hit bool
	// Token, when nonzero, grants this caller the fill lease for the key;
	// it must accompany the fill SET (SetLease/EnqueueSetLease).
	Token uint64
	// TTL is how long the lease (own or, for a zero-token response, the
	// current holder's) remains outstanding.
	TTL time.Duration
	// Stale marks a zero-token response carrying the last value the lease
	// machinery saw for the key in Version/Value — possibly superseded.
	Stale bool
	// Version and Value are set on a Hit or a Stale hint. GetLease returns
	// Value as a copy, safe to retain; GetLeaseShared returns it aliasing
	// the client's receive buffer, valid until the next call.
	Version uint64
	Value   []byte
}

// GetLease issues one GETL round trip: GET with lease semantics on a
// miss. See Lease for the three outcomes (hit, grant, zero-token
// wait/stale-hint).
func (c *Client) GetLease(key uint64) (Lease, error) {
	l, err := c.GetLeaseShared(key)
	if len(l.Value) > 0 {
		l.Value = append([]byte(nil), l.Value...)
	}
	return l, err
}

// GetLeaseShared is GetLease without the defensive copy: a hit's or stale
// hint's Value aliases the client's receive buffer and is valid only
// until the next operation on this client (the GetShared ownership rule).
func (c *Client) GetLeaseShared(key uint64) (Lease, error) {
	resp, err := c.roundTrip(Request{Op: OpGetLease, Key: key})
	if err != nil {
		return Lease{}, err
	}
	switch resp.Status {
	case StatusHit:
		return Lease{Hit: true, Version: resp.Version, Value: resp.Value}, nil
	case StatusLease:
		l := Lease{Token: resp.LeaseToken, TTL: resp.LeaseTTL, Stale: resp.Stale}
		if resp.Stale {
			l.Version = resp.Version
			l.Value = resp.Value
		}
		return l, nil
	default:
		return Lease{}, fmt.Errorf("wire: unexpected GETL response %v", resp.Status)
	}
}

// SetLease issues one lease fill round trip: a user SET carrying
// SetFlagLease and token. It reports whether the fill landed and the
// version the server holds after the call — the fill's new version when
// it applied, the stored winning version (0 when the key is absent or
// unknown) when the lease was lost. A lost lease is a successful no-op:
// someone fresher already owns the key's state.
func (c *Client) SetLease(key, token uint64, value []byte) (filled bool, stored uint64, err error) {
	resp, err := c.roundTrip(Request{Op: OpSet, Key: key, Flags: SetFlagLease, LeaseToken: token, Value: value})
	if err != nil {
		return false, 0, err
	}
	switch resp.Status {
	case StatusOK:
		return true, resp.Version, nil
	case StatusLeaseLost:
		return false, resp.Version, nil
	default:
		return false, 0, fmt.Errorf("wire: unexpected LEASE SET response %v", resp.Status)
	}
}

// Del deletes key as a versioned write (v8): the server stores a
// tombstone under a freshly assigned version instead of erasing history,
// so replica repair can propagate the delete without resurrection. It
// reports whether a live value was present and the tombstone's assigned
// version.
func (c *Client) Del(key uint64) (present bool, version uint64, err error) {
	resp, err := c.roundTrip(Request{Op: OpDel, Key: key})
	if err != nil {
		return false, 0, err
	}
	if resp.Status != StatusOK {
		return false, 0, fmt.Errorf("wire: unexpected DEL response %v", resp.Status)
	}
	return resp.Evicted, resp.Version, nil
}

// Stats fetches the server's counter snapshot; detail includes per-shard
// counters.
func (c *Client) Stats(detail bool) (*Stats, error) {
	resp, err := c.roundTrip(Request{Op: OpStats, Detail: detail})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusStats || resp.Stats == nil {
		return nil, fmt.Errorf("wire: unexpected STATS response %v", resp.Status)
	}
	return resp.Stats, nil
}

// Metrics fetches the server's flight-recorder snapshot; flags selects
// the payload sections (MetricsAll for everything) and must name at least
// one.
func (c *Client) Metrics(flags MetricsFlags) (*Metrics, error) {
	resp, err := c.roundTrip(Request{Op: OpMetrics, MetricsFlags: flags})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusMetrics || resp.Metrics == nil {
		return nil, fmt.Errorf("wire: unexpected METRICS response %v", resp.Status)
	}
	return resp.Metrics, nil
}

// Keys fetches a racy snapshot of every resident record — key, stored
// version, tombstone marker — by draining the chunked KEYS stream. The
// cluster router uses it to migrate entries off a node being removed, to
// warm a newcomer up, and to diff replica pairs in the anti-entropy
// sweep.
func (c *Client) Keys() ([]KeyRec, error) {
	// Full chunks are DefaultKeysChunk records; starting the accumulator
	// at one chunk's capacity (and doubling in chunk units) avoids the
	// many small regrowth copies an empty append schedule would pay.
	all := make([]KeyRec, 0, DefaultKeysChunk)
	err := c.KeysStream(func(chunk []KeyRec) error {
		all = append(all, chunk...)
		return nil
	})
	return all, err
}

// KeysStream issues one KEYS request and calls visit once per chunk frame
// until the server's terminator (an empty KEYS frame) arrives. The chunk
// slice aliases a connection buffer valid only for the duration of the
// call. A KEYS stream occupies the connection until the terminator: no
// other request may be pipelined behind it. If visit returns an error the
// remaining frames are drained (so the connection stays usable for the
// next request) and that error is returned.
func (c *Client) KeysStream(visit func(chunk []KeyRec) error) error {
	if err := c.w.WriteRequest(Request{Op: OpKeys}); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	var verr error
	for {
		resp, err := c.ReadResponse()
		if err != nil {
			return err
		}
		if resp.Status != StatusKeys {
			return fmt.Errorf("wire: unexpected KEYS response %v", resp.Status)
		}
		if len(resp.Keys) == 0 {
			return verr
		}
		if verr == nil {
			verr = visit(resp.Keys)
		}
	}
}

// Members fetches the server's current cluster topology: its member list
// and epoch. A server that was never told a topology reports epoch 0 and
// no members.
func (c *Client) Members() (Topology, error) {
	resp, err := c.roundTrip(Request{Op: OpMembers})
	if err != nil {
		return Topology{}, err
	}
	if resp.Status != StatusMembers {
		return Topology{}, fmt.Errorf("wire: unexpected MEMBERS response %v", resp.Status)
	}
	return resp.Topology, nil
}

// PushTopology offers t to the server, which adopts it only if it is
// strictly newer than the topology it holds (or if it holds none). The
// returned topology is the server's view after the push — equal to t when
// it was adopted, the server's newer view when the push lost the race.
func (c *Client) PushTopology(t Topology) (Topology, error) {
	resp, err := c.roundTrip(Request{Op: OpTopology, Topology: t})
	if err != nil {
		return Topology{}, err
	}
	if resp.Status != StatusMembers {
		return Topology{}, fmt.Errorf("wire: unexpected TOPOLOGY response %v", resp.Status)
	}
	return resp.Topology, nil
}

// GetBatch pipelines one GET per key and calls visit for each response in
// key order. The value passed to visit aliases an internal buffer valid only
// for the duration of the call.
func (c *Client) GetBatch(keys []uint64, visit func(i int, hit bool, value []byte)) error {
	return c.GetBatchVersions(keys, func(i int, hit bool, _ uint64, value []byte) {
		visit(i, hit, value)
	})
}

// GetBatchVersions is GetBatch with the stored version of each hit passed
// through to visit — the read side of the versioned-maintenance loop: the
// cluster router reads values with their versions here and re-writes them
// elsewhere with SetBatchRecs, so a copy can never supersede a value
// newer than the one it observed. The value passed to visit aliases an
// internal buffer valid only for the duration of the call.
func (c *Client) GetBatchVersions(keys []uint64, visit func(i int, hit bool, version uint64, value []byte)) error {
	for _, k := range keys {
		if err := c.EnqueueGet(k); err != nil {
			return err
		}
	}
	if err := c.Flush(); err != nil {
		return err
	}
	for i := range keys {
		resp, err := c.ReadResponse()
		if err != nil {
			return err
		}
		switch resp.Status {
		case StatusHit:
			visit(i, true, resp.Version, resp.Value)
		case StatusMiss:
			visit(i, false, 0, nil)
		default:
			return fmt.Errorf("wire: unexpected GET response %v", resp.Status)
		}
	}
	return nil
}

// SetBatch pipelines one user SET per key, with value(i) producing the i-th
// payload.
func (c *Client) SetBatch(keys []uint64, value func(i int) []byte) error {
	return c.SetBatchFlags(keys, 0, value)
}

// SetBatchFlags pipelines one SET per key carrying the given flag byte,
// with value(i) producing the i-th payload.
func (c *Client) SetBatchFlags(keys []uint64, flags SetFlags, value func(i int) []byte) error {
	for i, k := range keys {
		if err := c.EnqueueSetFlags(k, flags, value(i)); err != nil {
			return err
		}
	}
	if err := c.Flush(); err != nil {
		return err
	}
	for range keys {
		resp, err := c.ReadResponse()
		if err != nil {
			return err
		}
		if resp.Status != StatusOK {
			return fmt.Errorf("wire: unexpected SET response %v", resp.Status)
		}
	}
	return nil
}

// SetBatchRecs pipelines one conditional maintenance write per record —
// a TOMBSTONE SET for tombstone records (value(i) is ignored), a plain
// VERSIONED SET otherwise — with each write carrying its record's
// version. flags must include SetFlagRepair; SetFlagVersioned (and, per
// record, SetFlagTombstone) is added implicitly. It reports how many
// writes applied and how many were rejected as stale — the destination
// already held something strictly newer, which for a maintenance copy is
// success: the record is there, fresher than the copy in flight (for a
// tombstone: something newer than the delete, which by the
// versioned-repair invariant is the state that should win).
func (c *Client) SetBatchRecs(recs []KeyRec, flags SetFlags, value func(i int) []byte) (applied, stale int, err error) {
	for i, rec := range recs {
		if rec.Tombstone {
			err = c.EnqueueSetTombstone(rec.Key, flags, rec.Version)
		} else {
			err = c.EnqueueSetVersioned(rec.Key, flags, rec.Version, value(i))
		}
		if err != nil {
			return applied, stale, err
		}
	}
	if err := c.Flush(); err != nil {
		return applied, stale, err
	}
	for range recs {
		resp, err := c.ReadResponse()
		if err != nil {
			return applied, stale, err
		}
		switch resp.Status {
		case StatusOK:
			applied++
		case StatusVersionStale:
			stale++
		default:
			return applied, stale, fmt.Errorf("wire: unexpected VERSIONED SET response %v", resp.Status)
		}
	}
	return applied, stale, nil
}

// Rehash asks the server to begin an online incremental rehash.
func (c *Client) Rehash() error {
	resp, err := c.roundTrip(Request{Op: OpRehash})
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("wire: unexpected REHASH response %v", resp.Status)
	}
	return nil
}
