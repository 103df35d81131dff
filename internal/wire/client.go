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
// There is one method per operation, and each is one synchronous round
// trip that decodes exactly the statuses its operation can answer: Get,
// Set, Del, GetLease, Fill, Put, Hint, and the admin calls. For batched
// pipelining, Enqueue any number of requests, Flush once, then read the
// responses in order with ReadResponse (GetBatch, SetBatch and PutBatch
// are that loop for one operation). What varies within an operation is a
// field of the Request, never another method: a trace context is
// Request.Trace.
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

// Enqueue buffers one request without flushing; every field of req goes
// out as given, trace context included.
func (c *Client) Enqueue(req Request) error { return c.w.writeRequest(&req) }

// EnqueueGet buffers a GET without flushing.
func (c *Client) EnqueueGet(key uint64) error {
	return c.w.writeRequest(&Request{Op: OpGet, Key: key})
}

// Flush sends all buffered requests.
func (c *Client) Flush() error { return c.w.Flush() }

// ReadResponse reads the next pipelined response. The response Value
// aliases an internal buffer valid until the next read.
func (c *Client) ReadResponse() (Response, error) {
	resp, err := c.next()
	if resp == nil {
		return Response{}, err
	}
	return *resp, err
}

// next is ReadResponse without the copy: the Reader's own Response, valid
// until the next read. It records the epoch, and an ERROR response comes
// back with the server's message as the error.
func (c *Client) next() (*Response, error) {
	resp, err := c.r.ReadResponse()
	if err != nil {
		return nil, err
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

func (c *Client) roundTrip(req *Request) (*Response, error) {
	if err := c.w.writeRequest(req); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.next()
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
	resp, err := c.roundTrip(&Request{Op: OpGet, Key: key})
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

// Set stores value under key as a user write, reporting whether an entry
// was evicted.
func (c *Client) Set(key uint64, value []byte) (evicted bool, err error) {
	resp, err := c.roundTrip(&Request{Op: OpSet, Key: key, Value: value})
	if err != nil {
		return false, err
	}
	if resp.Status != StatusOK {
		return false, fmt.Errorf("wire: unexpected SET response %v", resp.Status)
	}
	return resp.Evicted, nil
}

// Put issues one PUT round trip — a maintenance write of the record req
// names (Key, Version, Tombstone, Value; Op is set here). It reports
// whether the record was stored and the version the server holds after
// the call: the carried version when stored, the newer winning version
// when refused as stale — which for a maintenance copy is success by
// other means.
func (c *Client) Put(req Request) (applied bool, stored uint64, err error) {
	req.Op = OpPut
	resp, err := c.roundTrip(&req)
	if err != nil {
		return false, 0, err
	}
	switch resp.Status {
	case StatusOK:
		return true, resp.Version, nil
	case StatusVersionStale:
		return false, resp.Version, nil
	default:
		return false, 0, fmt.Errorf("wire: unexpected PUT response %v", resp.Status)
	}
}

// Hint issues one HINT round trip (v8): it parks a record (tombstone=true
// for a delete, with a nil value) whose intended owner target was
// unreachable on the receiving server, which replays it to target as a
// PUT once target is reachable again.
func (c *Client) Hint(target string, key uint64, tombstone bool, version uint64, value []byte) error {
	resp, err := c.roundTrip(&Request{
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

// Lease is the decoded outcome of a GETL round trip.
type Lease struct {
	// Hit reports a resident key: Version and Value carry the live value
	// (exactly a GET hit) and no lease state was touched.
	Hit bool
	// Token, when nonzero, grants this caller the fill lease for the key;
	// it must accompany the fill (Fill).
	Token uint64
	// TTL is how long the lease (own or, for a zero-token response, the
	// current holder's) remains outstanding.
	TTL time.Duration
	// Version and Value are set on a Hit; Value is a copy, safe to retain.
	Version uint64
	Value   []byte
}

// GetLease issues one GETL round trip: GET with lease semantics on a
// miss. See Lease for the three outcomes (hit, grant, zero-token wait).
func (c *Client) GetLease(key uint64) (Lease, error) {
	resp, err := c.roundTrip(&Request{Op: OpGetLease, Key: key})
	if err != nil {
		return Lease{}, err
	}
	switch {
	case resp.Status == StatusHit:
		return Lease{Hit: true, Version: resp.Version, Value: append([]byte(nil), resp.Value...)}, nil
	case resp.Status == StatusLease:
		return Lease{Token: resp.LeaseToken, TTL: resp.LeaseTTL}, nil
	default:
		return Lease{}, fmt.Errorf("wire: unexpected GETL response %v", resp.Status)
	}
}

// Fill issues one FILL round trip: the write half of GetLease, carrying
// the token a grant handed this caller. It reports whether the fill landed
// and the version the server holds after the call — the fill's new version
// when it applied, the stored winning version (0 when the key is absent)
// when the lease was lost. A lost lease is a successful no-op:
// someone fresher already owns the key's state.
func (c *Client) Fill(key, token uint64, value []byte) (filled bool, stored uint64, err error) {
	resp, err := c.roundTrip(&Request{Op: OpFill, Key: key, LeaseToken: token, Value: value})
	if err != nil {
		return false, 0, err
	}
	switch resp.Status {
	case StatusOK:
		return true, resp.Version, nil
	case StatusLeaseLost:
		return false, resp.Version, nil
	default:
		return false, 0, fmt.Errorf("wire: unexpected FILL response %v", resp.Status)
	}
}

// Del deletes key as a versioned write (v8): the server stores a
// tombstone under a freshly assigned version instead of erasing history,
// so replica repair can propagate the delete without resurrection. It
// reports whether a live value was present and the tombstone's assigned
// version.
func (c *Client) Del(key uint64) (present bool, version uint64, err error) {
	resp, err := c.roundTrip(&Request{Op: OpDel, Key: key})
	if err != nil {
		return false, 0, err
	}
	if resp.Status != StatusOK {
		return false, 0, fmt.Errorf("wire: unexpected DEL response %v", resp.Status)
	}
	return resp.Evicted, resp.Version, nil
}

// Stats fetches the server's counters as one METRICS round trip; detail
// adds each bucket's occupancy (the OCCUPANCY section). Its one non-test
// caller is the standing benchmark (bench/); everything else reads
// Metrics(MetricsCounters).Stats(). It goes when bench/ does the same.
func (c *Client) Stats(detail bool) (*Stats, error) {
	flags := MetricsCounters
	if detail {
		flags |= MetricsOccupancy
	}
	m, err := c.Metrics(flags)
	if err != nil {
		return nil, err
	}
	return m.Stats(), nil
}

// Metrics fetches the server's flight-recorder snapshot; flags selects
// the payload sections (MetricsAll for everything) and must name at least
// one.
func (c *Client) Metrics(flags MetricsFlags) (*Metrics, error) {
	resp, err := c.roundTrip(&Request{Op: OpMetrics, MetricsFlags: flags})
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
	if err := c.w.writeRequest(&Request{Op: OpKeys}); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	var verr error
	for {
		resp, err := c.next()
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

// Topology offers a topology to the server, which adopts it only if it
// is strictly newer than the topology it holds (or if it holds none), and
// returns the server's view after the offer — equal to offer when it was
// adopted, the server's newer view when the offer lost the race. An empty
// offer (Topology{}) is a read: a server that was never told a topology
// reports epoch 0 and no members.
func (c *Client) Topology(offer Topology) (Topology, error) {
	resp, err := c.roundTrip(&Request{Op: OpTopology, Topology: offer})
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
// elsewhere with PutBatch, so a copy can never supersede a value
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
		resp, err := c.next()
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
	for i, k := range keys {
		if err := c.Enqueue(Request{Op: OpSet, Key: k, Value: value(i)}); err != nil {
			return err
		}
	}
	if err := c.Flush(); err != nil {
		return err
	}
	for range keys {
		resp, err := c.next()
		if err != nil {
			return err
		}
		if resp.Status != StatusOK {
			return fmt.Errorf("wire: unexpected SET response %v", resp.Status)
		}
	}
	return nil
}

// PutBatch pipelines one synchronous PUT per record — value(i) is the
// i-th record's value, ignored for a tombstone — each carrying its
// record's version. It reports how many were stored and how many were
// refused as stale — the destination already held something strictly
// newer, which for a maintenance copy is success: the record is there,
// fresher than the copy in flight (for a tombstone: something newer than
// the delete, which by the versioned-repair invariant is the state that
// should win). On an error the counts cover the responses read, in order.
func (c *Client) PutBatch(recs []KeyRec, value func(i int) []byte) (applied, stale int, err error) {
	for i, rec := range recs {
		req := Request{Op: OpPut, Key: rec.Key, Version: rec.Version, Tombstone: rec.Tombstone}
		if !rec.Tombstone {
			req.Value = value(i)
		}
		if err := c.Enqueue(req); err != nil {
			return 0, 0, err
		}
	}
	if err := c.Flush(); err != nil {
		return 0, 0, err
	}
	for range recs {
		resp, err := c.next()
		if err != nil {
			return applied, stale, err
		}
		switch resp.Status {
		case StatusOK:
			applied++
		case StatusVersionStale:
			stale++
		default:
			return applied, stale, fmt.Errorf("wire: unexpected PUT response %v", resp.Status)
		}
	}
	return applied, stale, nil
}
