package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// This file is the transport layer of the router: one pipelined wire
// connection per member, lazily dialed, and round, the one engine that
// fans a batch out across members under a deadlock-free lock order and
// decides what a failed member costs it. It knows nothing about rings,
// epochs or replication — that is the topology layer (topology.go) and
// the routing client (client.go).

// DialFunc establishes the wire connection to one member. The default is
// wire.Dial; tests substitute wrappers (stall injection) and deployments
// can layer TLS here.
type DialFunc func(addr string) (*wire.Client, error)

// nodeConn is one member's connection state plus the router's per-member
// traffic counters. The connection is dialed lazily on first use, so
// members discovered through a topology refresh cost nothing until traffic
// routes to them.
type nodeConn struct {
	addr string
	mu   sync.Mutex // serializes use of cl
	cl   *wire.Client

	gets, hits, misses, sets, dels, redials, repairs atomic.Uint64
}

// client returns the live connection, dialing if needed. Caller holds nc.mu.
func (nc *nodeConn) client(dial DialFunc) (*wire.Client, error) {
	if nc.cl != nil {
		return nc.cl, nil
	}
	cl, err := dial(nc.addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", nc.addr, err)
	}
	nc.cl = cl
	return cl, nil
}

// drop discards the connection after an error. Caller holds nc.mu.
func (nc *nodeConn) drop() {
	if nc.cl != nil {
		nc.cl.Close()
		nc.cl = nil
	}
}

// withRetry runs op against the member connection, redialing once on
// failure. Caller holds nc.mu. Only safe for idempotent round trips.
func (nc *nodeConn) withRetry(dial DialFunc, op func(cl *wire.Client) error) error {
	cl, err := nc.client(dial)
	if err == nil {
		if err = op(cl); err == nil {
			return nil
		}
	}
	nc.drop()
	nc.redials.Add(1)
	cl, err2 := nc.client(dial)
	if err2 != nil {
		return fmt.Errorf("%w (redial: %v)", err, err2)
	}
	if err := op(cl); err != nil {
		nc.drop()
		return err
	}
	return nil
}

// batchTrace is one batch's trace context. The zero value means untraced:
// the requests go out in their v5-identical form with no trace bytes. A
// traced batch stamps the same context on every request of every
// sub-batch — fan-out is one logical request, so it is one trace.
type batchTrace struct {
	tc     wire.TraceContext
	traced bool
}

// stamp returns req carrying the batch's trace context (none when the
// batch is untraced) — the one place a request of a batch acquires it.
func (bt batchTrace) stamp(req wire.Request) wire.Request {
	req.Trace, req.Traced = bt.tc, bt.traced
	return req
}

// subBatch is the slice of one fan-out round bound for a single member.
type subBatch struct {
	nc        *nodeConn
	idx       []int // owner-table slots (see batchScratch), in enqueue order
	err       error
	delivered int
}

// batchScratch is everything one batch needs besides the wire: the owner
// table, the round's sub-batches, the read pipeline's work lists and the
// write pipeline's tallies. Pooled, so a steady-state batch allocates none
// of it whatever R is. A scratch is private to one batch from
// getBatchScratch until release.
//
// The owner table is flat with stride R: slot i*R+j is key i's j-th owner,
// primary first. Sub-batches carry slots, so a response handler recovers
// both the key's position in the caller's batch (slot/R) and which of its
// owners answered (slot%R). flagged has the same shape: on the read side
// it marks owners that authoritatively missed, on the write side owners
// whose write is still owed; both become background-repair targets.
type batchScratch struct {
	owners  []*nodeConn
	flagged []bool
	addrs   []string // scratch for one key's owner addresses

	subs []*subBatch
	free []*subBatch // recycled subBatch structs, idx capacity retained

	pending, next, waiters []int // reads: key indices awaiting this round, the next one, a lease holder

	acks   []int         // writes: owners that acknowledged each key
	vers   []uint64      // writes: highest version any owner stored each key under
	grants []*leaseGrant // writes: the fill lease taken for each key, if any
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func getBatchScratch() *batchScratch { return batchScratchPool.Get().(*batchScratch) }

// resize returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// add routes one owner-table slot to its member's sub-batch, opening the
// sub-batch on first use. The scan is linear because a round involves a
// handful of members at most.
func (sc *batchScratch) add(slot int) {
	nc := sc.owners[slot]
	for _, s := range sc.subs {
		if s.nc == nc {
			s.idx = append(s.idx, slot)
			return
		}
	}
	var s *subBatch
	if n := len(sc.free); n > 0 {
		s, sc.free = sc.free[n-1], sc.free[:n-1]
	} else {
		s = new(subBatch)
	}
	s.nc = nc
	s.idx = append(s.idx, slot)
	sc.subs = append(sc.subs, s)
}

// flaggedAddrs lists the flagged owners of key i. The result aliases the
// scratch and is valid until the next call.
func (sc *batchScratch) flaggedAddrs(i, rf int) []string {
	sc.addrs = sc.addrs[:0]
	for slot := i * rf; slot < (i+1)*rf; slot++ {
		if sc.flagged[slot] {
			sc.addrs = append(sc.addrs, sc.owners[slot].addr)
		}
	}
	return sc.addrs
}

// recycle retires the finished round's sub-batches to the freelist.
func (sc *batchScratch) recycle() {
	for _, s := range sc.subs {
		s.nc, s.idx, s.err, s.delivered = nil, s.idx[:0], nil, 0
		sc.free = append(sc.free, s)
	}
	sc.subs = sc.subs[:0]
}

// release resolves every fill lease the batch took — whatever became of
// the fill, local waiters must re-read rather than sleep out their cap —
// and returns the scratch to the pool.
func (sc *batchScratch) release() {
	for i, g := range sc.grants {
		if g != nil {
			close(g.done)
			sc.grants[i] = nil
		}
	}
	sc.recycle()
	batchScratchPool.Put(sc)
}

// round is the one place a batch meets the network. It takes the
// sub-batches sc.add built, locks their members in address order (a total
// order, so concurrent batches cannot deadlock), has send enqueue every
// slot and flushes once per member, then drains the responses through
// recv, so a round costs one round trip however many members it spans.
//
// It also owns the failed-member policy. A sub-batch that fails before any
// of its responses was delivered is replayed once on a fresh connection —
// never after, so no response is delivered twice. A sub-batch that fails
// for good gets its connection dropped (it may hold undrained responses)
// and keeps err and delivered set: idx[delivered:] are the slots the
// member never answered, and what becomes of those keys — the next owner,
// a quorum shortfall — is the calling pipeline's one decision. The other
// sub-batches are unaffected.
func (c *Client) round(sc *batchScratch, send func(cl *wire.Client, slot int) error, recv func(s *subBatch, slot int, resp wire.Response) error) {
	subs := sc.subs
	// Insertion sort: sub-batch counts are tiny and sort.Slice allocates.
	for i := 1; i < len(subs); i++ {
		for j := i; j > 0 && subs[j].nc.addr < subs[j-1].nc.addr; j-- {
			subs[j], subs[j-1] = subs[j-1], subs[j]
		}
	}
	for _, s := range subs {
		s.nc.mu.Lock()
	}
	for _, s := range subs {
		s.err = s.enqueue(c.dial, send)
	}
	for _, s := range subs {
		if s.err == nil {
			s.err = c.drain(s, recv)
		}
		if s.err != nil && s.delivered == 0 {
			s.nc.drop()
			s.nc.redials.Add(1)
			if s.err = s.enqueue(c.dial, send); s.err == nil {
				s.err = c.drain(s, recv)
			}
		}
		if s.err != nil {
			s.nc.drop()
		}
	}
	for _, s := range subs {
		s.nc.mu.Unlock()
	}
}

// enqueue dials the member if needed, pipelines the sub-batch's requests
// and flushes them as one write. Caller holds s.nc.mu.
func (s *subBatch) enqueue(dial DialFunc, send func(cl *wire.Client, slot int) error) error {
	cl, err := s.nc.client(dial)
	if err != nil {
		return err
	}
	for _, slot := range s.idx {
		if err := send(cl, slot); err != nil {
			return err
		}
	}
	return cl.Flush()
}

// drain reads the sub-batch's outstanding responses in order, observing
// the topology epoch each carries. Caller holds s.nc.mu.
func (c *Client) drain(s *subBatch, recv func(s *subBatch, slot int, resp wire.Response) error) error {
	for _, slot := range s.idx[s.delivered:] {
		resp, err := s.nc.cl.ReadResponse()
		if err != nil {
			return err
		}
		c.observeEpoch(resp.Epoch)
		if err := recv(s, slot, resp); err != nil {
			return err
		}
		s.delivered++
	}
	return nil
}
