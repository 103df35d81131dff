package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// This file is the transport layer of the router: a small fixed set of
// pipelined wire connections per member — lanes, each lazily dialed — and
// round, the one engine that fans a batch out across members under a
// deadlock-free lock order and decides what a failed member costs it.
// Everything that talks to a member holds exactly one of its lanes for the
// duration: a batch through round, every single round trip through
// nodeConn.do. It knows nothing about rings, epochs or replication — that
// is the topology layer (topology.go) and the routing client (client.go).

// DialFunc establishes the wire connection to one member. The default is
// wire.Dial; tests substitute wrappers (stall injection) and deployments
// can layer TLS here.
type DialFunc func(addr string) (*wire.Client, error)

// maxLanes is how many connections the router will open to one member.
// Concurrent batches that meet at a member take separate lanes instead of
// queueing behind one mutex for a whole round trip each; only contention
// opens a lane past the first, so the constant bounds sockets per member,
// it does not set them. Four, not two: at R > 1 the repair worker takes
// lanes as well, and two callers queue behind it when a member has only two
// (hypotheses/H8-router-lanes.md: 83k against 99k GET/s on cluster-r2).
const maxLanes = 4

// lanes is maxLanes everywhere but in H8's ablated control, which sets it
// to 1 to reproduce the one-connection router; never set outside tests.
var lanes = maxLanes

// lane is one wire connection to a member and the mutex that owns it: held
// from acquire to release, across the whole round trip, because a
// wire.Client is a single ordered pipeline.
type lane struct {
	mu sync.Mutex
	cl *wire.Client
}

// nodeConn is one member's lanes plus the router's per-member traffic
// counters. Lanes dial on first use, so a member discovered through a
// topology refresh costs nothing until traffic routes to it, and a router
// with one caller holds one connection per member.
type nodeConn struct {
	addr  string
	lanes [maxLanes]lane

	gets, hits, misses, sets, dels, redials, repairs atomic.Uint64
}

// acquire returns a locked lane: the first one free in index order — so
// the low lanes stay warm and the high ones are dialed only under
// contention — or, when all are busy, the first once it frees up.
func (nc *nodeConn) acquire() *lane {
	for i := range nc.lanes[:lanes] {
		if ln := &nc.lanes[i]; ln.mu.TryLock() {
			return ln
		}
	}
	nc.lanes[0].mu.Lock()
	return &nc.lanes[0]
}

// client returns the lane's live connection to addr, dialing if needed.
// Caller holds the lane.
func (ln *lane) client(addr string, dial DialFunc) (*wire.Client, error) {
	if ln.cl != nil {
		return ln.cl, nil
	}
	cl, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	ln.cl = cl
	return cl, nil
}

// drop discards the lane's connection after an error. Caller holds the
// lane.
func (ln *lane) drop() {
	if ln.cl != nil {
		ln.cl.Close()
		ln.cl = nil
	}
}

// connect dials the member now instead of on first use, so a bad address
// fails fast.
func (nc *nodeConn) connect(dial DialFunc) error {
	ln := nc.acquire()
	defer ln.mu.Unlock()
	_, err := ln.client(nc.addr, dial)
	return err
}

// do runs op as one round trip on a lane of the member, redialing once on
// failure. Only safe for idempotent round trips.
func (nc *nodeConn) do(dial DialFunc, op func(cl *wire.Client) error) error {
	ln := nc.acquire()
	defer ln.mu.Unlock()
	cl, err := ln.client(nc.addr, dial)
	if err == nil {
		if err = op(cl); err == nil {
			return nil
		}
	}
	ln.drop()
	nc.redials.Add(1)
	cl, err2 := ln.client(nc.addr, dial)
	if err2 != nil {
		return fmt.Errorf("%w (redial: %v)", err, err2)
	}
	if err := op(cl); err != nil {
		ln.drop()
		return err
	}
	return nil
}

// dropAll closes every lane's connection, waiting out whoever holds one.
func (nc *nodeConn) dropAll() {
	for i := range nc.lanes {
		ln := &nc.lanes[i]
		ln.mu.Lock()
		ln.drop()
		ln.mu.Unlock()
	}
}

// subBatch is the slice of one fan-out round bound for a single member.
type subBatch struct {
	nc        *nodeConn
	ln        *lane // the lane of nc this round holds; set and cleared by round
	idx       []int // owner-table slots (see batchScratch), in enqueue order
	err       error
	delivered int
	// resp holds the response being delivered. recv reads it by pointer:
	// the sub-batch is already on the heap, so handing a closure its
	// address neither copies the struct nor escapes a local.
	resp wire.Response
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
	vals   [][]byte      // SETs: each key's payload, produced once for all its owners
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
		s.nc, s.idx, s.err, s.delivered, s.resp = nil, s.idx[:0], nil, 0, wire.Response{}
		sc.free = append(sc.free, s)
	}
	sc.subs = sc.subs[:0]
}

// release resolves every fill lease the batch took — whatever became of
// the fill, local waiters must re-read rather than sleep out their cap —
// drops the caller's payloads so the pool does not pin them, and returns
// the scratch to the pool.
func (sc *batchScratch) release() {
	for i, g := range sc.grants {
		if g != nil {
			close(g.done)
			sc.grants[i] = nil
		}
	}
	clear(sc.vals)
	sc.recycle()
	batchScratchPool.Put(sc)
}

// round is the one place a batch meets the network. It takes the
// sub-batches sc.add built, locks a lane of each member in address order —
// a batch holds at most one lane per member and members are totally
// ordered, so concurrent batches cannot deadlock, and two batches that
// meet at a member take different lanes rather than turns — has send
// enqueue every slot and flushes once per member, then drains the
// responses through recv, so a round costs one round trip however many
// members it spans.
//
// It also owns the failed-member policy, which is per lane. A sub-batch
// that fails before any of its responses was delivered is replayed once on
// a fresh connection in the same lane — never after, so no response is
// delivered twice. A sub-batch that fails for good gets its lane's
// connection dropped (it may hold undrained responses) and keeps err and
// delivered set: idx[delivered:] are the slots the member never answered,
// and what becomes of those keys — the next owner, a quorum shortfall — is
// the calling pipeline's one decision. The other sub-batches, and other
// batches on the member's other lanes, are unaffected.
func (c *Client) round(sc *batchScratch, send func(cl *wire.Client, slot int) error, recv func(s *subBatch, slot int, resp *wire.Response) error) {
	subs := sc.subs
	// Insertion sort: sub-batch counts are tiny and sort.Slice allocates.
	for i := 1; i < len(subs); i++ {
		for j := i; j > 0 && subs[j].nc.addr < subs[j-1].nc.addr; j-- {
			subs[j], subs[j-1] = subs[j-1], subs[j]
		}
	}
	for _, s := range subs {
		s.ln = s.nc.acquire()
	}
	for _, s := range subs {
		s.err = s.enqueue(c.dial, send)
	}
	for _, s := range subs {
		if s.err == nil {
			s.err = c.drain(s, recv)
		}
		if s.err != nil && s.delivered == 0 {
			s.ln.drop()
			s.nc.redials.Add(1)
			if s.err = s.enqueue(c.dial, send); s.err == nil {
				s.err = c.drain(s, recv)
			}
		}
		if s.err != nil {
			s.ln.drop()
		}
	}
	for _, s := range subs {
		s.ln.mu.Unlock()
		s.ln = nil
	}
}

// enqueue dials the lane if needed, pipelines the sub-batch's requests
// and flushes them as one write. Caller holds s.ln.
func (s *subBatch) enqueue(dial DialFunc, send func(cl *wire.Client, slot int) error) error {
	cl, err := s.ln.client(s.nc.addr, dial)
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
// the topology epoch each carries. Caller holds s.ln.
func (c *Client) drain(s *subBatch, recv func(s *subBatch, slot int, resp *wire.Response) error) error {
	for _, slot := range s.idx[s.delivered:] {
		var err error
		if s.resp, err = s.ln.cl.ReadResponse(); err != nil {
			return err
		}
		c.observeEpoch(s.resp.Epoch)
		if err := recv(s, slot, &s.resp); err != nil {
			return err
		}
		s.delivered++
	}
	return nil
}
