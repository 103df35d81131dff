package cluster

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/concurrent"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Options configures a Client.
type Options struct {
	// Replicas is R, the number of distinct owners per key (the R members
	// scoring highest for the key; see Ring). 0 or 1 disables
	// replication. R multiplies resident memory and write fan-out to buy
	// availability: any single owner can serve a read, so R-1 node losses
	// are survivable without losing a read.
	Replicas int
	// WriteQuorum is W, how many of the R owners must acknowledge a SET
	// before it succeeds; 0 means all of them. W < R keeps writes available
	// through R-W node failures at the cost of leaving the failed owners
	// stale until read repair catches them.
	WriteQuorum int
	// Bootstrap treats the dialed addresses as seeds rather than the
	// membership: the member list comes from the highest-epoch view any
	// seed reports to a TOPOLOGY read, so a single address of an
	// established cluster is enough to route to all of it.
	Bootstrap bool
	// Dial overrides the member connection factory (default wire.Dial,
	// which bounds connection establishment by wire.DefaultDialTimeout, so
	// a black-holed member address costs a bounded wait instead of parking
	// warm-up, join, refresh or a routed batch in the kernel's connect
	// retry cycle).
	Dial DialFunc
	// TraceSample enables end-to-end request tracing (wire v6): every
	// N-th batch (or single-key operation) is stamped with a trace ID
	// that rides the whole fan-out — every sub-batch, every fallback
	// round, every quorum write, and any background repair the operation
	// schedules — so the member-side span rings can be joined on the
	// trace ID into the request's cluster-wide path.
	// 0 disables tracing entirely: no request carries trace bytes and
	// the member-side cost is zero.
	TraceSample int
	// Leases opts into the v7 lease/singleflight miss path: the client's
	// GETs go out as GETL, a miss hands exactly one caller (cluster-wide)
	// a fill lease, and concurrent missers briefly wait for that fill
	// instead of stampeding the origin.
	//
	// Leases assume read-through usage — the memcached lease model: a SET
	// of a key this client was granted a lease for is sent as the lease
	// fill, and if the lease was lost (a concurrent write superseded it,
	// or it expired) the fill is DISCARDED as a successful no-op, because
	// fresher data already won. A caller that genuinely overwrites keys
	// it is concurrently reading through should leave Leases off.
	Leases bool
	// NearCache enables a bounded in-process cache of recently read
	// values, version-invalidated by the cluster's piggybacked per-key
	// versions; see NearCacheOptions. Useful alone, but designed to pair
	// with Leases: together a hot key's read storm is absorbed at the
	// client instead of at the key's primary owner.
	NearCache NearCacheOptions
	// AntiEntropy enables the background anti-entropy sweep (wire v8) at
	// the given period; 0 disables it. Each sweep streams every member's
	// KEYS records — key, version, tombstone — diffs each key's replica
	// set against the newest record observed, and repairs divergence in
	// both directions with conditional versioned writes (values re-read
	// from a holder, deletions propagated as tombstones). The sweep is the
	// self-healing backstop under replication: whatever read repair and
	// hinted handoff miss converges within one period. Meaningful only
	// with Replicas > 1; see AntiEntropySweep for the deterministic form.
	AntiEntropy time.Duration
}

// Client routes cache traffic across a cluster of cached nodes. It is
// built from two explicit layers: a topology layer (topology.go) — the
// rendezvous-hashed ring plus the epoch-versioned member list, kept
// converged with the cluster through piggybacked epoch checks, TOPOLOGY
// reads and TOPOLOGY pushes — and a transport layer (transport.go),
// a few pipelined wire connections (lanes) per member, each dialed on
// first use. Keys map to members through the ring and METRICS fans out to
// every member.
//
// Every key has R owners (Options.Replicas; the R members scoring highest
// for it, one when unreplicated), and every batch operation is built
// from the same fan-out round: split the keys by owner, flush every
// member's pipeline, then drain, so a round costs one round trip however
// many members it spans. GetBatch runs up to R rounds, asking each
// unresolved key's next owner, and schedules background read repair —
// the value re-written as a PUT, maintenance traffic — on the owners that
// missed before a later one hit. SetBatch and Del run one round over all R
// owners of every key and need W acknowledgements per key
// (Options.WriteQuorum). Options.Leases and Options.NearCache add steps to
// those same two pipelines; no setting selects a different one. Node loss
// therefore costs availability nothing as long as one owner of each key
// survives, and the repaired copies regenerate without operator action.
//
// The failed-member policy is stated once, in round (transport.go): a
// member whose connection fails before it delivered any response of its
// sub-batch is redialed and the sub-batch replayed, once — never after a
// response was delivered, so no request is double-counted by an observer.
// A member that still fails answers for none of its undelivered keys and
// that connection is dropped; the other members' sub-batches, and other
// callers' batches on the member's other lanes, are unaffected. Those keys
// then fail over to their next owner (reads) or count as unacknowledged
// (writes). With R = 1 there is no next owner, so the error reaches the
// caller — for exactly the keys whose single owner stayed unreachable
// after the one redial.
//
// A Client is safe for concurrent use, and concurrent batches proceed in
// parallel even where they share members: each takes its own lane of a
// member, and only more concurrent callers than a member has lanes wait
// for one. Calls one goroutine makes in sequence stay ordered (a call
// returns after its acknowledgements); concurrent calls reach a key's
// owners in no particular order, as calls from two routers do, and
// converge the same way — last writer wins by version. Membership changes
// (AddNode, RemoveNode, an adopted refresh) exclude all traffic for their
// duration, which is what makes RemoveNode's migration accounting exact.
type Client struct {
	dial     DialFunc
	replicas int // R; ≤1 means unreplicated
	quorum   int // W; 0 means R

	mu    sync.RWMutex // guards ring, nodes and epoch; write side = membership changes
	ring  *Ring
	nodes map[string]*nodeConn
	epoch uint64 // topology epoch of the current view

	// curEpoch mirrors epoch and staleEpoch records the highest epoch seen
	// in any response above it, so the hot path detects staleness with two
	// atomic loads; refreshes counts adopted refreshes. refreshing is the
	// single-flight latch of refreshTopology: the TOPOLOGY reads run with
	// c.mu released, and the latch keeps concurrent callers from piling a
	// fetch fan-out per batch onto a cluster that just changed.
	curEpoch   atomic.Uint64
	staleEpoch atomic.Uint64
	refreshes  atomic.Uint64
	refreshing atomic.Bool
	closed     atomic.Bool

	// staleRepairs counts this router's maintenance writes (read repairs,
	// warm-up, migration and anti-entropy copies) that a destination
	// rejected as version-stale — the destination already held a strictly
	// newer value, so the copy was superseded rather than lost.
	staleRepairs atomic.Uint64

	// Tracing (Options.TraceSample): every traceSample-th batch is minted
	// a trace ID from the per-client seed and the batch counter — unique
	// without coordination, nonzero by construction.
	traceSample  int
	traceSeed    uint64
	traceCounter atomic.Uint64

	// Reconcile bookkeeping (reconcile.go): the dedicated connections of
	// in-flight passes, so Close can cut their streams, and a WaitGroup
	// Close waits on so no warm-up goroutine outlives the client.
	passMu    sync.Mutex
	passConns map[*wire.Client]struct{}
	warmupWG  sync.WaitGroup

	// Read-repair machinery: detected-stale replicas are queued here and a
	// single background goroutine re-writes them as PUTs.
	repairCh     chan repairTask
	repairDone   chan struct{}
	repairClosed bool // guarded by mu; set once by Close

	fallbackHits     atomic.Uint64
	repairsScheduled atomic.Uint64
	repairsApplied   atomic.Uint64
	repairsDropped   atomic.Uint64

	// Lease/near-cache machinery (wire v7, lease.go/nearcache.go). grants
	// holds the fill leases this client was granted and has not yet
	// resolved, each *leaseGrant under its key; it is nil unless
	// Options.Leases, and near is nil unless Options.NearCache enabled it.
	grants *concurrent.Cache
	near   *nearCache

	leaseGrants atomic.Uint64 // fill leases granted to this client
	leaseLost   atomic.Uint64 // fills refused LEASE_LOST
	leaseWaits  atomic.Uint64 // keys that waited on another caller's fill

	// Hinted handoff and anti-entropy (wire v8, reconcile.go); their
	// counters are ReplicationCounters' HintsSent, HintsFailed, Sweeps and
	// SweepRepairs. aeStop/aeDone bracket the background sweep goroutine
	// Options.AntiEntropy starts.
	hintsSent   atomic.Uint64
	hintsFailed atomic.Uint64
	aeSweeps    atomic.Uint64
	aeRepairs   atomic.Uint64
	aeStarted   bool // set once in Dial, before any use
	aeStop      chan struct{}
	aeDone      chan struct{}
	aeStopOnce  sync.Once
}

// Dial builds a routing client. Without Options.Bootstrap, addrs is the
// membership: every address is dialed eagerly and, unless the members
// already hold exactly this view, a bumped topology is pushed at them so
// later clients can bootstrap from any one of them. With Options.Bootstrap
// the addresses are seeds: the membership is discovered through TOPOLOGY
// reads and one live seed suffices.
func Dial(addrs []string, opts Options) (*Client, error) {
	if err := Validate(addrs); err != nil {
		return nil, err
	}
	dial := opts.Dial
	if dial == nil {
		dial = wire.Dial
	}
	members := addrs
	var epoch uint64
	var push bool
	if opts.Bootstrap {
		var err error
		members, epoch, push, err = resolveSeeds(addrs, dial)
		if err != nil {
			return nil, err
		}
	}
	if err := ValidateReplication(opts.Replicas, opts.WriteQuorum, len(members)); err != nil {
		return nil, err
	}
	c := &Client{
		dial:        dial,
		replicas:    opts.Replicas,
		quorum:      opts.WriteQuorum,
		traceSample: opts.TraceSample,
		near:        newNearCache(opts.NearCache),
		traceSeed:   telemetry.HashKey(uint64(time.Now().UnixNano())) | 1,
		ring:        NewRing(0, members...),
		epoch:       epoch,
		nodes:       make(map[string]*nodeConn, len(members)),
		passConns:   make(map[*wire.Client]struct{}),
		repairCh:    make(chan repairTask, repairQueueDepth),
		repairDone:  make(chan struct{}),
		aeStop:      make(chan struct{}),
		aeDone:      make(chan struct{}),
	}
	c.curEpoch.Store(epoch)
	if opts.Leases {
		c.grants = routerStore(grantSlots)
	}
	// The repair worker starts before the member dials so that the error
	// path below can Close (which waits for the worker) without hanging.
	go c.repairLoop()
	if opts.AntiEntropy > 0 {
		c.aeStarted = true
		go c.antiEntropyLoop(opts.AntiEntropy)
	}
	for _, a := range members {
		nc := &nodeConn{addr: a}
		// Explicitly listed members are dialed eagerly so a typo fails
		// fast. Bootstrap-discovered members are dialed lazily instead: a
		// crashed member must not block new routers from joining a cluster
		// whose whole design (replica fallback, drainless RemoveNode of a
		// dead address) tolerates it.
		if !opts.Bootstrap {
			if err := nc.connect(dial); err != nil {
				c.Close()
				return nil, err
			}
		}
		c.nodes[a] = nc
	}
	if !opts.Bootstrap {
		// Read each member's TOPOLOGY view through the pooled connection
		// just dialed (no second handshake) to settle the starting epoch:
		// adopt the members' epoch when they already hold exactly this
		// view, else advance past every reported epoch and push.
		views := make(map[string]wire.Topology, len(members))
		for _, a := range members {
			var t wire.Topology
			err := c.nodes[a].do(dial, func(cl *wire.Client) error {
				var err error
				t, err = cl.Topology(wire.Topology{})
				return err
			})
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster: TOPOLOGY %s: %w", a, err)
			}
			views[a] = t
		}
		c.mu.Lock()
		c.epoch, push = explicitEpoch(views, members)
		c.curEpoch.Store(c.epoch)
		c.mu.Unlock()
	}
	if push {
		c.mu.Lock()
		c.pushTopologyLocked(nil)
		c.mu.Unlock()
	}
	return c, nil
}

// Close stops the read-repair worker, cuts any in-flight reconcile pass
// (warm-up, drain or sweep) and waits out warm-ups, and tears down every
// member connection.
func (c *Client) Close() error {
	c.closed.Store(true)
	// Once the flag is up no reconcile pass can dial a dedicated
	// connection, and closing the open ones aborts passes mid-flight (a
	// sweep, a warm-up, a drain); they finish through their error paths.
	// The anti-entropy loop is then stopped and awaited, and the WaitGroup
	// at the bottom guarantees no warm-up outlives this call.
	c.aeStopOnce.Do(func() { close(c.aeStop) })
	c.passMu.Lock()
	for cl := range c.passConns {
		cl.Close()
	}
	c.passMu.Unlock()
	if c.aeStarted {
		<-c.aeDone
	}
	c.mu.Lock()
	wait := false
	if !c.repairClosed {
		c.repairClosed = true
		close(c.repairCh)
		wait = true
	}
	for _, nc := range c.nodes {
		nc.dropAll()
	}
	c.mu.Unlock()
	if wait {
		<-c.repairDone
		// An in-flight repair may have redialed a member between the drop
		// above and the worker's exit; drop again now that nothing can
		// reopen connections.
		c.mu.Lock()
		for _, nc := range c.nodes {
			nc.dropAll()
		}
		c.mu.Unlock()
	}
	c.warmupWG.Wait()
	return nil
}

// nextTrace decides whether the next batch is traced and mints its trace
// ID, zero when it is not. The batch stamps the ID on every request of
// every sub-batch and on the repairs it schedules: fan-out is one logical
// request, so it is one trace. The ID packs the per-client seed (nonzero
// by construction, so a traced batch never carries the zero ID) with a
// scramble of the batch counter, unique across clients without
// coordination. Minting is two atomics on the untraced path.
func (c *Client) nextTrace() (id telemetry.TraceID) {
	if c.traceSample <= 0 {
		return id
	}
	n := c.traceCounter.Add(1)
	if n%uint64(c.traceSample) != 0 {
		return id
	}
	binary.LittleEndian.PutUint64(id[:8], c.traceSeed)
	binary.LittleEndian.PutUint64(id[8:], telemetry.HashKey(c.traceSeed^n))
	return id
}

// Nodes returns the current members in sorted order.
func (c *Client) Nodes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.Nodes()
}

// effReplicas returns the effective replica count: the configured R clamped
// to the current membership, and at least 1. Caller holds c.mu (either
// side).
func (c *Client) effReplicas() int {
	r := c.replicas
	if r < 1 {
		r = 1
	}
	if n := c.ring.NumNodes(); r > n {
		r = n
	}
	return r
}

// effQuorum returns the effective write quorum for r replicas: the
// configured W, or r when W is 0, clamped to r. Caller holds c.mu.
func (c *Client) effQuorum(r int) int {
	w := c.quorum
	if w <= 0 || w > r {
		w = r
	}
	return w
}

// Owners returns key's current replica set, primary first. Unreplicated
// clients return a single owner. It reports the routing decision only;
// whether each owner actually holds the key is a cache question.
func (c *Client) Owners(key uint64) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.OwnersFor(key, c.effReplicas())
}

// OwnerSample returns each member's replica-set slot count over n sampled
// keys plus the effective replica count; see Ring.SampleOwners. Dividing a
// count by n × replicas yields the member's share of total residency — the
// per-replica-set balance that stays ≤ 100% even though every key resides
// on R members.
func (c *Client) OwnerSample(n int, seed uint64) (share map[string]int, replicas int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r := c.effReplicas()
	return c.ring.SampleOwners(n, r, seed), r
}

// route fills the owner-table rows of the key indices in idxs and clears
// the flags. Caller holds c.mu (either side).
func (c *Client) route(sc *batchScratch, keys []uint64, idxs []int, rf int) error {
	if rf == 0 {
		return fmt.Errorf("cluster: empty ring")
	}
	sc.owners = resize(sc.owners, len(keys)*rf)
	sc.flagged = resize(sc.flagged, len(keys)*rf)
	for _, i := range idxs {
		sc.addrs = c.ring.appendOwners(sc.addrs[:0], keys[i], rf)
		for j, addr := range sc.addrs {
			sc.owners[i*rf+j] = c.nodes[addr]
		}
	}
	return nil
}

// GetBatch routes one GET per key and calls visit exactly once per key,
// whatever mix of local hits, misses, member failures and fallbacks
// resolved it. The value passed to visit aliases a connection buffer valid
// only for the duration of the call. Visit order is unspecified beyond key
// order within one member's sub-batch.
//
// Every configuration runs the same pipeline; R, Leases and NearCache only
// set how much of it has work to do. A pre-pass serves what the near-cache
// holds and waits briefly on fills this client itself owns. The rest goes
// through up to R rounds (readRounds), each one round trip across all the
// members it spans: round j asks every unresolved key's j-th owner, so a
// batch costs one round trip plus one per fallback owner tried, and a key
// is an error only when all of its owners stayed unreachable. Keys whose
// fill lease another caller holds are then polled until the fill lands
// (pollWaiters).
func (c *Client) GetBatch(keys []uint64, visit func(i int, hit bool, value []byte)) error {
	c.maybeRefresh()
	trace := c.nextTrace()
	c.mu.RLock()
	defer c.mu.RUnlock()
	sc := getBatchScratch()
	defer sc.release()

	sc.pending = sc.pending[:0]
	for i := range keys {
		sc.pending = append(sc.pending, i)
	}
	sc.pending = c.serveNear(keys, sc.pending, visit)
	sc.pending = c.waitLocalGrants(keys, sc.pending, visit)
	if len(sc.pending) == 0 {
		return nil
	}
	rf := c.effReplicas()
	if err := c.route(sc, keys, sc.pending, rf); err != nil {
		return err
	}
	sc.waiters = sc.waiters[:0]
	if err := c.readRounds(sc, keys, trace, rf, rf, visit); err != nil {
		return err
	}
	return c.pollWaiters(sc, keys, trace, rf, visit)
}

// readRounds resolves the key indices in sc.pending in up to rounds
// rounds. Round j sends each still-unresolved key to its j-th owner — as
// GETL when leases are on and j is 0, else as GET. Only the primary
// leases: fallback owners may legitimately be empty, and granting fills
// against them would mint one lease per replica per key. A hit resolves
// the key and schedules repair of the owners that authoritatively missed
// before it; a miss (a lease grant is a primary miss plus the fill lease)
// flags the owner and moves the key to the next round, or resolves it as
// a miss on the last; a key whose fill lease someone else holds joins
// sc.waiters. A member that round could not reach (after its one replay)
// answers for none of its keys: they move to the next round too, and on
// the last round resolve as misses if some owner authoritatively missed,
// else count as unreadable. An unreachable owner is never flagged — it
// may be dead, and aiming repairs at a corpse would grind the repair
// worker on failed dials. Caller holds c.mu.RLock.
func (c *Client) readRounds(sc *batchScratch, keys []uint64, trace telemetry.TraceID, rf, rounds int, visit func(i int, hit bool, value []byte)) error {
	var (
		lease, last bool
		unresolved  int
		lastErr     error
	)
	send := func(cl *wire.Client, slot int) error {
		op := wire.OpGet
		if lease {
			op = wire.OpGetLease
		}
		return cl.Enqueue(wire.Request{Op: op, Key: keys[slot/rf], Trace: trace})
	}
	recv := func(s *subBatch, slot int, resp *wire.Response) error {
		i := slot / rf
		key := keys[i]
		hit := false
		s.nc.gets.Add(1)
		switch st := resp.Status; {
		case st == wire.StatusHit:
			s.nc.hits.Add(1)
			if slot%rf > 0 {
				c.fallbackHits.Add(1)
				c.scheduleRepair(key, resp.Version, resp.Value, sc.flaggedAddrs(i, rf), trace)
			}
			// Resident after all (or about to be, through the repair
			// above): a stray grant must not turn a later user SET of the
			// key into a discardable fill.
			c.finishGrant(key)
			hit = true
		case st == wire.StatusMiss:
			s.nc.misses.Add(1)
		case st == wire.StatusLease && resp.LeaseToken != 0:
			s.nc.misses.Add(1)
			c.recordGrant(key, resp.LeaseToken, resp.LeaseTTL)
		case st == wire.StatusLease:
			s.nc.misses.Add(1)
			sc.waiters = append(sc.waiters, i)
			return nil
		default:
			return fmt.Errorf("cluster: unexpected GET response %v from %s", st, s.nc.addr)
		}
		switch {
		case hit:
			val := resp.Value
			if c.near != nil {
				val, _ = c.near.reconcile(key, resp.Version, val, time.Now())
			}
			visit(i, true, val)
		case last:
			visit(i, false, nil)
		default:
			sc.flagged[slot] = true
			sc.next = append(sc.next, i)
		}
		return nil
	}

	for j := 0; j < rounds && len(sc.pending) > 0; j++ {
		lease, last = c.grants != nil && j == 0, j == rounds-1
		for _, i := range sc.pending {
			sc.add(i*rf + j)
		}
		sc.next = sc.next[:0]
		c.round(sc, send, recv)
		for _, s := range sc.subs {
			if s.err == nil {
				continue
			}
			lastErr = s.err
			for _, slot := range s.idx[s.delivered:] {
				i := slot / rf
				switch {
				case !last:
					sc.next = append(sc.next, i)
				case len(sc.flaggedAddrs(i, rf)) > 0:
					visit(i, false, nil)
				default:
					unresolved++
				}
			}
		}
		sc.recycle()
		sc.pending, sc.next = sc.next, sc.pending
	}
	if unresolved > 0 {
		return fmt.Errorf("cluster: %d keys unreadable on all %d owners tried: %w", unresolved, rounds, lastErr)
	}
	return nil
}

// routeWrite prepares a write batch: every key's owner row and zeroed
// tallies. Caller holds c.mu (either side).
func (c *Client) routeWrite(sc *batchScratch, keys []uint64, rf int) error {
	sc.pending = sc.pending[:0]
	for i := range keys {
		sc.pending = append(sc.pending, i)
	}
	sc.acks = resize(sc.acks, len(keys))
	sc.vers = resize(sc.vers, len(keys))
	sc.grants = resize(sc.grants, len(keys))
	return c.route(sc, keys, sc.pending, rf)
}

// writeRound runs a write batch's one round over the slots already added
// and flags every slot its member never acknowledged — the owners the
// write is still owed to. It returns the last member error, for the
// quorum-shortfall message.
func (c *Client) writeRound(sc *batchScratch, send func(cl *wire.Client, slot int) error, recv func(s *subBatch, slot int, resp *wire.Response) error) (lastErr error) {
	c.round(sc, send, recv)
	for _, s := range sc.subs {
		if s.err != nil {
			lastErr = s.err
			for _, slot := range s.idx[s.delivered:] {
				sc.flagged[slot] = true
			}
		}
	}
	return lastErr
}

// ack credits key i with one owner's acknowledgement at version ver.
func (sc *batchScratch) ack(i int, ver uint64) {
	sc.acks[i]++
	sc.vers[i] = max(sc.vers[i], ver)
}

// SetBatch routes one SET per key, with value(i) producing the i-th
// payload, in one round trip across all the members involved: each key is
// written to all R of its owners, and the batch fails unless every key is
// acknowledged by at least W of them. Owners that failed their write
// while the key still met quorum are queued for background repair at the
// version the write was stored under, so a transiently dead member
// converges instead of staying stale. R = 1 is the same round with one
// owner per key and a quorum of one.
//
// A key this client holds a fill lease for (Options.Leases) is sent as
// the lease fill instead, to its primary alone: applied, it propagates to
// the other owners as a conditional background repair; refused
// (LEASE_LOST), it is a successful no-op, because fresher state already
// won — the read-through contract Options.Leases documents.
func (c *Client) SetBatch(keys []uint64, value func(i int) []byte) error {
	c.maybeRefresh()
	trace := c.nextTrace()
	c.mu.RLock()
	defer c.mu.RUnlock()
	sc := getBatchScratch()
	defer sc.release()
	rf := c.effReplicas()
	if err := c.routeWrite(sc, keys, rf); err != nil {
		return err
	}
	// Each payload is produced once, whatever R is: every owner's request,
	// the repair and the near-cache below all take the same bytes, which
	// the zero-copy rule already keeps unmodified until the flush.
	sc.vals = resize(sc.vals, len(keys))
	for i, k := range keys {
		sc.vals[i] = value(i)
		fan := rf
		if sc.grants[i] = c.takeGrant(k); sc.grants[i] != nil {
			fan = 1
		}
		for j := 0; j < fan; j++ {
			sc.add(i*rf + j)
		}
	}

	send := func(cl *wire.Client, slot int) error {
		i := slot / rf
		req := wire.Request{Op: wire.OpSet, Key: keys[i], Value: sc.vals[i], Trace: trace}
		if g := sc.grants[i]; g != nil {
			req.Op, req.LeaseToken = wire.OpFill, g.token
		}
		return cl.Enqueue(req)
	}
	recv := func(s *subBatch, slot int, resp *wire.Response) error {
		i := slot / rf
		switch resp.Status {
		case wire.StatusOK:
			sc.ack(i, resp.Version)
			if sc.grants[i] != nil {
				// An applied fill is owed to the key's other owners.
				for r := slot + 1; r < (i+1)*rf; r++ {
					sc.flagged[r] = true
				}
			}
		case wire.StatusLeaseLost:
			// Resolved, with nothing stored: vers[i] stays 0.
			sc.acks[i]++
			c.leaseLost.Add(1)
			if c.near != nil {
				c.near.remove(keys[i])
			}
		default:
			return fmt.Errorf("cluster: unexpected SET response %v from %s", resp.Status, s.nc.addr)
		}
		s.nc.sets.Add(1)
		return nil
	}
	lastErr := c.writeRound(sc, send, recv)

	w := c.effQuorum(rf)
	for i, k := range keys {
		need := w
		if sc.grants[i] != nil {
			need = 1
		}
		if sc.acks[i] < need {
			return fmt.Errorf("cluster: SET %d acknowledged by %d of %d owners, write quorum %d: %w",
				k, sc.acks[i], rf, need, lastErr)
		}
	}
	for i, k := range keys {
		if sc.vers[i] == 0 {
			continue // a lost fill: nothing to propagate or cache
		}
		if owed := sc.flaggedAddrs(i, rf); len(owed) > 0 {
			c.scheduleRepair(k, sc.vers[i], sc.vals[i], owed, trace)
		}
		if c.near != nil {
			c.near.store(k, sc.vers[i], sc.vals[i], time.Now())
		}
	}
	return nil
}

// Get fetches key from its owner. The returned value is a copy and safe to
// retain.
func (c *Client) Get(key uint64) ([]byte, bool, error) {
	var (
		val []byte
		hit bool
	)
	err := c.GetBatch([]uint64{key}, func(_ int, h bool, v []byte) {
		if h {
			hit = true
			val = append([]byte(nil), v...)
		}
	})
	return val, hit, err
}

// Set stores value under key on its owner.
func (c *Client) Set(key uint64, value []byte) error {
	return c.SetBatch([]uint64{key}, func(int) []byte { return value })
}

// Del deletes key as a versioned write (wire v8) — a one-key write round:
// every owner is sent the DEL in parallel and stores a tombstone, and the
// call reports whether any owner still held a live value. Like SET, the
// delete succeeds once W owners acknowledge it; an unreachable owner does
// not fail the call — its tombstone is parked as a hint on a live member
// (hinted handoff) and replayed when the owner returns, with the
// anti-entropy sweep as the backstop. Fewer than W reachable owners is an
// error: the delete is not yet durable by this cluster's own definition
// of durable.
func (c *Client) Del(key uint64) (bool, error) {
	c.maybeRefresh()
	trace := c.nextTrace()
	c.mu.RLock()
	defer c.mu.RUnlock()
	sc := getBatchScratch()
	defer sc.release()
	rf := c.effReplicas()
	if err := c.routeWrite(sc, []uint64{key}, rf); err != nil {
		return false, err
	}
	// Purge the local edge before and after the fan-out: before, so a
	// grant can't turn a later SET into a fill of the deleted key; after,
	// so a concurrent read that repopulated the near-cache mid-delete
	// can't outlive the delete past one purge.
	if c.near != nil {
		c.near.remove(key)
	}
	c.finishGrant(key)
	for slot := 0; slot < rf; slot++ {
		sc.add(slot)
	}
	present := false
	lastErr := c.writeRound(sc,
		func(cl *wire.Client, _ int) error {
			return cl.Enqueue(wire.Request{Op: wire.OpDel, Key: key, Trace: trace})
		},
		func(s *subBatch, _ int, resp *wire.Response) error {
			if resp.Status != wire.StatusOK {
				return fmt.Errorf("cluster: unexpected DEL response %v from %s", resp.Status, s.nc.addr)
			}
			s.nc.dels.Add(1)
			present = present || resp.Evicted
			sc.ack(0, resp.Version)
			return nil
		})
	if w := c.effQuorum(rf); sc.acks[0] < w {
		return present, fmt.Errorf("cluster: DEL %d acknowledged by %d of %d owners, write quorum %d: %w",
			key, sc.acks[0], rf, w, lastErr)
	}
	// The quorum holds tombstones at ≥ vers[0]; park one hint per missed
	// owner so the delete chases it down on rejoin instead of waiting a
	// full anti-entropy period.
	for slot := 0; slot < rf; slot++ {
		if sc.flagged[slot] {
			target := sc.owners[slot].addr
			c.hintHandoff(c.hintCandidates(target, key), target, key, true, sc.vers[0], nil)
		}
	}
	if c.near != nil {
		c.near.remove(key)
	}
	return present, nil
}

// hintCandidates lists the members a hint for target's copy of key may
// be parked on, in preference order: the key's other owners first — they
// are the nodes a rejoining target's replica set already converges with
// — then every other member. Caller holds c.mu (either side).
func (c *Client) hintCandidates(target string, key uint64) []*nodeConn {
	addrs := c.ring.OwnersFor(key, c.effReplicas())
	for _, addr := range c.ring.Nodes() {
		if !slices.Contains(addrs, addr) {
			addrs = append(addrs, addr)
		}
	}
	var ncs []*nodeConn
	for _, addr := range addrs {
		if nc := c.nodes[addr]; nc != nil && addr != target {
			ncs = append(ncs, nc)
		}
	}
	return ncs
}

// hintHandoff parks a versioned write (tombstone or value) intended for
// dead target on the first of candidates (hintCandidates) that accepts
// it. It needs no lock, and the repair worker calls it without one: each
// attempt may dial a member and waits out a HINT round trip.
func (c *Client) hintHandoff(candidates []*nodeConn, target string, key uint64, tomb bool, ver uint64, val []byte) {
	if ver == 0 {
		// No version observed (the write never landed anywhere we heard
		// back from): nothing safe to hint — a zero version is a protocol
		// error and anti-entropy will reconcile whatever state exists.
		c.hintsFailed.Add(1)
		return
	}
	for _, nc := range candidates {
		err := nc.do(c.dial, func(cl *wire.Client) error {
			return cl.Hint(target, key, tomb, ver, val)
		})
		if err == nil {
			c.hintsSent.Add(1)
			return
		}
	}
	c.hintsFailed.Add(1)
}

// NodeCounters is the router's per-member traffic tally. Repairs counts
// the maintenance PUTs the member stored: read repairs and the copies of
// every reconcile pass (warm-up, the R = 1 drain and the anti-entropy
// sweep). It is kept apart from Sets so replica maintenance never reads
// as user write traffic.
type NodeCounters struct {
	Gets, Hits, Misses, Sets, Dels, Redials, Repairs uint64
}

// Counters returns the per-member routing counters, keyed by address.
// bench/ reads it; it goes once bench/ reads Snapshot.
func (c *Client) Counters() map[string]NodeCounters {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]NodeCounters, len(c.nodes))
	for addr, nc := range c.nodes {
		out[addr] = NodeCounters{
			Gets: nc.gets.Load(), Hits: nc.hits.Load(), Misses: nc.misses.Load(),
			Sets: nc.sets.Load(), Dels: nc.dels.Load(), Redials: nc.redials.Load(),
			Repairs: nc.repairs.Load(),
		}
	}
	return out
}

// Snapshot is everything the router counts; see Client.Snapshot.
type Snapshot struct {
	// Epoch is the topology epoch of the router's current view; Refreshes
	// counts the views it adopted after piggybacked staleness detection.
	Epoch, Refreshes uint64
	// Replication is the fallback, repair, handoff and sweep tally.
	Replication ReplicationCounters
	// Members holds the per-member routing counters, keyed by address.
	Members map[string]NodeCounters
	// Lease tallies (wire v7): fill leases granted to this client, fills
	// refused LEASE_LOST, and keys that waited on another caller's fill
	// (locally or by polling).
	LeaseGrants, LeaseLost, LeaseWaits uint64
	// Near is the near-cache's tally; all zeros when it is disabled.
	Near NearCacheCounters
}

// Snapshot returns the router's counters. Each field is loaded on its
// own, not at one instant, so under traffic two fields may disagree; once
// the router is quiescent or closed they are final. It may be called
// after Close.
func (c *Client) Snapshot() Snapshot {
	return Snapshot{
		Epoch:       c.curEpoch.Load(),
		Refreshes:   c.refreshes.Load(),
		Replication: c.Replication(),
		Members:     c.Counters(),
		LeaseGrants: c.leaseGrants.Load(),
		LeaseLost:   c.leaseLost.Load(),
		LeaseWaits:  c.leaseWaits.Load(),
		Near:        c.near.snapshot(),
	}
}
