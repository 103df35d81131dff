package cluster

import (
	"fmt"

	"repro/internal/wire"
)

// This file is the topology layer of the router: the epoch-versioned
// member list and everything that changes or converges it.
//
// The cluster's membership is a wire.Topology — a member list stamped with
// a monotonically increasing epoch — and every member server stores the
// latest one pushed at it. Whoever changes membership (AddNode,
// RemoveNode, a joining cached via Join) bumps the epoch and pushes the
// new topology to every member; every response any server sends carries
// its current epoch, so a router detects staleness by comparing response
// epochs against its own and refreshes via a TOPOLOGY read (an empty
// offer) only when behind. The net effect is the cluster-level analogue
// of the paper's incremental rehash discipline applied to membership
// itself: changes propagate incrementally, piggybacked on normal traffic,
// with no operator fan-out and no polling.
//
// Conflict resolution is last-writer-wins on the epoch: two routers
// changing membership concurrently can race, the higher epoch prevails,
// and the loser's view heals at its next refresh. This is a cache, not a
// consensus system — a transiently wrong view costs extra misses and
// repairs, never lost acknowledged data beyond what the R/W quorum
// already permits.

// observeEpoch records a topology epoch seen in a response. An epoch above
// the router's own marks the view stale; the next operation refreshes it.
func (c *Client) observeEpoch(e uint64) {
	if e <= c.curEpoch.Load() {
		return
	}
	for {
		cur := c.staleEpoch.Load()
		if e <= cur || c.staleEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// maybeRefresh refreshes the topology if a newer epoch has been observed.
// It is called at the top of every routing operation, so staleness
// detected by one batch is healed before the next.
func (c *Client) maybeRefresh() {
	if c.staleEpoch.Load() > c.curEpoch.Load() {
		c.refreshTopology()
	}
}

// refreshTopology reads the current members' views (TOPOLOGY reads),
// adopts the highest-epoch view found if it is newer than the held one,
// and pushes the adopted view back out so members that missed the
// original push converge too.
//
// The TOPOLOGY reads run with c.mu *released*: holding the exclusive lock
// across network I/O would park every routed batch behind each member's
// dial — a single dead member used to stall all traffic for a connect
// timeout per refresh attempt. Instead the member snapshot is taken under
// a read lock, the fetch fan-out runs unlocked (each fetch holding only a
// lane of its member, single-flighted across callers by c.refreshing
// so a stale epoch doesn't trigger one fan-out per concurrent batch), and
// the lock is re-taken only to adopt and push the winning view. Traffic
// keeps flowing on the stale view in the meantime, which is exactly the
// documented cache-not-consensus tradeoff. A member removed concurrently
// with the fetch may be asked for its view one last time; harmless, it is
// a read.
func (c *Client) refreshTopology() {
	if !c.refreshing.CompareAndSwap(false, true) {
		return // a refresh is already in flight; route on the current view
	}
	defer c.refreshing.Store(false)

	c.mu.RLock()
	if c.staleEpoch.Load() <= c.epoch {
		c.mu.RUnlock()
		return // another caller refreshed first
	}
	addrs := c.ring.Nodes()
	conns := make([]*nodeConn, 0, len(addrs))
	for _, addr := range addrs {
		conns = append(conns, c.nodes[addr])
	}
	c.mu.RUnlock()

	var best wire.Topology
	unreachable := make(map[string]bool)
	for _, nc := range conns {
		var t wire.Topology
		err := nc.do(c.dial, func(cl *wire.Client) error {
			var err error
			t, err = cl.Topology(wire.Topology{})
			return err
		})
		if err != nil {
			unreachable[nc.addr] = true
			continue
		}
		if t.Epoch > best.Epoch && len(t.Members) > 0 {
			best = t
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.staleEpoch.Store(0)
	if best.Epoch > c.epoch && len(best.Members) > 0 {
		c.adoptLocked(best)
		c.refreshes.Add(1)
		// The convergence push does run under c.mu (it resolves races by
		// mutating the view), but it skips the members the fetch just
		// found unreachable — they converge later, per the best-effort
		// contract — so a dead member costs the locked section no dial at
		// all, and a member dying in the fetch-to-push window costs at
		// most one timeout-bounded dial.
		c.pushTopologyLocked(unreachable)
	}
}

// adoptLocked installs t as the router's view: the ring is rebuilt, node
// connections of retained members are kept, removed members are dropped,
// and new members get lazily dialed connections. Caller holds c.mu.
func (c *Client) adoptLocked(t wire.Topology) {
	old := c.nodes
	c.nodes = make(map[string]*nodeConn, len(t.Members))
	for _, m := range t.Members {
		if nc := old[m]; nc != nil {
			c.nodes[m] = nc
			delete(old, m)
		} else {
			c.nodes[m] = &nodeConn{addr: m}
		}
	}
	for _, nc := range old {
		nc.dropAll()
	}
	c.ring = NewRing(c.vnodes, t.Members...)
	c.epoch = t.Epoch
	c.curEpoch.Store(t.Epoch)
}

// pushTopologyLocked offers the router's current view to every member,
// best-effort: an unreachable member stays stale until the next push or a
// peer's refresh, and its staleness is visible in the epoch it stamps on
// responses. The push responses close the race loop: a member reporting a
// strictly newer view means this router already lost (the newer view is
// adopted — last-writer-wins, and this push's change may be partially
// undone), while a member holding a *different* view at the *same* epoch
// is a tie the epoch piggyback could never surface, so the router
// escalates — bumps its epoch above the tie and re-pushes, making its
// view strictly newest. Ties under continuous simultaneous membership
// changes could in principle re-escalate, so attempts are bounded; any
// residue converges at the next change or refresh. Members listed in skip
// (addresses the caller just proved unreachable) are not pushed at, so a
// refresh triggered by a dead member does not pay that member's dial
// timeout inside this critical section. Caller holds c.mu.
func (c *Client) pushTopologyLocked(skip map[string]bool) {
	for attempt := 0; attempt < 4; attempt++ {
		t := wire.Topology{Epoch: c.epoch, Members: c.ring.Nodes()}
		var newer wire.Topology
		tied := false
		for _, addr := range t.Members {
			if skip[addr] {
				continue
			}
			var held wire.Topology
			err := c.nodes[addr].do(c.dial, func(cl *wire.Client) error {
				var err error
				held, err = cl.Topology(t)
				return err
			})
			if err != nil || len(held.Members) == 0 {
				continue
			}
			switch {
			case held.Epoch > newer.Epoch && held.Epoch > t.Epoch:
				newer = held
			case held.Epoch == t.Epoch && !sameMembers(held.Members, t.Members):
				tied = true
			}
		}
		if newer.Epoch > c.epoch {
			c.adoptLocked(newer)
			return
		}
		if !tied {
			return
		}
		c.epoch++
		c.curEpoch.Store(c.epoch)
	}
}

// resolveSeeds turns a bootstrap seed list into a member list and starting
// epoch: each seed's view is read (an empty TOPOLOGY offer) over a
// short-lived connection, and the member list comes from the
// highest-epoch view any seed reports — so one live address of an
// established cluster is enough to route to all of it. When every
// reachable seed is fresh (knows no topology), the reachable seeds
// themselves become the founding members and push tells Dial to install
// that view; a seed whose dial failed is never enrolled — it would own a
// share of the ring while provably unreachable.
func resolveSeeds(addrs []string, dial DialFunc) (members []string, epoch uint64, push bool, err error) {
	reachable := make(map[string]bool, len(addrs))
	var maxEpoch uint64
	var best wire.Topology
	for _, a := range addrs {
		cl, err := dial(a)
		if err != nil {
			continue // any one live seed suffices
		}
		t, merr := cl.Topology(wire.Topology{})
		cl.Close()
		if merr != nil {
			continue
		}
		reachable[a] = true
		if t.Epoch > maxEpoch {
			maxEpoch = t.Epoch
		}
		if len(t.Members) > 0 && (len(best.Members) == 0 || t.Epoch > best.Epoch) {
			best = t
		}
	}
	if len(reachable) == 0 {
		return nil, 0, false, fmt.Errorf("cluster: no seed of %v reachable", addrs)
	}
	if len(best.Members) > 0 {
		return best.Members, best.Epoch, false, nil
	}
	for _, a := range addrs {
		if reachable[a] {
			members = append(members, a)
		}
	}
	return members, maxEpoch + 1, true, nil
}

// explicitEpoch settles the starting epoch for a Dial that asserts its
// member list outright. Three cases:
//
//   - Every member already reports exactly this view at a common epoch:
//     adopt that epoch, nothing to push.
//   - Some member holds a non-empty view that *differs* from the asserted
//     list: the cluster already has a topology of its own, and a client
//     that merely connected must not rewrite it — pointing a router (or a
//     monitoring run) at a subset of an established cluster would
//     otherwise evict the unlisted members cluster-wide. The router runs
//     on its asserted list locally, at the members' epoch, and pushes
//     nothing; only explicit AddNode/RemoveNode mutate shared topology.
//   - Otherwise (members are fresh, or a previous founding push reached
//     only some of them): advance past every reported epoch and push, so
//     the asserted view is founded or finishes propagating.
func explicitEpoch(views map[string]wire.Topology, members []string) (epoch uint64, push bool) {
	var maxEpoch uint64
	conflict := false
	for _, t := range views {
		if t.Epoch > maxEpoch {
			maxEpoch = t.Epoch
		}
		if len(t.Members) > 0 && !sameMembers(t.Members, members) {
			conflict = true
		}
	}
	agree := len(views) == len(members)
	for _, a := range members {
		t, ok := views[a]
		if !ok || t.Epoch != maxEpoch || !sameMembers(t.Members, members) {
			agree = false
			break
		}
	}
	if agree || conflict {
		return maxEpoch, false
	}
	return maxEpoch + 1, true
}

// sameMembers reports whether a and b name the same address set.
func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, m := range a {
		set[m] = true
	}
	for _, m := range b {
		if !set[m] {
			return false
		}
	}
	return true
}

// Join makes self a member of the cluster seed belongs to, without a
// router: it fetches the seed's topology, adds self under a bumped epoch,
// and pushes the result to every member — including self and the seed, so
// both a freshly booted cached and its peers converge on the same view.
// cmd/cached runs it for -join; starting N nodes against one seed this way
// yields a cluster every client can bootstrap from any single address of.
//
// A push to a member other than seed or self is best-effort: a dead or
// unreachable peer must not abort the join, only be skipped — the
// addresses whose push failed are returned in skipped so the caller can
// report them (they converge later through a router's refresh-and-re-push
// or their own restart). Pushing to seed or self failing is an error:
// without the seed the join provably didn't take, and without self the
// booting node would not know its own cluster. Dials are bounded by the
// DialFunc's timeout (wire.Dial's default when dial is nil), so a
// black-holed address costs seconds, not a kernel connect cycle.
//
// Concurrent joins race on the epoch; the push responses detect a loss —
// a member holding a view at our epoch or above that does *not* contain
// self means our push was rejected — and the join retries on top of the
// winner's view (bounded attempts), so the no-response-epoch-difference
// tie that piggybacking can never surface still converges with self
// admitted.
func Join(seed, self string, dial DialFunc) (t wire.Topology, skipped []string, err error) {
	if dial == nil {
		dial = wire.Dial
	}
	if seed == self {
		return wire.Topology{}, nil, fmt.Errorf("cluster: cannot join through myself (%s)", self)
	}
	cl, err := dial(seed)
	if err != nil {
		return wire.Topology{}, nil, fmt.Errorf("cluster: join seed %s: %w", seed, err)
	}
	base, err := cl.Topology(wire.Topology{})
	cl.Close()
	if err != nil {
		return wire.Topology{}, nil, fmt.Errorf("cluster: TOPOLOGY %s: %w", seed, err)
	}
	for attempt := 0; attempt < 3; attempt++ {
		t := wire.Topology{Epoch: base.Epoch, Members: append([]string(nil), base.Members...)}
		if len(t.Members) == 0 {
			// The seed predates any topology: it and we are the founding
			// members.
			t.Members = []string{seed}
		}
		if !contains(t.Members, self) {
			t.Members = append(t.Members, self)
			t.Epoch++
		}
		lost := false
		skipped = skipped[:0]
		var winner wire.Topology
		for _, m := range t.Members {
			var held wire.Topology
			mcl, err := dial(m)
			if err == nil {
				held, err = mcl.Topology(t)
				mcl.Close()
			}
			if err != nil {
				if m == seed || m == self {
					return wire.Topology{}, nil, fmt.Errorf("cluster: pushing topology to %s: %w", m, err)
				}
				skipped = append(skipped, m)
				continue
			}
			if held.Epoch >= t.Epoch && !contains(held.Members, self) {
				lost = true
				if held.Epoch >= winner.Epoch {
					winner = held
				}
			}
		}
		if !lost {
			return t, skipped, nil
		}
		base = winner
	}
	return wire.Topology{}, nil, fmt.Errorf("cluster: join of %s kept losing topology races; retry", self)
}

// Warmup is the handle AddNode returns for its background warm-up; Wait
// blocks until the newcomer's share has been streamed in (or the attempt
// gave up) and reports what happened.
type Warmup struct {
	done  chan struct{}
	stats WarmupStats
}

// Wait blocks until the warm-up completes and returns its stats.
func (w *Warmup) Wait() WarmupStats {
	<-w.done
	return w.stats
}

// AddNode joins a new member: its connection is dialed eagerly (failing
// fast on a bad address), the ring is extended, the topology epoch bumps,
// and the new view is pushed to every member — so other routers and future
// seed-bootstrapped clients converge without being told. Consistent
// hashing bounds the reassigned share to roughly 1/(n+1) of the key space.
//
// AddNode also starts a warm-up in the background: a reconcile pass of
// every member into the newcomer, which copies the newcomer's share to it
// as PUTs on dedicated connections, each key's newest record once. The
// post-join miss/fallback burst is thereby paid by the maintenance path
// instead of by user reads. The returned Warmup reports completion;
// callers that don't care may ignore it.
func (c *Client) AddNode(addr string) (*Warmup, error) {
	c.mu.Lock()
	// The closed check and the warm-up WaitGroup increment both happen
	// inside this critical section: Close sets the flag before taking
	// c.mu, so either this AddNode's Add(1) lands before Close's Wait (and
	// the warm-up is interrupted and awaited) or the flag is already
	// visible here and the join is refused.
	if c.closed.Load() {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: client closed")
	}
	if _, exists := c.nodes[addr]; exists {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: node %s already a member", addr)
	}
	nc := &nodeConn{addr: addr}
	if err := nc.connect(c.dial); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.nodes[addr] = nc
	c.ring.Add(addr)
	c.epoch++
	c.curEpoch.Store(c.epoch)
	c.pushTopologyLocked(nil)
	v := c.viewLocked()
	c.warmupWG.Add(1)
	c.mu.Unlock()

	w := &Warmup{done: make(chan struct{})}
	go func() {
		defer c.warmupWG.Done()
		defer close(w.done)
		w.stats = c.reconcile(v, v.ring.Nodes(), []string{addr})
	}()
	return w, nil
}

// RemoveNode retires a member and bumps the topology epoch, pushing the
// shrunk view to every survivor so routers and peers converge on their own.
//
// Unreplicated (R = 1), it first drains the departing node into the
// survivors: a reconcile pass with the departing node as the one source,
// planned against the post-removal ring. Its residents stream through the
// chunked KEYS stream, so a node with many millions of them drains in
// bounded frames, and tombstones move too, so a key's new owner keeps
// refusing resurrection until the tombstone is reaped. moved counts
// entries settled on their new owner, copied or refused there as stale
// because it already held something newer (a copy may evict there; the
// destination's eviction counters account for it). dropped counts entries
// that vanished between the key snapshot and the copy. If the drain fails
// — a member unreachable, or Close cutting its connections — RemoveNode
// returns the error and keeps the member, since removing it would orphan
// its undrained residents outside both counts; the epoch does not move.
//
// With R > 1 the drain is unnecessary and RemoveNode becomes cheap: every
// resident of the departing node also lives on R-1 surviving owners, so
// the member is simply dropped from the ring (moved and dropped are 0) and
// the key's new R-th owner refills lazily through read repair. Because
// this path never contacts the departing node, it also handles a crashed
// member: RemoveNode on a dead address cleans it out of the ring and stops
// the router paying a failed dial per batch.
//
// RemoveNode excludes all other traffic on this Client for its duration.
func (c *Client) RemoveNode(addr string) (moved, dropped int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	nc, ok := c.nodes[addr]
	if !ok {
		return 0, 0, fmt.Errorf("cluster: node %s is not a member", addr)
	}
	if c.ring.NumNodes() == 1 {
		return 0, 0, fmt.Errorf("cluster: cannot remove the last member %s", addr)
	}
	if c.effReplicas() == 1 {
		c.ring.Remove(addr)
		st := c.reconcile(view{ring: c.ring, rf: 1, nodes: c.nodes}, []string{addr}, c.ring.Nodes())
		moved, dropped = st.Copied+st.Stale, st.Vanished
		if st.Err != nil {
			c.ring.Add(addr)
			return moved, dropped, fmt.Errorf("cluster: draining %s: %w", addr, st.Err)
		}
	}
	nc.dropAll()
	delete(c.nodes, addr)
	c.ring.Remove(addr)
	c.epoch++
	c.curEpoch.Store(c.epoch)
	c.pushTopologyLocked(nil)
	return moved, dropped, nil
}
