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
// epochs against its own and refreshes via MEMBERS only when behind. The
// net effect is the cluster-level analogue of the paper's incremental
// rehash discipline applied to membership itself: changes propagate
// incrementally, piggybacked on normal traffic, with no operator fan-out
// and no polling.
//
// Conflict resolution is last-writer-wins on the epoch: two routers
// changing membership concurrently can race, the higher epoch prevails,
// and the loser's view heals at its next refresh. This is a cache, not a
// consensus system — a transiently wrong view costs extra misses and
// repairs, never lost acknowledged data beyond what the R/W quorum
// already permits.

// copyChunk bounds how many records copyRecs moves per pipelined round
// trip, keeping peak buffering (chunk × value size) modest.
const copyChunk = 256

// chunkScratch is the reusable buffer set for readChunkValues: the
// per-chunk vals/vers/hits slices plus a byte arena the copied values pack
// into. One scratch serves a whole copyRecs call, so after the first few
// chunks grow it to the working set's chunk footprint the copy loop stops
// allocating per chunk. Everything readChunkValues returns aliases the
// scratch and is overwritten by the next call on it.
type chunkScratch struct {
	vals [][]byte
	vers []uint64
	hits []int
	offs [][2]int // per-index [start,end) into data, fixed up after the batch
	data []byte
}

// reset sizes the scratch for an n-key chunk, clearing the previous
// chunk's state.
func (sc *chunkScratch) reset(n int) {
	sc.vals = resize(sc.vals, n)
	sc.vers = resize(sc.vers, n)
	sc.offs = resize(sc.offs, n)
	sc.hits = sc.hits[:0]
	sc.data = sc.data[:0]
}

// readChunkValues reads one chunk of keys from cl in a pipelined batch,
// returning copies of the surviving values, the versions they were
// observed at, and the chunk indices that hit: the value-copy rule
// (connection buffers alias) and the survivors-versus-vanished split live
// here. The observed versions are what copyRecs' subsequent PUTs carry:
// a copy can never overwrite a value
// newer than the one it actually read. The returned slices live in sc and
// are valid only until the next call on the same scratch; the copies pack
// into sc's arena, recorded as offsets during the batch and sliced out
// afterwards because the arena may move while it grows.
func readChunkValues(cl *wire.Client, chunk []uint64, sc *chunkScratch) (vals [][]byte, vers []uint64, hits []int, err error) {
	sc.reset(len(chunk))
	err = cl.GetBatchVersions(chunk, func(i int, h bool, ver uint64, v []byte) {
		if h {
			start := len(sc.data)
			sc.data = append(sc.data, v...)
			sc.offs[i] = [2]int{start, len(sc.data)}
			sc.vers[i] = ver
			sc.hits = append(sc.hits, i)
		}
	})
	for _, i := range sc.hits {
		o := sc.offs[i]
		sc.vals[i] = sc.data[o[0]:o[1]]
	}
	return sc.vals, sc.vers, sc.hits, err
}

// copyRecs is the one bulk maintenance primitive: it moves the listed
// records from src to dst as PUTs, copyChunk at a time. Warm-up, the R = 1 migration drain
// and the anti-entropy repair phase all copy through it. A tombstone is
// written straight from its record — no value to read, so src may be nil
// when recs holds nothing else. A live record's value is re-read from src
// first and written at the version it is stored under now, which may be
// newer than the listed one: a copy can never supersede anything newer
// than what it actually read, and every PUT is answered after it was
// applied, so the counts mean settled at dst.
//
// applied counts writes dst stored. stale counts writes it refused
// because it already held something strictly newer — for a maintenance
// copy that is success by other means: the record is there, fresher than
// the copy. vanished counts live records src no longer served — evicted,
// or deleted, between listing and read; whatever replaced them is the
// next listing's business. A nil error means applied+stale+vanished ==
// len(recs); on an error the counts cover the chunks completed.
func copyRecs(src, dst *wire.Client, recs []wire.KeyRec) (applied, stale, vanished int, err error) {
	var (
		sc   chunkScratch
		keys []uint64      // the chunk's live keys, to read from src
		out  []wire.KeyRec // what the chunk writes to dst ...
		vals [][]byte      // ... and each record's value (nil for a tombstone)
	)
	for len(recs) > 0 {
		chunk := recs[:min(len(recs), copyChunk)]
		recs = recs[len(chunk):]
		keys, out, vals = keys[:0], out[:0], vals[:0]
		for _, rec := range chunk {
			if rec.Tombstone {
				out, vals = append(out, rec), append(vals, nil)
			} else {
				keys = append(keys, rec.Key)
			}
		}
		if len(keys) > 0 {
			read, vers, hits, err := readChunkValues(src, keys, &sc)
			if err != nil {
				return applied, stale, vanished, fmt.Errorf("reading values: %w", err)
			}
			vanished += len(keys) - len(hits)
			for _, i := range hits {
				out = append(out, wire.KeyRec{Key: keys[i], Version: vers[i]})
				vals = append(vals, read[i])
			}
		}
		a, st, err := dst.PutBatch(out, func(i int) []byte { return vals[i] })
		applied, stale = applied+a, stale+st
		if err != nil {
			return applied, stale, vanished, fmt.Errorf("writing records: %w", err)
		}
	}
	return applied, stale, vanished, nil
}

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

// refreshTopology fetches MEMBERS from the current members, adopts the
// highest-epoch view found if it is newer than the held one, and pushes
// the adopted view back out so members that missed the original push
// converge too.
//
// The MEMBERS fetches run with c.mu *released*: holding the exclusive lock
// across network I/O would park every routed batch behind each member's
// dial — a single dead member used to stall all traffic for a connect
// timeout per refresh attempt. Instead the member snapshot is taken under
// a read lock, the fetch fan-out runs unlocked (each fetch holding only a
// lane of its member, single-flighted across callers by c.refreshing
// so a stale epoch doesn't trigger one fan-out per concurrent batch), and
// the lock is re-taken only to adopt and push the winning view. Traffic
// keeps flowing on the stale view in the meantime, which is exactly the
// documented cache-not-consensus tradeoff. A member removed concurrently
// with the fetch may be asked for MEMBERS one last time; harmless, it is a
// read.
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
			t, err = cl.Members()
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
				held, err = cl.PushTopology(t)
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

// Epoch returns the topology epoch of the router's current view.
func (c *Client) Epoch() uint64 { return c.curEpoch.Load() }

// TopologyRefreshes reports how many times the router refreshed its view
// after piggybacked staleness detection; it implements
// load.TopologyReporter.
func (c *Client) TopologyRefreshes() uint64 { return c.refreshes.Load() }

// resolveSeeds turns a bootstrap seed list into a member list and starting
// epoch: each seed's MEMBERS view is probed over a short-lived connection,
// and the member list comes from the highest-epoch view any seed reports —
// so one live address of an established cluster is enough to route to all
// of it. When every reachable seed is fresh (knows no topology), the
// reachable seeds themselves become the founding members and push tells
// Dial to install that view; a seed whose dial failed is never enrolled —
// it would own a share of the ring while provably unreachable.
func resolveSeeds(addrs []string, dial DialFunc) (members []string, epoch uint64, push bool, err error) {
	reachable := make(map[string]bool, len(addrs))
	var maxEpoch uint64
	var best wire.Topology
	for _, a := range addrs {
		cl, err := dial(a)
		if err != nil {
			continue // any one live seed suffices
		}
		t, merr := cl.Members()
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
	base, err := cl.Members()
	cl.Close()
	if err != nil {
		return wire.Topology{}, nil, fmt.Errorf("cluster: MEMBERS %s: %w", seed, err)
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
				held, err = mcl.PushTopology(t)
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

// WarmupStats summarizes one proactive warm-up run.
type WarmupStats struct {
	// Streamed counts resident keys enumerated across all source members.
	Streamed int
	// Copied counts values repair-SET into the newcomer.
	Copied int
	// Vanished counts wanted keys that were evicted between the KEYS
	// snapshot and the read — accounted-for losses, exactly like
	// migration's dropped count.
	Vanished int
	// Stale counts copies the newcomer rejected as version-stale: it
	// already held a strictly newer value for the key (a user SET raced
	// the warm-up and won, as it must). Like Vanished these are accounted,
	// not lost — the data is on the newcomer, fresher than the copy.
	Stale int
	// Tombstones counts deletion records propagated to the newcomer —
	// copied straight from the KEYS stream (no value read), so the
	// newcomer learns every delete before it could accept an older copy.
	Tombstones int
	// Failed counts source members that could not be fully streamed or
	// copied; their share of the newcomer's keys refills lazily instead.
	Failed int
	// Err is the first error encountered (nil when Failed is 0).
	Err error
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

// warmupDial opens a dedicated warm-up connection and registers it so
// Close can interrupt the stream it carries; warmupRelease is its paired
// teardown.
func (c *Client) warmupDial(addr string) (*wire.Client, error) {
	cl, err := c.dial(addr)
	if err != nil {
		return nil, err
	}
	c.warmupMu.Lock()
	if c.closed.Load() {
		c.warmupMu.Unlock()
		cl.Close()
		return nil, fmt.Errorf("cluster: client closed")
	}
	c.warmupConns[cl] = struct{}{}
	c.warmupMu.Unlock()
	return cl, nil
}

func (c *Client) warmupRelease(cl *wire.Client) {
	c.warmupMu.Lock()
	delete(c.warmupConns, cl)
	c.warmupMu.Unlock()
	cl.Close()
}

// runWarmup streams the newcomer's share of each source member's residents
// into the newcomer. It runs on dedicated connections, so live traffic on
// the router's pooled connections proceeds untouched; the only shared
// state it takes is a read-lock per chunk to consult the ring. Close
// interrupts it by closing those connections and waits for it to exit.
func (c *Client) runWarmup(w *Warmup, newcomer string, sources []string, rf int) {
	defer c.warmupWG.Done()
	defer close(w.done)
	dst, err := c.warmupDial(newcomer)
	if err != nil {
		w.stats.Failed = len(sources)
		w.stats.Err = err
		return
	}
	defer c.warmupRelease(dst)
	for _, src := range sources {
		if c.closed.Load() {
			return
		}
		if err := c.warmFromSource(w, dst, newcomer, src, rf); err != nil {
			if c.closed.Load() {
				return // an interrupt, not a source failure
			}
			w.stats.Failed++
			if w.stats.Err == nil {
				w.stats.Err = err
			}
		}
	}
}

// warmFromSource enumerates one source member via the chunked KEYS stream,
// keeps the records whose post-join owner set includes the newcomer, and
// copies them over with copyRecs — deletion records first, so the newcomer
// learns every delete before it could serve an older copy.
func (c *Client) warmFromSource(w *Warmup, dst *wire.Client, newcomer, src string, rf int) error {
	srcCl, err := c.warmupDial(src)
	if err != nil {
		return fmt.Errorf("cluster: warm-up dial %s: %w", src, err)
	}
	defer c.warmupRelease(srcCl)

	var live, tombs []wire.KeyRec
	err = srcCl.KeysStream(func(chunk []wire.KeyRec) error {
		w.stats.Streamed += len(chunk)
		c.mu.RLock()
		for _, rec := range chunk {
			if !contains(c.ring.OwnersFor(rec.Key, rf), newcomer) {
				continue
			}
			if rec.Tombstone {
				tombs = append(tombs, rec)
			} else {
				live = append(live, rec)
			}
		}
		c.mu.RUnlock()
		return nil
	})
	if err != nil {
		return fmt.Errorf("cluster: warm-up KEYS %s: %w", src, err)
	}

	// Close interrupts the copy by closing both connections: the next read
	// or write errors out and runWarmup recognises the interrupt.
	buried, stale, _, err := copyRecs(srcCl, dst, tombs)
	var copied, vanished int
	if err == nil {
		var staleLive int
		copied, staleLive, vanished, err = copyRecs(srcCl, dst, live)
		stale += staleLive
	}
	w.stats.Tombstones += buried
	w.stats.Copied += copied
	w.stats.Vanished += vanished
	w.stats.Stale += stale
	c.staleRepairs.Add(uint64(stale))
	c.mu.RLock()
	nc := c.nodes[newcomer]
	c.mu.RUnlock()
	if nc != nil {
		nc.repairs.Add(uint64(copied))
	}
	if err != nil {
		return fmt.Errorf("cluster: warm-up copying %s to %s: %w", src, newcomer, err)
	}
	return nil
}

// AddNode joins a new member: its connection is dialed eagerly (failing
// fast on a bad address), the ring is extended, the topology epoch bumps,
// and the new view is pushed to every member — so other routers and future
// seed-bootstrapped clients converge without being told. Consistent
// hashing bounds the reassigned share to roughly 1/(n+1) of the key space.
//
// Unless Options.DisableWarmup is set, AddNode also starts a proactive
// warm-up in the background: the newcomer's share is streamed out of the
// existing members via chunked KEYS and repair-SET into it on dedicated
// connections, so the post-join miss/fallback burst is paid by the
// maintenance path instead of by user reads. The returned Warmup reports
// completion; callers that don't care may ignore it.
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
	var sources []string
	for _, m := range c.ring.Nodes() {
		if m != addr {
			sources = append(sources, m)
		}
	}
	rf := c.effReplicas()
	w := &Warmup{done: make(chan struct{})}
	warm := !c.noWarmup && len(sources) > 0
	if warm {
		c.warmupWG.Add(1)
	}
	c.mu.Unlock()

	if !warm {
		close(w.done)
		return w, nil
	}
	go c.runWarmup(w, addr, sources, rf)
	return w, nil
}

// RemoveNode retires a member and bumps the topology epoch, pushing the
// shrunk view to every survivor so routers and peers converge on their own.
//
// Unreplicated (R = 1), it first migrates the departing node's residents
// to their new owners: the cluster-level analogue of the paper's
// incremental rehash, where no entry is lost except by accounted eviction.
// The resident set is enumerated through the chunked KEYS stream, so a
// node with many millions of residents drains in bounded frames, and
// copied owner by owner with copyRecs — tombstones included, so a key's
// new owner keeps refusing resurrection until the tombstone is reaped.
// moved counts entries re-stored on their new owner (which may evict there — the
// destination's eviction counters account for it); dropped counts entries
// that vanished between the key snapshot and the drain.
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
	if c.effReplicas() > 1 {
		nc.dropAll()
		delete(c.nodes, addr)
		c.ring.Remove(addr)
		c.epoch++
		c.curEpoch.Store(c.epoch)
		c.pushTopologyLocked(nil)
		return 0, 0, nil
	}

	var recs []wire.KeyRec
	if err := nc.do(c.dial, func(cl *wire.Client) error {
		var err error
		recs, err = cl.Keys()
		return err
	}); err != nil {
		return 0, 0, fmt.Errorf("cluster: KEYS %s: %w", addr, err)
	}
	// Reroute first so owners are computed against the post-removal ring,
	// then drain the departing member owner by owner. If the drain fails
	// the member is restored: leaving it removed would orphan its
	// undrained residents outside both the moved and dropped counts. Only
	// a completed drain bumps and pushes the epoch.
	c.ring.Remove(addr)
	drained := false
	defer func() {
		if drained {
			nc.dropAll()
			delete(c.nodes, addr)
			c.epoch++
			c.curEpoch.Store(c.epoch)
			c.pushTopologyLocked(nil)
		} else {
			c.ring.Add(addr)
		}
	}()

	byOwner := make(map[*nodeConn][]wire.KeyRec)
	for _, rec := range recs {
		owner, _ := c.ring.Node(rec.Key)
		byOwner[c.nodes[owner]] = append(byOwner[c.nodes[owner]], rec)
	}
	for dst, share := range byOwner {
		// One lane of the departing member and one of the destination for
		// the copy (c.mu excludes every batch, so the order is free). A
		// retry after a redial of either re-copies the whole share; the
		// writes are conditional on their versions, so the replay is
		// idempotent and the counts of the attempt that completed are the
		// ones kept.
		var applied, stale, vanished int
		err := nc.do(c.dial, func(src *wire.Client) error {
			return dst.do(c.dial, func(cl *wire.Client) error {
				var err error
				applied, stale, vanished, err = copyRecs(src, cl, share)
				return err
			})
		})
		if err != nil {
			return moved, dropped, fmt.Errorf("cluster: migrating %s to %s: %w", addr, dst.addr, err)
		}
		dst.repairs.Add(uint64(applied))
		c.staleRepairs.Add(uint64(stale))
		// A stale rejection counts as moved: the destination proved it
		// holds something strictly newer for the key, so the resident is
		// settled there — just not by this copy.
		moved += applied + stale
		dropped += vanished
	}
	drained = true
	return moved, dropped, nil
}
