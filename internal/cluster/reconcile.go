package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/wire"
)

// This file is the router's one reconciler: the pass that copies records
// between members so each key's owners hold its newest record. Three
// callers make one call each:
//
//   - AntiEntropySweep (and the Options.AntiEntropy loop) reconciles every
//     member into every member. It heals what nobody observed: a hint
//     dropped for budget, a member that crashed holding queued hints,
//     replicas diverged by a partition or by two routers' racing writes.
//   - AddNode's warm-up reconciles every member into the newcomer, so the
//     join is paid by the maintenance path instead of by user reads.
//   - Unreplicated RemoveNode reconciles the departing member into the
//     survivors against the post-removal ring: the cluster-level analogue
//     of the paper's incremental rehash, where no entry is lost except by
//     accounted eviction.
//
// A pass is snapshot → plan → copy. The snapshot is each source's chunked
// KEYS stream of {key, version, tombstone} records, kept in one flat slice
// sorted by key. The plan takes each key's winning record (the highest
// version, tombstone or live) and sends it to every target owner the
// snapshot did not show holding it. The copy is copyRecs. Every write is a
// conditional PUT, so a target that is not a source is written blind, and
// a pass racing user traffic can lose to fresher writes but never clobber
// them. Tombstones flow like any other record, which is what makes delete
// durable: a replica that missed a DEL learns the tombstone instead of
// resurrecting the value.

// WarmupStats reports one reconcile pass. AddNode's warm-up returns it
// through Warmup.Wait; RemoveNode and AntiEntropySweep report parts of it.
type WarmupStats struct {
	// Streamed counts the records the sources' KEYS streams enumerated.
	Streamed int
	// Copied counts records a target stored, live values and tombstones.
	Copied int
	// Vanished counts live records their source no longer served when the
	// value was read: evicted or deleted since the snapshot. They are
	// accounted losses, like the migration drain's dropped count.
	Vanished int
	// Stale counts copies a target refused because it already held a
	// strictly newer record (a user write raced the pass and won, as it
	// must). Like Vanished these are accounted, not lost: the target holds
	// something fresher than the copy.
	Stale int
	// Failed counts members, sources or targets, that could not be dialed,
	// streamed or written. The pass goes on without them; their share is
	// left to the next pass or to lazy refill.
	Failed int
	// Err is the first failure (nil when Failed is 0).
	Err error
}

// view is the membership a reconcile plans against: a ring nobody mutates
// while the pass runs, its replica count, and the member connections whose
// Repairs counters the copies credit.
type view struct {
	ring  *Ring
	rf    int
	nodes map[string]*nodeConn
}

// viewLocked copies the router's view for a pass that runs without c.mu.
// Caller holds c.mu (either side).
func (c *Client) viewLocked() view {
	return view{ring: NewRing(0, c.ring.Nodes()...), rf: c.effReplicas(), nodes: maps.Clone(c.nodes)}
}

// snapRec is one source's record of a key in a reconcile snapshot; src
// indexes the pass's member list.
type snapRec struct {
	key, version uint64
	tombstone    bool
	src          int32
}

// reconcile runs one pass: each key's winning record among the sources is
// copied to every owner in targets that the snapshot did not show holding
// it. A member that cannot be dialed, streamed or written counts in Failed
// and sets Err, and the pass goes on without it: a failed source's records
// leave the snapshot, a failed target gets no more copies. Winning
// tombstones also invalidate this router's near-cache, so a delete made
// entirely on other routers stops being served here.
//
// The pass runs on dedicated connections that Close cuts. It takes its
// ring from v and never locks c.mu, so RemoveNode can run it under the
// write lock.
func (c *Client) reconcile(v view, sources, targets []string) (st WarmupStats) {
	// Sources lead the member list, so an index below len(sources) is a
	// source; the targets that are not sources follow.
	addrs := slices.Clone(sources)
	for _, t := range targets {
		if !slices.Contains(addrs, t) {
			addrs = append(addrs, t)
		}
	}
	conns := make([]*wire.Client, len(addrs))
	defer func() {
		for _, cl := range conns {
			if cl != nil {
				c.releasePass(cl)
			}
		}
	}()
	fail := func(i int, err error) {
		if conns[i] != nil {
			c.releasePass(conns[i])
			conns[i] = nil
		}
		st.Failed++
		if st.Err == nil {
			st.Err = fmt.Errorf("cluster: reconciling %s: %w", addrs[i], err)
		}
	}

	// Snapshot: members are dialed, and sources streamed, one at a time in
	// list order.
	var snap []snapRec
	owners := make([]string, 0, v.rf)
	for i, addr := range addrs {
		cl, err := c.dialPass(addr)
		if err != nil {
			fail(i, err)
			continue
		}
		conns[i] = cl
		if i >= len(sources) {
			continue
		}
		mark := len(snap)
		err = cl.KeysStream(func(chunk []wire.KeyRec) error {
			st.Streamed += len(chunk)
			for _, rec := range chunk {
				owners = v.ring.appendOwners(owners[:0], rec.Key, v.rf)
				if slices.ContainsFunc(owners, func(o string) bool { return slices.Contains(targets, o) }) {
					snap = append(snap, snapRec{rec.Key, rec.Version, rec.Tombstone, int32(i)})
				}
			}
			return nil
		})
		if err != nil {
			snap = snap[:mark]
			fail(i, err)
		}
	}
	slices.SortFunc(snap, func(a, b snapRec) int { return cmp.Compare(a.key, b.key) })

	// Plan and copy. A route carries records from the winner's holder to
	// one target; a tombstone needs no value read, so its route has no
	// source (-1). A route is copied whenever copyChunk records queue on it
	// and once more at the end, so the plan never holds more than a chunk
	// per route.
	type route struct{ src, dst int }
	queued := make(map[route][]wire.KeyRec)
	flush := func(r route) {
		recs := queued[r]
		queued[r] = recs[:0]
		var src *wire.Client
		if r.src >= 0 {
			src = conns[r.src]
		}
		if len(recs) == 0 || conns[r.dst] == nil || (r.src >= 0 && src == nil) {
			return
		}
		applied, stale, vanished, err := copyRecs(src, conns[r.dst], recs)
		st.Copied += applied
		st.Stale += stale
		st.Vanished += vanished
		c.staleRepairs.Add(uint64(stale))
		if nc := v.nodes[addrs[r.dst]]; nc != nil {
			nc.repairs.Add(uint64(applied))
		}
		if errors.Is(err, errReading) {
			fail(r.src, err)
		} else if err != nil {
			fail(r.dst, err)
		}
	}
	for len(snap) > 0 {
		n := 1
		for n < len(snap) && snap[n].key == snap[0].key {
			n++
		}
		run := snap[:n]
		snap = snap[n:]
		win := run[0]
		for _, h := range run[1:] {
			if h.version > win.version {
				win = h
			}
		}
		src := int(win.src)
		if win.tombstone {
			src = -1
			if c.near != nil {
				c.near.tombstone(win.key, win.version)
			}
		}
		for _, o := range v.ring.appendOwners(owners[:0], win.key, v.rf) {
			dst := slices.Index(addrs, o)
			if !slices.Contains(targets, o) || conns[dst] == nil ||
				slices.ContainsFunc(run, func(h snapRec) bool { return int(h.src) == dst && h.version == win.version }) {
				continue
			}
			r := route{src, dst}
			queued[r] = append(queued[r], wire.KeyRec{Key: win.key, Version: win.version, Tombstone: win.tombstone})
			if len(queued[r]) == copyChunk {
				flush(r)
			}
		}
	}
	for r := range queued {
		flush(r)
	}
	return st
}

// dialPass opens a dedicated connection for a reconcile pass and registers
// it so Close can cut the stream it carries; releasePass is its paired
// teardown.
func (c *Client) dialPass(addr string) (*wire.Client, error) {
	cl, err := c.dial(addr)
	if err != nil {
		return nil, err
	}
	c.passMu.Lock()
	defer c.passMu.Unlock()
	if c.closed.Load() {
		cl.Close()
		return nil, fmt.Errorf("cluster: client closed")
	}
	c.passConns[cl] = struct{}{}
	return cl, nil
}

func (c *Client) releasePass(cl *wire.Client) {
	c.passMu.Lock()
	delete(c.passConns, cl)
	c.passMu.Unlock()
	cl.Close()
}

// antiEntropyLoop runs sweeps every interval until Close. Started by
// Dial when Options.AntiEntropy > 0; Close stops it via aeStop and waits
// on aeDone.
func (c *Client) antiEntropyLoop(interval time.Duration) {
	defer close(c.aeDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.aeStop:
			return
		case <-t.C:
			c.AntiEntropySweep()
		}
	}
}

// AntiEntropySweep runs one full sweep: a reconcile pass of every member
// into every member. Each key's winning record (highest version,
// tombstone or live) is copied to every owner that is missing it or holds
// an older version, and winning tombstones invalidate this router's
// near-cache.
//
// It returns how many copies the owners stored, and the first failure. A
// member that cannot be dialed, streamed or written is skipped, and the
// sweep still repairs the others; the error names it, and the next sweep
// retries it. Sweeps and SweepRepairs in Snapshot().Replication count
// sweeps and their stored copies; each copy also counts in its owner's
// Snapshot().Members Repairs.
func (c *Client) AntiEntropySweep() (repaired int, err error) {
	if c.closed.Load() {
		return 0, fmt.Errorf("cluster: client closed")
	}
	c.mu.RLock()
	v := c.viewLocked()
	c.mu.RUnlock()
	members := v.ring.Nodes()
	st := c.reconcile(v, members, members)
	c.aeRepairs.Add(uint64(st.Copied))
	c.aeSweeps.Add(1)
	return st.Copied, st.Err
}

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

// errReading marks a copyRecs error on the source's side, so a reconcile
// pass knows which end of the copy failed.
var errReading = errors.New("reading values")

// copyRecs is the one bulk maintenance primitive: it moves the listed
// records from src to dst as PUTs, copyChunk at a time, and is the copy
// step of every reconcile pass. A tombstone is
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
// len(recs); on an error the counts cover the chunks completed, and an
// error reading from src wraps errReading.
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
				return applied, stale, vanished, fmt.Errorf("%w: %w", errReading, err)
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
