package cluster

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// Anti-entropy (wire v8) is the cluster's self-healing backstop: a
// periodic sweep that compares every member's resident record set —
// {key, version, tombstone} triples from the chunked KEYS stream — and
// repairs divergence in both directions through the same conditional
// versioned writes (v4) that replication and warm-up use. Hinted handoff
// (server.go's hint queue) heals the failures the router *observed*;
// anti-entropy heals the ones nobody observed — a hint dropped for
// budget, a member that crashed holding queued hints, replicas diverged
// by a partition. Tombstones flow through the sweep like any other
// record, which is what makes delete durable: a replica that missed a
// DEL learns the tombstone here instead of resurrecting the value, and
// the divergence window for any key is bounded by the sweep period.

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

// aeRecord is one key's winning record during a sweep: the highest
// version any member holds, and which member holds it (the value source
// for live repairs).
type aeRecord struct {
	rec    wire.KeyRec
	holder string
}

// aeRoute names one repair stream of a sweep: records held by src that
// dst lacks or holds older.
type aeRoute struct{ src, dst string }

// AntiEntropySweep runs one full sweep: snapshot every reachable
// member's record set, determine each key's winning record (highest
// version, tombstone or live), and repair every owner that is missing it
// or holds an older version, through copyRecs: tombstones are written
// directly from the snapshot; live repairs re-read the value from the
// winning holder first, so the bytes written are at least as fresh as the
// snapshot.
// Winning tombstones also invalidate this router's near-cache, so a
// delete that happened entirely on other routers cannot keep serving
// here past the sweep.
//
// Unreachable members are skipped — their records neither win nor get
// repaired this round; the next sweep retries. It returns how many
// repairs applied and the first error encountered (nil when every
// reachable member was fully processed). Runs on dedicated connections
// registered for interrupt, so Close can cut a sweep short.
func (c *Client) AntiEntropySweep() (repaired int, err error) {
	if c.closed.Load() {
		return 0, fmt.Errorf("cluster: client closed")
	}
	c.mu.RLock()
	members := c.ring.Nodes()
	rf := c.effReplicas()
	c.mu.RUnlock()

	// Phase 1: snapshot. One dedicated connection per reachable member,
	// held open for the repair phase (value reads and repair writes).
	conns := make(map[string]*wire.Client, len(members))
	defer func() {
		for _, cl := range conns {
			c.warmupRelease(cl)
		}
	}()
	best := make(map[uint64]aeRecord)
	held := make(map[uint64]map[string]uint64)
	for _, addr := range members {
		if c.closed.Load() {
			return repaired, fmt.Errorf("cluster: client closed")
		}
		cl, derr := c.warmupDial(addr)
		if derr != nil {
			continue // unreachable: skip this round
		}
		recs, kerr := cl.Keys()
		if kerr != nil {
			c.warmupRelease(cl)
			if err == nil {
				err = fmt.Errorf("cluster: anti-entropy KEYS %s: %w", addr, kerr)
			}
			continue
		}
		conns[addr] = cl
		for _, rec := range recs {
			h := held[rec.Key]
			if h == nil {
				h = make(map[string]uint64, rf)
				held[rec.Key] = h
			}
			h[addr] = rec.Version
			if b, ok := best[rec.Key]; !ok || rec.Version > b.rec.Version {
				best[rec.Key] = aeRecord{rec: rec, holder: addr}
			}
		}
	}

	// Phase 2: plan. For each key, every owner missing the winning
	// record (or holding an older version) gets it from its holder. The
	// ring is consulted once under the read lock so a concurrent topology
	// change cannot split the plan across two views.
	plans := make(map[aeRoute][]wire.KeyRec)
	c.mu.RLock()
	for key, b := range best {
		for _, owner := range c.ring.OwnersFor(key, rf) {
			if hv, ok := held[key][owner]; !ok || hv < b.rec.Version {
				route := aeRoute{src: b.holder, dst: owner}
				plans[route] = append(plans[route], b.rec)
			}
		}
	}
	c.mu.RUnlock()

	// Winning tombstones invalidate the near-cache regardless of whether
	// any owner needs repair: this router may be the only diverged party.
	if c.near != nil {
		for key, b := range best {
			if b.rec.Tombstone {
				c.near.tombstone(key, b.rec.Version)
			}
		}
	}

	// Phase 3: repair, one copyRecs per route. A record's holder answered
	// the snapshot, so its connection is open; an owner that did not is
	// skipped and retried by the next sweep.
	for route, recs := range plans {
		dst := conns[route.dst]
		if dst == nil {
			continue
		}
		applied, stale, _, cerr := copyRecs(conns[route.src], dst, recs)
		c.aeRepairs.Add(uint64(applied))
		c.aeStale.Add(uint64(stale))
		repaired += applied
		if cerr != nil && err == nil {
			err = fmt.Errorf("cluster: anti-entropy repairing %s from %s: %w", route.dst, route.src, cerr)
		}
	}
	c.aeSweeps.Add(1)
	return repaired, err
}

// AntiEntropyCounters is the router's sweep tally; see
// Client.AntiEntropy.
type AntiEntropyCounters struct {
	// Sweeps counts completed sweep passes (including ones that found
	// nothing to repair). Repairs counts records conditionally written to
	// a lagging owner and applied; Stale counts repair writes the owner
	// rejected because it already held something strictly newer — for a
	// maintenance copy, success by other means.
	Sweeps, Repairs, Stale uint64
}

// AntiEntropy returns the anti-entropy sweep counters.
func (c *Client) AntiEntropy() AntiEntropyCounters {
	return AntiEntropyCounters{
		Sweeps:  c.aeSweeps.Load(),
		Repairs: c.aeRepairs.Load(),
		Stale:   c.aeStale.Load(),
	}
}
