package cluster

import "repro/internal/wire"

// This file is the background half of R-way replication: the bounded
// read-repair queue the batch pipelines (client.go) feed and the worker
// that drains it. The ring chooses each key's replica set
// (Ring.OwnersFor); the pipelines make the set behave like one logical
// copy that survives node loss; repair regenerates the copies a miss or a
// failed write left behind.
//
// Invariants the replicated client maintains:
//
//   - visit is called exactly once per key of a GetBatch, whatever mix of
//     misses, node failures and fallbacks resolved it.
//   - A read errors only when every owner of the key was unreachable; one
//     authoritative MISS resolves the key as a miss, one hit resolves it as
//     a hit.
//   - A write errors only when fewer than W owners acknowledged it.
//   - Every repair write is a PUT, so server-side and router-side counters
//     never mix maintenance churn into user traffic.

// repairQueueDepth bounds the background read-repair queue. When the queue
// is full new repairs are shed (and counted) rather than blocking the read
// path: a shed repair is retried naturally by the next fallback read of the
// same key.
const repairQueueDepth = 1024

// repairTask asks the repair worker to PUT key=val on the owners that
// were seen missing or unreachable. ver is the version the value was
// observed at (a fallback hit) or stored under (a quorum write); the
// PUT carries it and is stored only if strictly newer, so however long the
// task waits in the queue, it can never overwrite a value a concurrent user
// SET stored after this one was observed.
type repairTask struct {
	key   uint64
	ver   uint64
	val   []byte
	addrs []string

	// bt carries the originating batch's trace context across the queue:
	// a repair caused by a sampled read or write is itself traced, so the
	// owner that receives it records a span under the same trace ID — the
	// last hop of the request's cluster-wide path.
	bt batchTrace
}

// ReplicationCounters is the router's replication telemetry; see
// Snapshot.Replication.
type ReplicationCounters struct {
	// FallbackHits counts GETs served by a non-primary replica after
	// earlier owners missed or were unreachable — each one is a read that
	// an unreplicated cluster would have lost or missed.
	FallbackHits uint64
	// RepairsScheduled counts repair tasks queued by fallback hits and
	// partially-acknowledged writes.
	RepairsScheduled uint64
	// RepairsApplied counts read-repair PUTs the stale owner stored (it
	// answered OK).
	RepairsApplied uint64
	// RepairsDropped counts repairs shed because the queue was full.
	RepairsDropped uint64
	// RepairsStale counts maintenance writes (read repair and every
	// reconcile pass: warm-up, migration, anti-entropy) a destination
	// rejected as version-stale
	// because it already held a strictly newer value — lost-update races
	// the version check won.
	RepairsStale uint64
	// HintsSent counts writes parked on a live member for an unreachable
	// owner (hinted handoff, wire v8); HintsFailed counts handoffs no live
	// member would accept, recoverable only by anti-entropy.
	HintsSent, HintsFailed uint64
	// Sweeps counts completed anti-entropy passes, including ones that
	// found nothing to repair; SweepRepairs counts the records they
	// copied to a lagging owner and it stored.
	Sweeps, SweepRepairs uint64
}

// Replication returns the replication telemetry. Fallback hits and read
// repairs need R > 1; the stale count also covers warm-up and migration,
// and the sweep counts the anti-entropy sweep, which run at any R. bench/
// reads it; it goes once bench/ reads Snapshot.
func (c *Client) Replication() ReplicationCounters {
	return ReplicationCounters{
		FallbackHits:     c.fallbackHits.Load(),
		RepairsScheduled: c.repairsScheduled.Load(),
		RepairsApplied:   c.repairsApplied.Load(),
		RepairsDropped:   c.repairsDropped.Load(),
		RepairsStale:     c.staleRepairs.Load(),
		HintsSent:        c.hintsSent.Load(),
		HintsFailed:      c.hintsFailed.Load(),
		Sweeps:           c.aeSweeps.Load(),
		SweepRepairs:     c.aeRepairs.Load(),
	}
}

// scheduleRepair queues a background PUT of key=val, observed at ver,
// at addrs. Caller holds c.mu (either side); val may alias a connection
// buffer and is copied here.
func (c *Client) scheduleRepair(key, ver uint64, val []byte, addrs []string, bt batchTrace) {
	if c.repairClosed || len(addrs) == 0 {
		return
	}
	t := repairTask{
		key:   key,
		ver:   ver,
		val:   append([]byte(nil), val...),
		addrs: append([]string(nil), addrs...),
		bt:    bt,
	}
	c.repairsScheduled.Add(1)
	select {
	case c.repairCh <- t:
	default:
		c.repairsDropped.Add(1)
	}
}

// repairLoop is the background worker: it drains the repair queue until
// Close, PUTting the queued records on their stale replicas.
func (c *Client) repairLoop() {
	defer close(c.repairDone)
	for t := range c.repairCh {
		c.applyRepair(t)
	}
}

// applyRepair writes one queued repair to each of its target owners. A
// target that left the cluster is skipped; a target that cannot be
// reached gets its write parked as a hint on a live member instead
// (hinted handoff, wire v8) — the owner may be dead rather than slow, and
// the hint is replayed to it when it answers again, so a W<R write (or a
// fallback-detected stale replica) converges on rejoin without waiting
// for the next read of the key.
//
// c.mu is held only for the membership lookup, never across the network
// write: a repair dialing a slow or dead node must not block a pending
// membership change — and, through the RWMutex's writer queue, every other
// read and write on the client — for a connect timeout. The price is that
// a member removed concurrently with the lookup may receive one final
// repair write, which is harmless: it is a PUT to a node already out of
// the ring.
func (c *Client) applyRepair(t repairTask) {
	for _, addr := range t.addrs {
		c.mu.RLock()
		closed, nc := c.repairClosed, c.nodes[addr]
		c.mu.RUnlock()
		if closed {
			return
		}
		if nc == nil {
			continue
		}
		// The server checks the observed version the PUT carries where it
		// applies the record: a repair that waited in this router's queue
		// behind a user SET of the same key is answered VERSION_STALE
		// instead of reinstating the older value, however deep the queue
		// ran.
		var applied bool
		err := nc.do(c.dial, func(cl *wire.Client) (err error) {
			applied, _, err = cl.Put(t.bt.stamp(wire.Request{Key: t.key, Version: t.ver, Value: t.val}))
			return err
		})
		switch {
		case err != nil:
			c.mu.RLock()
			if !c.repairClosed {
				c.hintHandoff(addr, t.key, false, t.ver, t.val)
			}
			c.mu.RUnlock()
		case applied:
			nc.repairs.Add(1)
			c.repairsApplied.Add(1)
		default:
			c.staleRepairs.Add(1)
		}
	}
}
