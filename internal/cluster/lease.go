package cluster

import (
	"time"

	"repro/internal/telemetry"
)

// This file is the client half of the v7 lease protocol: the grant store
// and the steps leases add to the batch pipelines of client.go — the
// router-level singleflight that keeps one process from duplicating a
// fill it already owns, and the poll that resolves keys whose fill
// someone else holds. The near-cache (nearcache.go) is its edge: lease
// reads land there, version-reconciled, so a hot key's storm is absorbed
// locally instead of at the key's primary owner.

// Bounds for waiting on someone else's fill. A local wait (a sibling
// goroutine of this client holds the grant) blocks on the grant's done
// channel; a remote wait polls the owner with GETL under exponential
// backoff. Both are capped: leases bound how long the herd defers to a
// holder that may have died, and past the cap the key resolves as a
// plain miss so the caller's read-through inherits the (by then expired)
// lease.
const (
	leaseLocalWait      = 50 * time.Millisecond
	leaseWaitBackoff    = 200 * time.Microsecond
	leaseWaitBackoffMax = 5 * time.Millisecond
	leaseWaitCap        = 100 * time.Millisecond
)

// leaseGrant is one fill lease this client holds: the wire token and its
// deadline, plus a channel closed when the fill resolves (or the grant is
// discarded) so sibling goroutines singleflight on it instead of issuing
// duplicate network misses.
type leaseGrant struct {
	token   uint64
	expires time.Time
	done    chan struct{}
}

// grantSlots sizes the grant store: 256 sets of nearAlpha ≥ log₂ 4096.
// An evicted grant's fill goes out as a plain SET, and a sibling waiting
// on it gives up at leaseLocalWait, since nobody closes its done channel.
const grantSlots = 4096

// recordGrant registers a LEASE grant for key, superseding (and waking
// the waiters of) any previous grant.
func (c *Client) recordGrant(key, token uint64, ttl time.Duration) {
	g := &leaseGrant{token: token, expires: time.Now().Add(ttl), done: make(chan struct{})}
	var old *leaseGrant
	c.grants.Update(key, func(v interface{}, _ bool) (interface{}, bool) {
		old, _ = v.(*leaseGrant)
		return g, true
	})
	if old != nil {
		close(old.done)
	}
	c.leaseGrants.Add(1)
}

// takeGrant removes and returns key's outstanding grant, if any; the
// caller then owns closing done once the fill resolves. Without leases
// there is none.
func (c *Client) takeGrant(key uint64) (g *leaseGrant) {
	if c.grants == nil {
		return nil
	}
	c.grants.DeleteIf(key, func(v interface{}) bool {
		g = v.(*leaseGrant)
		return true
	})
	return g
}

// peekGrant returns key's outstanding grant without removing it.
func (c *Client) peekGrant(key uint64) *leaseGrant {
	v, _ := c.grants.Get(key)
	g, _ := v.(*leaseGrant)
	return g
}

// finishGrant discards key's grant — the key turned out resident, or was
// deleted — waking any local waiters so they re-read.
func (c *Client) finishGrant(key uint64) {
	if g := c.takeGrant(key); g != nil {
		close(g.done)
	}
}

// serveNear delivers the keys of idxs the near-cache holds and returns the
// rest, compacted in place; with the near-cache off that is all of them.
func (c *Client) serveNear(keys []uint64, idxs []int, visit func(i int, hit bool, value []byte)) []int {
	if c.near == nil {
		return idxs
	}
	now := time.Now()
	rest := idxs[:0]
	for _, i := range idxs {
		if val, _, ok := c.near.lookup(keys[i], now); ok {
			visit(i, true, val)
			continue
		}
		rest = append(rest, i)
	}
	return rest
}

// waitLocalGrants is the router singleflight: a key whose fill lease is
// held by a sibling goroutine of this client waits on that fill instead
// of sending a duplicate miss, then rechecks the near-cache (without one
// there is nowhere for the sibling's fill to be seen, so nothing waits).
// The whole batch shares one leaseLocalWait deadline: the caller holds
// c.mu.RLock, and a wait per key would park a batch of unfilled grants —
// and, through the RWMutex's writer queue, every membership change and
// every reader behind it — for that many timeouts back to back.
func (c *Client) waitLocalGrants(keys []uint64, idxs []int, visit func(i int, hit bool, value []byte)) []int {
	if c.near == nil || c.grants == nil {
		return idxs
	}
	deadline := time.Now().Add(leaseLocalWait)
	rest := idxs[:0]
	for _, i := range idxs {
		g := c.peekGrant(keys[i])
		if g == nil {
			rest = append(rest, i)
			continue
		}
		c.leaseWaits.Add(1)
		until := deadline
		if g.expires.Before(until) {
			until = g.expires
		}
		if wait := time.Until(until); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-g.done:
			case <-t.C:
			}
			t.Stop()
		}
		if val, _, ok := c.near.lookup(keys[i], time.Now()); ok {
			visit(i, true, val)
			continue
		}
		rest = append(rest, i)
	}
	return rest
}

// pollWaiters resolves sc.waiters, the keys whose fill lease another
// caller holds: under exponential backoff, recheck the near-cache and
// re-ask the primary — readRounds capped at one round — until the fill
// lands, and past leaseWaitCap resolve what is left as plain misses; the
// caller's read-through then GETLs again and typically inherits the
// expired lease. Caller holds c.mu.RLock.
func (c *Client) pollWaiters(sc *batchScratch, keys []uint64, trace telemetry.TraceID, rf int, visit func(i int, hit bool, value []byte)) error {
	c.leaseWaits.Add(uint64(len(sc.waiters)))
	deadline := time.Now().Add(leaseWaitCap)
	for backoff := leaseWaitBackoff; len(sc.waiters) > 0; backoff = min(2*backoff, leaseWaitBackoffMax) {
		time.Sleep(backoff)
		sc.pending = c.serveNear(keys, append(sc.pending[:0], sc.waiters...), visit)
		sc.waiters = sc.waiters[:0]
		if time.Now().After(deadline) {
			for _, i := range sc.pending {
				visit(i, false, nil)
			}
			return nil
		}
		if err := c.readRounds(sc, keys, trace, rf, 1, visit); err != nil {
			return err
		}
	}
	return nil
}

// LeaseCounters returns the near-cache hits and the lease tallies of
// Snapshot, in that order; staleHints is always 0, since wire v13 has no
// stale hint. bench/ reads it; it goes once bench/ reads Snapshot.
func (c *Client) LeaseCounters() (nearHits, staleHints, grants, lost, waits uint64) {
	s := c.Snapshot()
	return s.Near.Hits, 0, s.LeaseGrants, s.LeaseLost, s.LeaseWaits
}
