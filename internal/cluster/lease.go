package cluster

import "time"

// This file is the client half of the v7 lease protocol: the grant table
// and the steps leases add to the batch pipelines of client.go — the
// router-level singleflight that keeps one process from duplicating a
// fill it already owns, and the poll that resolves keys whose fill
// someone else holds. The near-cache (nearcache.go) is its edge: lease
// and stale-hint reads land there, version-reconciled, so a hot key's
// storm is absorbed locally instead of at the key's primary owner.

// maxGrants bounds the outstanding-grant table; at the cap, an expired
// grant (or, failing a cheap scan, an arbitrary one) is dropped — its
// fill then simply never happens and the server-side lease expires on its
// own, which every lease holder must tolerate anyway.
const maxGrants = 4096

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

// recordGrant registers a LEASE grant for key, superseding (and waking
// the waiters of) any previous grant.
func (c *Client) recordGrant(key, token uint64, ttl time.Duration) {
	g := &leaseGrant{token: token, expires: time.Now().Add(ttl), done: make(chan struct{})}
	c.grantMu.Lock()
	if c.grants == nil {
		c.grants = make(map[uint64]*leaseGrant)
	}
	if old := c.grants[key]; old != nil {
		close(old.done)
	} else if len(c.grants) >= maxGrants {
		c.evictGrantsLocked()
	}
	c.grants[key] = g
	c.grantsN.Store(int64(len(c.grants)))
	c.grantMu.Unlock()
	c.leaseGrants.Add(1)
}

// takeGrant removes and returns key's outstanding grant, if any; the
// caller then owns closing done once the fill resolves.
func (c *Client) takeGrant(key uint64) *leaseGrant {
	c.grantMu.Lock()
	defer c.grantMu.Unlock()
	g := c.grants[key]
	if g != nil {
		delete(c.grants, key)
		c.grantsN.Store(int64(len(c.grants)))
	}
	return g
}

// peekGrant returns key's outstanding grant without removing it.
func (c *Client) peekGrant(key uint64) *leaseGrant {
	c.grantMu.Lock()
	defer c.grantMu.Unlock()
	return c.grants[key]
}

// finishGrant discards key's grant — the key turned out resident, or was
// deleted — waking any local waiters so they re-read.
func (c *Client) finishGrant(key uint64) {
	if g := c.takeGrant(key); g != nil {
		close(g.done)
	}
}

// evictGrantsLocked makes room in the full grant table: a short scan
// drops the first expired grant, falling back to an arbitrary one.
// Called with grantMu held.
func (c *Client) evictGrantsLocked() {
	now := time.Now()
	scanned := 0
	var fallback uint64
	found := false
	for k, g := range c.grants {
		if now.After(g.expires) {
			close(g.done)
			delete(c.grants, k)
			return
		}
		if !found {
			fallback, found = k, true
		}
		if scanned++; scanned >= 8 {
			break
		}
	}
	if found {
		close(c.grants[fallback].done)
		delete(c.grants, fallback)
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
			c.nearHits.Add(1)
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
	if c.near == nil || c.grantsN.Load() == 0 {
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
			c.nearHits.Add(1)
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
func (c *Client) pollWaiters(sc *batchScratch, keys []uint64, bt batchTrace, rf int, visit func(i int, hit bool, value []byte)) error {
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
		if err := c.readRounds(sc, keys, bt, rf, 1, visit); err != nil {
			return err
		}
	}
	return nil
}

// LeaseCounters returns the router's lease/near-cache tallies — GETs
// served from the near-cache, zero-token stale hints served as hits,
// fill leases granted to this client, fills refused as LEASE_LOST, and
// keys that waited on another caller's fill (locally or by polling). It
// implements load.LeaseReporter.
func (c *Client) LeaseCounters() (nearHits, staleHints, grants, lost, waits uint64) {
	return c.nearHits.Load(), c.staleHints.Load(), c.leaseGrants.Load(), c.leaseLost.Load(), c.leaseWaits.Load()
}

// NearCacheStats returns the near-cache's counters; all zero when the
// near-cache is disabled.
func (c *Client) NearCacheStats() NearCacheCounters {
	if c.near == nil {
		return NearCacheCounters{}
	}
	return c.near.snapshot()
}
