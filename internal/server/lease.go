package server

import (
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// DefaultLeaseTTL is how long a GETL miss's fill lease stays outstanding.
// A lease bounds how long concurrent missers wait for a holder that died
// mid-load, so it should sit just above the slowest plausible origin
// load; 2s is generous for a cache-fill RPC while still bounding a wedged
// holder's blast radius. Override with SetLeaseTTL (cached -lease-ttl).
const DefaultLeaseTTL = 2 * time.Second

// fillLease is a key's outstanding fill lease. It lives in the key's store
// record, and only a record with no value carries one: it is itself the
// record, a placeholder for an absent key (version 0) or, as a
// *leasedTomb, a tombstone at ver. So the key's bucket lock orders grants,
// fills and every other write of the key, and a write that stores a
// record ends the lease by replacing it. No field but lapsed changes once
// the record is stored.
type fillLease struct {
	ver     uint64
	token   uint64
	expires int64 // wall-clock nanoseconds
	// lapsed is set by whichever of the holder's late FILL and the next
	// grant first finds the lease expired, so LEASES_EXPIRED counts it once.
	lapsed atomic.Bool
}

// leasedTomb is a tombstone record carrying a fill lease.
type leasedTomb fillLease

// newLeaseRecord returns a record carrying a fresh lease: the tombstone at
// ver if tomb, else a placeholder.
func newLeaseRecord(ver uint64, tomb bool, token uint64, expires int64) interface{} {
	if tomb {
		return &leasedTomb{ver: ver, token: token, expires: expires}
	}
	return &fillLease{token: token, expires: expires}
}

// countExpired counts l in LEASES_EXPIRED unless it was counted already.
func (s *Server) countExpired(l *fillLease) {
	if l != nil && l.lapsed.CompareAndSwap(false, true) {
		s.leasesExpired.Add(1)
	}
}

// SetLeaseTTL configures how long GETL fill leases stay outstanding; d ≤ 0
// restores DefaultLeaseTTL.
func (s *Server) SetLeaseTTL(d time.Duration) {
	if d <= 0 {
		d = DefaultLeaseTTL
	}
	s.leaseTTL.Store(int64(d))
}

// getLease answers a GETL whose read found no live value, deciding under
// the key's bucket lock: an unexpired lease is a wait with its remaining
// TTL, and otherwise this caller is granted a fresh lease. A value that
// landed since the read is not answered here, since its bytes may be read
// only under the lock: getLease reports answered false, and the caller
// reads again. It also reports whether storing the lease record displaced
// a resident.
func (s *Server) getLease(key uint64, resp *wire.Response) (displaced, answered bool) {
	// fn must stay a pure function of its argument, so the token and the
	// clock are read before Update.
	token := s.leaseTokens.Add(1)
	now := time.Now().UnixNano()
	ttl := s.leaseTTL.Load()
	// cur is copied out of the record under the lock: once Update returns,
	// the record may be released and its buffer reused.
	var cur recView
	granted, _, displaced := s.cache.Update(key, func(old interface{}, _ bool) (interface{}, bool) {
		var ok bool
		cur, ok = viewOf(old)
		switch {
		case !ok:
			return newLeaseRecord(0, false, token, now+ttl), true
		case cur.live || cur.lease != nil && now < cur.lease.expires:
			return nil, false
		}
		return newLeaseRecord(cur.ver, cur.tomb, token, now+ttl), true
	})
	switch {
	case granted:
		s.countExpired(cur.lease)
		if cur.tomb {
			s.tombstones.Add(1) // the lease record keeps the tombstone
		}
		s.leasesGranted.Add(1)
		resp.Status, resp.LeaseToken, resp.LeaseTTL = wire.StatusLease, token, time.Duration(ttl)
	case cur.live:
		return false, false
	default:
		resp.Status, resp.LeaseTTL = wire.StatusLease, max(time.Duration(cur.lease.expires-now), time.Millisecond)
	}
	return displaced, true
}
