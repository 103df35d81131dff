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
// record (entry.lease), and only a record with no value carries one: a
// placeholder for an absent key or a tombstone. So the key's bucket lock
// orders grants, fills and every other write of the key, and a write that
// stores a record ends the lease by replacing it. token and expires never
// change once the record is stored.
type fillLease struct {
	token   uint64
	expires int64 // wall-clock nanoseconds
	// lapsed is set by whichever of the holder's late FILL and the next
	// grant first finds the lease expired, so LEASES_EXPIRED counts it once.
	lapsed atomic.Bool
}

// leaseRecord is a lease record and its lease in one allocation.
type leaseRecord struct {
	entry
	lease fillLease
}

// newLeaseRecord returns a record at ver and born (a placeholder when both
// are 0, else the tombstone they describe) carrying a fresh lease.
func newLeaseRecord(ver uint64, born int64, token uint64, expires int64) *entry {
	r := &leaseRecord{entry: entry{ver: ver, born: born}, lease: fillLease{token: token, expires: expires}}
	r.entry.lease = &r.lease
	return &r.entry
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

// getLease answers a GETL whose Get found no live value, deciding under the
// key's bucket lock: a value that landed since is a HIT, an unexpired lease
// is a wait with its remaining TTL, and otherwise this caller is granted a
// fresh lease. It reports whether storing the lease record displaced a
// resident.
func (s *Server) getLease(key uint64, resp *wire.Response) (displaced bool) {
	// fn must stay a pure function of its argument, so the token and the
	// clock are read before Update.
	token := s.leaseTokens.Add(1)
	now := time.Now().UnixNano()
	ttl := s.leaseTTL.Load()
	var cur *entry
	granted, _, displaced := s.cache.Update(key, func(old interface{}, _ bool) (interface{}, bool) {
		cur, _ = old.(*entry)
		switch {
		case cur == nil:
			return newLeaseRecord(0, 0, token, now+ttl), true
		case cur.live() || cur.lease != nil && now < cur.lease.expires:
			return nil, false
		}
		return newLeaseRecord(cur.ver, cur.born, token, now+ttl), true
	})
	switch {
	case granted:
		if cur != nil {
			s.countExpired(cur.lease)
		}
		s.leasesGranted.Add(1)
		resp.Status, resp.LeaseToken, resp.LeaseTTL = wire.StatusLease, token, time.Duration(ttl)
	case cur.live():
		resp.Status, resp.Value, resp.Version = wire.StatusHit, cur.val, cur.ver
	default:
		resp.Status, resp.LeaseTTL = wire.StatusLease, max(time.Duration(cur.lease.expires-now), time.Millisecond)
	}
	return displaced
}
