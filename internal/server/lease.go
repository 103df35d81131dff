package server

import (
	"time"

	"repro/internal/wire"
)

// DefaultLeaseTTL is how long a GETL miss's fill lease stays outstanding.
// A lease bounds how long concurrent missers wait (or eat stale hints)
// for a holder that died mid-load, so it should sit just above the
// slowest plausible origin load; 2s is generous for a cache-fill RPC
// while still bounding a wedged holder's blast radius. Override with
// SetLeaseTTL (cached -lease-ttl).
const DefaultLeaseTTL = 2 * time.Second

// maxLeases bounds the lease table. The table holds one entry per key
// that ever missed through GETL (entries persist to retain stale-hint
// copies), and each entry may pin a value copy, so the bound caps both
// memory and the per-op cost of the single table mutex. At the cap, a
// new miss evicts a spent or expired entry — or, failing a cheap scan,
// an arbitrary live one, whose fill then answers LEASE_LOST (safe: a
// lost lease is always a refusal the holder must tolerate anyway).
const maxLeases = 4096

// lease is the per-key lease state: the outstanding fill token (0 when
// none) with its deadline, plus the last value the lease machinery saw
// for the key — the stale hint zero-token LEASE responses serve so a
// storm of missers gets *something* without stampeding the origin.
//
// The invariant the table maintains: a lease is granted only on a miss,
// and its fill applies only while the key still has no versioned value.
// Any write that lands in between either kills the token here
// (supersedeLease) or leaves a nonzero version the fill's conditional
// store refuses — so at most one fill lands per lease, and never over
// fresher state.
type lease struct {
	token    uint64
	expires  time.Time
	staleVer uint64
	staleVal []byte
}

// SetLeaseTTL configures how long GETL fill leases stay outstanding; d ≤ 0
// restores DefaultLeaseTTL.
func (s *Server) SetLeaseTTL(d time.Duration) {
	if d <= 0 {
		d = DefaultLeaseTTL
	}
	s.leaseTTL.Store(int64(d))
}

// leaseMiss answers a GETL whose key is not resident: grant the fill
// lease if nobody holds it (or the holder's expired), otherwise report
// the holder's remaining TTL — with the key's stale copy when one is
// retained, so the misser is served a possibly superseded value instead
// of joining the stampede.
func (s *Server) leaseMiss(key uint64) wire.Response {
	now := time.Now()
	ttl := time.Duration(s.leaseTTL.Load())
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	ls := s.leases[key]
	if ls == nil {
		if s.leases == nil {
			s.leases = make(map[uint64]*lease)
		} else if len(s.leases) >= maxLeases {
			s.evictLeaseLocked(now)
		}
		ls = &lease{}
		s.leases[key] = ls
		s.leaseEntries.Store(int64(len(s.leases)))
	}
	if ls.token != 0 && now.After(ls.expires) {
		ls.token = 0
		s.leasesExpired.Add(1)
	}
	if ls.token == 0 {
		s.leaseTokens++
		ls.token = s.leaseTokens
		ls.expires = now.Add(ttl)
		s.leasesGranted.Add(1)
		return wire.Response{Status: wire.StatusLease, LeaseToken: ls.token, LeaseTTL: ttl}
	}
	remaining := ls.expires.Sub(now)
	if remaining < time.Millisecond {
		remaining = time.Millisecond
	}
	if ls.staleVal != nil {
		s.staleServes.Add(1)
		// staleVal is immutable once retained (fills and invalidations
		// replace the slice, never write through it), so handing it to the
		// response encoder outside the lock is safe.
		return wire.Response{
			Status: wire.StatusLease, LeaseTTL: remaining,
			Stale: true, Version: ls.staleVer, Value: ls.staleVal,
		}
	}
	return wire.Response{Status: wire.StatusLease, LeaseTTL: remaining}
}

// leaseFill applies a FILL: the fill lands only while the carried token is
// the key's outstanding lease and the key still has no versioned value
// (see the lease invariant above). rec's value must already be a copy the
// server owns.
func (s *Server) leaseFill(token uint64, rec record) wire.Response {
	now := time.Now()
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	ls := s.leases[rec.Key]
	if ls == nil {
		// The winning version is unknown without re-reading the cache
		// (which would skew its hit/miss counters); 0 says "unknown".
		return wire.Response{Status: wire.StatusLeaseLost}
	}
	if ls.token != token {
		// Superseded: a newer write killed this token (its version is the
		// retained stale copy's, when one exists), or a newer lease was
		// granted after this one expired.
		return wire.Response{Status: wire.StatusLeaseLost, Version: ls.staleVer}
	}
	if now.After(ls.expires) {
		ls.token = 0
		s.leasesExpired.Add(1)
		return wire.Response{Status: wire.StatusLeaseLost, Version: ls.staleVer}
	}
	ls.token = 0
	// leaseMu is held: write never re-enters the lease table, and the
	// stale copy is updated here rather than through supersedeLease.
	applied, ver, evicted, _ := s.write(ifNoValue, rec)
	if !applied {
		return wire.Response{Status: wire.StatusLeaseLost, Version: ver}
	}
	ls.staleVer, ls.staleVal = ver, rec.val
	return wire.Response{Status: wire.StatusOK, Evicted: evicted, Version: ver}
}

// invalidateLease is supersedeLease's value half: an applied SET or PUT
// supersedes whatever fill is in flight, so kill the key's outstanding
// token (its fill will answer LEASE_LOST) and refresh the stale copy.
// Gated by the caller on leaseEntries, so workloads that never GETL pay
// nothing.
func (s *Server) invalidateLease(key, ver uint64, val []byte) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	ls := s.leases[key]
	if ls == nil {
		return
	}
	ls.token = 0
	if ver >= ls.staleVer {
		ls.staleVer, ls.staleVal = ver, val
	}
}

// dropLease is the delete hook: remove the key's lease entry entirely —
// token and stale copy — so neither an in-flight fill nor a later stale
// hint can resurrect the deleted value. DEL calls it *before* its
// tombstone store, an applied tombstone PUT after (supersedeLease). Gated
// by the caller on leaseEntries.
func (s *Server) dropLease(key uint64) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	ls := s.leases[key]
	if ls == nil {
		return
	}
	delete(s.leases, key)
	s.leaseEntries.Store(int64(len(s.leases)))
}

// evictLeaseLocked makes room in the full lease table: a short scan
// (map iteration order is effectively random) drops the first spent or
// expired entry it sees, falling back to an arbitrary live one — whose
// holder simply loses its lease, the refusal every holder must already
// tolerate. Called with leaseMu held.
func (s *Server) evictLeaseLocked(now time.Time) {
	var fallback uint64
	found := false
	scanned := 0
	for k, ls := range s.leases {
		if ls.token == 0 || now.After(ls.expires) {
			if ls.token != 0 {
				s.leasesExpired.Add(1)
			}
			delete(s.leases, k)
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
		s.leasesExpired.Add(1)
		delete(s.leases, fallback)
	}
}
