package server

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/wire"
)

// TestLeaseGrantFillServe pins the happy path of the v7 miss protocol:
// the first GETL of a cold key wins the fill lease, a concurrent GETL
// gets a bare zero-token LEASE (wait), the holder's fill lands with a
// version, and the key serves as a plain HIT afterwards — with the
// counters telling the same story.
func TestLeaseGrantFillServe(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const key = uint64(11)
	ls, err := c.GetLease(key)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Hit || ls.Token == 0 {
		t.Fatalf("first GETL = %+v, want a fill grant", ls)
	}
	if ls.TTL <= 0 {
		t.Fatalf("grant TTL = %v, want positive", ls.TTL)
	}

	// A second misser must NOT get a second lease for the key.
	waiter, err := c.GetLease(key)
	if err != nil {
		t.Fatal(err)
	}
	if waiter.Hit || waiter.Token != 0 {
		t.Fatalf("concurrent GETL = %+v, want a bare zero-token wait", waiter)
	}

	filled, ver, err := c.Fill(key, ls.Token, []byte("origin-value"))
	if err != nil {
		t.Fatal(err)
	}
	if !filled || ver == 0 {
		t.Fatalf("fill: applied=%v ver=%d, want applied with a version", filled, ver)
	}

	after, err := c.GetLease(key)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Hit || string(after.Value) != "origin-value" {
		t.Fatalf("GETL after fill = %+v, want HIT origin-value", after)
	}

	st, err := c.Stats(false)
	if err != nil {
		t.Fatal(err)
	}
	if st.LeasesGranted != 1 || st.LeasesExpired != 0 {
		t.Fatalf("stats granted=%d expired=%d, want 1/0", st.LeasesGranted, st.LeasesExpired)
	}
}

// TestLeaseOneGrantPerFill races six clients' GETLs on each of 400 fresh
// keys: the client granted the lease fills the key, the others re-ask
// until they read it. Exactly one grant per key may happen — a GETL that
// missed just before the fill landed must see the value, not win a second
// lease. HITS counts the one HIT each client read per key: a re-ask that
// found the lease record answered a wait, which is neither HIT nor MISS.
func TestLeaseOneGrantPerFill(t *testing.T) {
	srv, addr := startServer(t, concurrent.Config{Capacity: 1 << 14, Alpha: 16, Seed: 1})
	const clients, keys = 6, 400
	var grants [keys]atomic.Int32
	var waits atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for w := 0; w < clients; w++ {
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := uint64(1000 + k)
				for {
					ls, err := c.GetLease(key)
					if err != nil {
						errc <- err
						return
					}
					if ls.Hit {
						break
					}
					if ls.Token == 0 {
						waits.Add(1)
						time.Sleep(20 * time.Microsecond)
						continue
					}
					grants[k].Add(1)
					if _, _, err := c.Fill(key, ls.Token, []byte("v")); err != nil {
						errc <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	extra := 0
	for k := range grants {
		extra += int(grants[k].Load()) - 1
	}
	if extra != 0 {
		t.Errorf("%d extra grants over %d keys, want one grant per key", extra, keys)
	}
	st := srv.stats()
	if st.LeasesGranted != keys {
		t.Errorf("LEASES_GRANTED = %d, want %d", st.LeasesGranted, keys)
	}
	if st.Hits != clients*keys || st.Misses != 0 {
		t.Errorf("HITS/MISSES = %d/%d after %d waits, want %d/0: one HIT per client and key", st.Hits, st.Misses, waits.Load(), clients*keys)
	}
	t.Logf("%d re-asks answered a wait", waits.Load())
}

// TestLeaseExpiredFillRefused pins expiry: a fill arriving after the
// lease TTL answers LEASE_LOST and stores nothing, and the expired lease
// counts once.
func TestLeaseExpiredFillRefused(t *testing.T) {
	srv, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	srv.SetLeaseTTL(5 * time.Millisecond)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const key = uint64(9)
	ls, err := c.GetLease(key)
	if err != nil || ls.Token == 0 {
		t.Fatalf("grant: %+v err=%v", ls, err)
	}
	time.Sleep(20 * time.Millisecond)
	filled, _, err := c.Fill(key, ls.Token, []byte("too-late"))
	if err != nil {
		t.Fatal(err)
	}
	if filled {
		t.Fatal("expired fill was applied")
	}
	if _, hit, err := c.Get(key); err != nil || hit {
		t.Fatalf("GET after refused fill: hit=%v err=%v — the late fill stored anyway", hit, err)
	}
	// The next GETL is granted over the expired lease, which the late fill
	// already counted: one expiry, not two.
	if ls, err := c.GetLease(key); err != nil || ls.Token == 0 {
		t.Fatalf("GETL after expiry = %+v, %v; want a fresh grant", ls, err)
	}
	st, err := c.Stats(false)
	if err != nil {
		t.Fatal(err)
	}
	if st.LeasesExpired != 1 || st.LeasesGranted != 2 {
		t.Fatalf("stats expired=%d granted=%d, want 1/2", st.LeasesExpired, st.LeasesGranted)
	}
}

// TestLeaseFillLosesToUserSet pins the lost-update arm: a user SET landing
// between grant and fill invalidates the lease, the fill answers
// LEASE_LOST carrying the winning version, and the user's value survives.
func TestLeaseFillLosesToUserSet(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const key = uint64(21)
	ls, err := c.GetLease(key)
	if err != nil || ls.Token == 0 {
		t.Fatalf("grant: %+v err=%v", ls, err)
	}
	if _, err := c.Set(key, []byte("user-write")); err != nil {
		t.Fatalf("user SET: %v", err)
	}
	filled, lostVer, err := c.Fill(key, ls.Token, []byte("stale-fill"))
	if err != nil {
		t.Fatal(err)
	}
	if filled {
		t.Fatal("fill overwrote a newer user SET")
	}
	if lostVer == 0 {
		t.Fatal("LEASE_LOST carried no winning version despite the user SET having one")
	}
	val, hit, err := c.Get(key)
	if err != nil || !hit || string(val) != "user-write" {
		t.Fatalf("GET = %q hit=%v err=%v, want the user's value", val, hit, err)
	}
}

// TestLeaseFillAfterDelRefused pins DEL's resurrection guard: the
// tombstone replaces the key's leased record, so an in-flight fill
// answers LEASE_LOST and the key stays deleted; the next GETL is a fresh
// grant over the tombstone.
func TestLeaseFillAfterDelRefused(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const key = uint64(33)
	ls, err := c.GetLease(key)
	if err != nil || ls.Token == 0 {
		t.Fatalf("grant: %+v err=%v", ls, err)
	}
	if _, _, err := c.Del(key); err != nil {
		t.Fatal(err)
	}
	filled, _, err := c.Fill(key, ls.Token, []byte("zombie"))
	if err != nil {
		t.Fatal(err)
	}
	if filled {
		t.Fatal("fill resurrected a deleted key")
	}
	if _, hit, err := c.Get(key); err != nil || hit {
		t.Fatalf("GET after DEL: hit=%v err=%v", hit, err)
	}
	next, err := c.GetLease(key)
	if err != nil {
		t.Fatal(err)
	}
	if next.Token == 0 {
		t.Fatalf("GETL after DEL = %+v, want a fresh grant", next)
	}
}

// TestLeaseStressNeverOverwritesUserWrite is the -race storm: holders
// that dawdle past a tiny lease TTL race their fills against user SETs
// and concurrent GETLs on a small key space. The pinned invariant is the
// lease's reason to exist: once ANY user SET of a key has
// completed, no fill may overwrite it — a read must never again return a
// fill payload for that key.
func TestLeaseStressNeverOverwritesUserWrite(t *testing.T) {
	srv, addr := startServer(t, concurrent.Config{Capacity: 256, Alpha: 4, Seed: 1})
	srv.SetLeaseTTL(2 * time.Millisecond)

	const keys = 8
	const workers = 8
	const iters = 300
	var userSet [keys]atomic.Bool

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				key := uint64(rng.Intn(keys))
				switch rng.Intn(4) {
				case 0: // user write
					if _, err := c.Set(key, []byte(fmt.Sprintf("user-%d", key))); err != nil {
						errc <- err
						return
					}
					userSet[key].Store(true)
				case 1: // read-through GETL, sometimes filling late
					ls, err := c.GetLease(key)
					if err != nil {
						errc <- err
						return
					}
					if ls.Token != 0 {
						if rng.Intn(2) == 0 {
							// Dawdle past the TTL so the fill races expiry.
							time.Sleep(3 * time.Millisecond)
						}
						if _, _, err := c.Fill(key, ls.Token, []byte(fmt.Sprintf("fill-%d", key))); err != nil {
							errc <- err
							return
						}
					}
				default: // plain read, checking the invariant
					wasUserSet := userSet[key].Load()
					val, hit, err := c.Get(key)
					if err != nil {
						errc <- err
						return
					}
					if wasUserSet && hit && string(val) == fmt.Sprintf("fill-%d", key) {
						errc <- fmt.Errorf("key %d: read fill payload after a user SET completed", key)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestGetLeaseRacesWrites races lease decisions against SETs, FILLs and
// DELs on a store of one 4-slot set over eight keys, from four goroutines
// calling the server in process, so getLease often finds a value, and
// every record is soon evicted or overwritten and its buffer handed to the
// next write. getLease must read a record only under the set lock: a read
// after Update returns races the write that reuses the buffer, which
// -race reports. Every value read must be its own key's payload, and
// TOMBSTONES must equal the tombstones resident when the traffic stops,
// through tombstone writes, leases over tombstones and evictions.
func TestGetLeaseRacesWrites(t *testing.T) {
	cache, err := concurrent.New(concurrent.Config{Capacity: 4, Alpha: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cache)
	defer srv.Close()
	srv.SetLeaseTTL(time.Microsecond) // leases lapse, so decisions repeat
	const workers, keys = 4, 8
	iters := 100000
	if raceEnabled {
		iters = 20000
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			nonce := uint64(w) << 32
			for i := 0; i < iters; i++ {
				key := uint64(rng.Intn(keys))
				nonce++
				var resp wire.Response
				switch op := rng.Intn(100); {
				case op < 50:
					if _, answered := srv.getLease(key, &resp); answered && resp.LeaseToken != 0 && rng.Intn(2) == 0 {
						token := resp.LeaseToken
						resp = wire.Response{}
						srv.exec(&wire.Request{Op: wire.OpFill, Key: key, LeaseToken: token, Value: stressPayload(key, nonce)}, &resp)
					}
				case op < 80:
					srv.exec(&wire.Request{Op: wire.OpSet, Key: key, Value: stressPayload(key, nonce)}, &resp)
				case op < 90:
					srv.exec(&wire.Request{Op: wire.OpDel, Key: key}, &resp)
				default:
					var err error
					srv.cache.View(key, func(v interface{}) {
						if r, _ := viewOf(v); r.live {
							err = checkStress(key, r.val)
						}
					})
					if err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	var resident int64
	cache.Entries(func(_ uint64, v interface{}) {
		if r, _ := viewOf(v); r.tomb {
			resident++
		}
	})
	if got := srv.tombstones.Load(); got != resident {
		t.Fatalf("TOMBSTONES gauge %d, but %d tombstones are resident", got, resident)
	}
	if st := srv.stats(); st.LeasesGranted == 0 || st.LeasesExpired == 0 || st.Evictions == 0 {
		t.Fatalf("%d grants, %d expired and %d evictions: the race was not run", st.LeasesGranted, st.LeasesExpired, st.Evictions)
	}
}
