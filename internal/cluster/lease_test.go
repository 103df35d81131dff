package cluster

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/trace"
)

// TestLeaseHerdSuppression is the regression test for the v7 lease
// semantics: N independent read-through clients storm one cold key
// concurrently, and exactly ONE of them observes the miss (winning the
// fill lease and loading the origin); the rest are absorbed — they wait
// out the fill and read the stored value. Under pre-v7 semantics every
// client misses and every client loads the origin, so this test fails
// with misses == N.
func TestLeaseHerdSuppression(t *testing.T) {
	addrs := startCluster(t, 3, 4096, 16)
	const n = 8
	const key = uint64(0xC01D)
	payload := []byte("origin-load-payload")

	clients := make([]*Client, n)
	for i := range clients {
		c, err := Dial(addrs, Options{Leases: true, NearCache: NearCacheOptions{Slots: 64}})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	var misses, originLoads atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			<-start
			// One read-through iteration, as the harness performs it: GET,
			// and on a miss load the origin and SET the result back.
			val, hit, err := c.Get(key)
			if err != nil {
				t.Error(err)
				return
			}
			if !hit {
				misses.Add(1)
				originLoads.Add(1)
				if err := c.Set(key, payload); err != nil {
					t.Error(err)
				}
				return
			}
			if string(val) != string(payload) {
				t.Errorf("storm read returned %q, want %q", val, payload)
			}
		}(c)
	}
	close(start)
	wg.Wait()

	if got := misses.Load(); got != 1 {
		t.Fatalf("storm of %d clients observed %d misses, want exactly 1 (the lease holder)", n, got)
	}
	if got := originLoads.Load(); got != 1 {
		t.Fatalf("storm of %d clients loaded the origin %d times, want exactly 1", n, got)
	}

	// The servers agree: one lease was granted cluster-wide and one SET
	// (the holder's fill) landed.
	stats, err := statsAll(clients[0])
	if err != nil {
		t.Fatal(err)
	}
	agg := AggregateStats(stats)
	if agg.LeasesGranted != 1 {
		t.Fatalf("cluster granted %d leases, want 1", agg.LeasesGranted)
	}
	if agg.Sets != 1 {
		t.Fatalf("cluster absorbed %d SETs, want 1 (the single fill)", agg.Sets)
	}
}

// TestLeaseHerdSuppressionReplicated repeats the storm under R=2: round 0
// leases at the primary, the grant falls back through the replica (also
// cold), and the invariant is the same — one origin load, everyone else
// served.
func TestLeaseHerdSuppressionReplicated(t *testing.T) {
	addrs := startCluster(t, 3, 4096, 16)
	const n = 6
	const key = uint64(0xC01D2)
	payload := []byte("replicated-origin-load")

	clients := make([]*Client, n)
	for i := range clients {
		c, err := Dial(addrs, Options{Replicas: 2, Leases: true, NearCache: NearCacheOptions{Slots: 64}})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	var misses atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			<-start
			_, hit, err := c.Get(key)
			if err != nil {
				t.Error(err)
				return
			}
			if !hit {
				misses.Add(1)
				if err := c.Set(key, payload); err != nil {
					t.Error(err)
				}
			}
		}(c)
	}
	close(start)
	wg.Wait()

	if got := misses.Load(); got != 1 {
		t.Fatalf("replicated storm of %d clients observed %d misses, want exactly 1", n, got)
	}
	stats, err := statsAll(clients[0])
	if err != nil {
		t.Fatal(err)
	}
	if agg := AggregateStats(stats); agg.LeasesGranted != 1 {
		t.Fatalf("cluster granted %d leases, want 1", agg.LeasesGranted)
	}

	// The fill propagated: both owners eventually hold the key (the
	// non-primary through the fill's background repair).
	c := clients[0]
	owners := c.Owners(key)
	if len(owners) != 2 {
		t.Fatalf("Owners(%d) = %v, want 2", key, owners)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		stats, err := statsAll(c)
		if err != nil {
			t.Fatal(err)
		}
		total := uint64(0)
		for _, addr := range owners {
			if st := stats[addr]; st != nil {
				total += st.Len
			}
		}
		if total >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fill did not propagate to the replica: %d copies resident", total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLocalGrantWaitSharesOneDeadline pins the bound on the router
// singleflight: a batch whose keys are all held by a sibling's unfilled
// grants waits leaseLocalWait once for the whole batch — not once per key,
// which parked a 16-key batch for ~800ms under c.mu.RLock and, through
// the RWMutex's writer queue, every membership change behind it — and
// still visits each key exactly once.
func TestLocalGrantWaitSharesOneDeadline(t *testing.T) {
	addrs := startCluster(t, 1, 4096, 16)
	c, err := Dial(addrs, Options{Leases: true, NearCache: NearCacheOptions{Slots: 64}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = 0xF111 + uint64(i)
		c.recordGrant(keys[i], uint64(i)+1, time.Minute) // a sibling's fill that never lands
	}
	seen := make([]int, len(keys))
	start := time.Now()
	if err := c.GetBatch(keys, func(i int, hit bool, _ []byte) {
		seen[i]++
		if hit {
			t.Errorf("key %d hit; nothing ever stored it", keys[i])
		}
	}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= 2*leaseLocalWait {
		t.Errorf("GetBatch of %d locally granted keys took %v, want < %v: the local waits ran back to back", len(keys), took, 2*leaseLocalWait)
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("key %d visited %d times, want exactly once", keys[i], n)
		}
	}
}

// TestGrantStoreBounded holds three times the grant store's capacity in
// grants. The store stays within its capacity, every grant past it is an
// LRU eviction, and a local waiter parked on a grant the store then
// evicts (whose done channel nobody closes) still resolves within
// leaseLocalWait, as an unresolved key.
func TestGrantStoreBounded(t *testing.T) {
	addrs := startCluster(t, 1, 4096, 16)
	c, err := Dial(addrs, Options{Leases: true, NearCache: NearCacheOptions{Slots: 64}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const parked = uint64(0xB0B0)
	c.recordGrant(parked, 1, time.Minute) // a sibling's fill that never lands
	type result struct {
		rest []int
		took time.Duration
	}
	waited := make(chan result, 1)
	go func() {
		start := time.Now()
		rest := c.waitLocalGrants([]uint64{parked}, []int{0}, func(int, bool, []byte) {
			t.Error("the parked key was served; nothing ever stored it")
		})
		waited <- result{rest, time.Since(start)}
	}()
	for deadline := time.Now().Add(5 * time.Second); c.leaseWaits.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the waiter never parked on the grant")
		}
	}

	const n = 3 * grantSlots
	for i := uint64(1); i <= n; i++ {
		c.recordGrant(parked+i, i+1, time.Minute)
	}
	if s := c.grants.Snapshot(); s.Capacity != grantSlots || s.Len > grantSlots || uint64(s.Len)+s.Evictions != n+1 {
		t.Errorf("grant store holds %d of capacity %d after %d grants and %d evictions, want at most %d and every grant resident or evicted",
			s.Len, s.Capacity, n+1, s.Evictions, grantSlots)
	}
	if g := c.peekGrant(parked); g != nil {
		t.Fatalf("the parked grant survived %d newer grants in a %d-slot store", n, grantSlots)
	}
	if got := c.Snapshot().LeaseGrants; got != n+1 {
		t.Errorf("LeaseGrants = %d, want %d", got, n+1)
	}
	r := <-waited
	t.Logf("waiter on the evicted grant resolved in %v", r.took)
	if len(r.rest) != 1 || r.rest[0] != 0 {
		t.Errorf("waiter returned %v, want the parked key unresolved", r.rest)
	}
	if slack := 250 * time.Millisecond; r.took > leaseLocalWait+slack {
		t.Errorf("waiter on an evicted grant took %v, want at most leaseLocalWait (%v) plus %v", r.took, leaseLocalWait, slack)
	}
}

// TestLeaseFillDiscardedWhenLost pins the documented read-through
// contract: a SET arriving while the key's lease was superseded by a
// fresher write is discarded as a successful no-op — the fresher value
// survives.
func TestLeaseFillDiscardedWhenLost(t *testing.T) {
	addrs := startCluster(t, 1, 4096, 16)
	holder, err := Dial(addrs, Options{Leases: true})
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	writer, err := Dial(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	const key = uint64(77)
	if _, hit, err := holder.Get(key); err != nil || hit {
		t.Fatalf("cold GET: hit=%v err=%v", hit, err)
	}
	// A plain client's user SET lands between the holder's miss and fill.
	if err := writer.Set(key, []byte("fresh-user-write")); err != nil {
		t.Fatal(err)
	}
	// The holder's read-through fill must lose and be discarded.
	if err := holder.Set(key, []byte("stale-fill")); err != nil {
		t.Fatal(err)
	}
	_, _, lost, _ := leaseTally(holder)
	if lost != 1 {
		t.Fatalf("holder counted %d lost fills, want 1", lost)
	}
	val, hit, err := writer.Get(key)
	if err != nil || !hit {
		t.Fatalf("GET after fill: hit=%v err=%v", hit, err)
	}
	if string(val) != "fresh-user-write" {
		t.Fatalf("discarded fill overwrote the fresher write: got %q", val)
	}
}

func leaseTally(c *Client) (nearHits, staleHints, lost, waits uint64) {
	s := c.Snapshot()
	return s.Near.Hits, 0, s.LeaseLost, s.LeaseWaits
}

// seqPayload encodes a worker-visible sequence number into a payload and
// seqOf reads it back, so readers can assert ordering on what they were
// actually served.
func seqPayload(seq uint64) []byte {
	v := make([]byte, 8)
	binary.LittleEndian.PutUint64(v, seq)
	return v
}

func seqOf(v []byte) uint64 { return binary.LittleEndian.Uint64(v) }

// TestNearCacheMonotonicUnderWrites races near-cached readers against a
// sequential writer per key and asserts every reader observes each key's
// sequence numbers non-decreasing: the version-invalidated near-cache
// never serves an older value after a newer one has been observed
// through the same client. Run with -race, this is also the data-race
// check on the near-cache and grant table. The plain R = 2 row is the
// path where one SET leaves its owners at different versions.
func TestNearCacheMonotonicUnderWrites(t *testing.T) {
	near := NearCacheOptions{Slots: 128, TTL: 5 * time.Millisecond}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"leases", Options{Leases: true, NearCache: near}},
		{"r2-plain", Options{Replicas: 2, NearCache: near}},
	} {
		t.Run(tc.name, func(t *testing.T) { testNearCacheMonotonic(t, tc.opts) })
	}
}

func testNearCacheMonotonic(t *testing.T, opts Options) {
	addrs := startCluster(t, 3, 4096, 16)
	c, err := Dial(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const nKeys = 4
	const writes = 200
	const readers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// One sequential writer per key: its SETs get strictly increasing
	// server versions, so payload sequence order == version order.
	for k := 0; k < nKeys; k++ {
		wg.Add(1)
		go func(key uint64) {
			defer wg.Done()
			for seq := uint64(1); seq <= writes; seq++ {
				if err := c.Set(key, seqPayload(seq)); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(1000 + k))
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make(map[uint64]uint64, nKeys)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k := 0; k < nKeys; k++ {
					key := uint64(1000 + k)
					val, hit, err := c.Get(key)
					if err != nil {
						t.Error(err)
						return
					}
					if !hit {
						continue
					}
					seq := seqOf(val)
					if seq < last[key] {
						t.Errorf("key %d: observed seq %d after %d — near-cache served a resurrected older value", key, seq, last[key])
						return
					}
					last[key] = seq
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Writers finish on their own; readers spin until told to stop.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done
}

// TestNearCacheNoResurrectionAfterDel deletes a near-cached key and
// asserts that once a subsequent read has observed the miss, the value
// never reappears (nothing writes it again).
func TestNearCacheNoResurrectionAfterDel(t *testing.T) {
	addrs := startCluster(t, 3, 4096, 16)
	c, err := Dial(addrs, Options{NearCache: NearCacheOptions{Slots: 64, TTL: 20 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const key = uint64(4242)
	if err := c.Set(key, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := c.Get(key); err != nil || !hit {
		t.Fatalf("warm GET: hit=%v err=%v", hit, err)
	}
	if present, err := c.Del(key); err != nil || !present {
		t.Fatalf("DEL: present=%v err=%v", present, err)
	}
	// Del purges the near-cache, so the miss must be immediate.
	for i := 0; i < 10; i++ {
		_, hit, err := c.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatalf("GET %d after DEL returned the deleted value", i)
		}
	}
}

// TestLoadHarnessCollectsLeaseCounters drives leased/near-cached routers
// through the load harness and sums Snapshot over the routers its Dial
// handed out, read after Run has closed them — a hot workload must show
// near-cache absorption and a lease-bounded storm.
func TestLoadHarnessCollectsLeaseCounters(t *testing.T) {
	addrs := startCluster(t, 3, 4096, 16)
	opts := Options{Leases: true, NearCache: NearCacheOptions{Slots: 512}}

	// A maximally hot stream: one key read over and over.
	keys := make(trace.Sequence, 4096)
	for i := range keys {
		keys[i] = 7
	}
	var (
		mu      sync.Mutex
		routers []*Client
	)
	res, err := load.Run(load.Config{
		Dial: func() (load.Conn, error) {
			c, err := Dial(addrs, opts)
			if err == nil {
				mu.Lock()
				routers = append(routers, c)
				mu.Unlock()
			}
			return c, err
		},
		Conns:       2,
		Keys:        keys,
		Pipeline:    16,
		ValueSize:   16,
		ReadThrough: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var nearHits, grants, waits uint64
	for _, c := range routers {
		s := c.Snapshot()
		nearHits, grants, waits = nearHits+s.Near.Hits, grants+s.LeaseGrants, waits+s.LeaseWaits
	}
	if nearHits == 0 {
		t.Fatalf("hot single-key run reported 0 near-cache hits (grants=%d waits=%d)", grants, waits)
	}
	if grants == 0 {
		t.Fatal("read-through run reported 0 lease grants")
	}
	if uint64(res.Misses) > grants+waits {
		t.Fatalf("misses=%d exceed grants+waits=%d: the storm was not lease-bounded", res.Misses, grants+waits)
	}
}
