package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// TestNearCacheRenewsOnOlderVersion pins the revalidation rule: an answer
// at a version below the resident one restarts the entry's TTL exactly as
// an equal version does. Before it, the older answer handed the caller
// the resident value and left the deadline in the past, so every later
// read of the key paid a round trip for the same bytes.
func TestNearCacheRenewsOnOlderVersion(t *testing.T) {
	const ttl = time.Second
	n := newNearCache(NearCacheOptions{Slots: 8, TTL: ttl})
	t0 := time.Unix(1000, 0)
	n.store(1, 10, []byte("v10"), t0)

	late := t0.Add(2 * ttl)
	if _, _, ok := n.lookup(1, late); ok {
		t.Fatal("entry served past its TTL")
	}
	val, ver := n.reconcile(1, 9, []byte("v9"), late)
	if ver != 10 || string(val) != "v10" {
		t.Fatalf("reconcile at version 9 over resident 10 = (%q, %d), want (v10, 10)", val, ver)
	}
	val, ver, ok := n.lookup(1, late.Add(ttl/2))
	if !ok || ver != 10 || string(val) != "v10" {
		t.Fatalf("lookup within the renewed TTL = (%q, %d, %v), want a hit at version 10", val, ver, ok)
	}
	if st := n.snapshot(); st.Expired != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("counters %+v, want 1 hit and 1 miss, the miss expired", st)
	}
}

// TestNearCacheServesAfterReplicatedSet is the regression test for the
// near-cache's zombie entries. A plain SET at R = 2 leaves its two owners
// holding the same bytes under different versions, and SetBatch caches
// the higher. When the primary holds the lower one, every read answers
// "older than resident". That answer used to hand back the resident value
// without renewing it, so once the TTL passed the entry stayed resident
// and referenced and was never served again.
func TestNearCacheServesAfterReplicatedSet(t *testing.T) {
	const ttl = 20 * time.Millisecond
	addrs := startCluster(t, 3, 4096, 16)
	c, err := Dial(addrs, Options{Replicas: 2, NearCache: NearCacheOptions{Slots: 64, TTL: ttl}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	members := make(map[string]*wire.Client, len(addrs))
	for _, a := range addrs {
		w, err := wire.Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		members[a] = w
	}
	version := func(addr string, key uint64) uint64 {
		var ver uint64
		err := members[addr].GetBatchVersions([]uint64{key}, func(_ int, hit bool, v uint64, _ []byte) {
			if !hit {
				t.Fatalf("key %d missing on owner %s", key, addr)
			}
			ver = v
		})
		if err != nil {
			t.Fatal(err)
		}
		return ver
	}

	// Each owner stamps its own version, so which one is lower varies
	// from key to key; take the first key whose primary holds the lower.
	key := uint64(0)
	for k := uint64(1); key == 0; k++ {
		if k > 1000 {
			t.Fatal("no key in 1000 whose primary's version is below its replica's")
		}
		if err := c.Set(k, []byte(fmt.Sprint("value-", k))); err != nil {
			t.Fatal(err)
		}
		owners := c.Owners(k)
		if version(owners[0], k) < version(owners[1], k) {
			key = k
		}
	}

	if _, hit, err := c.Get(key); err != nil || !hit {
		t.Fatalf("first GET: hit=%v err=%v", hit, err)
	}
	time.Sleep(2 * ttl)
	for i := 0; i < 2; i++ {
		before := c.Snapshot().Near.Hits
		if _, hit, err := c.Get(key); err != nil || !hit {
			t.Fatalf("GET %d after the TTL: hit=%v err=%v", i+1, hit, err)
		}
		if i == 1 && c.Snapshot().Near.Hits != before+1 {
			t.Fatalf("second GET after the TTL was not a near hit (%+v): the primary's older-version answer did not renew the entry", c.Snapshot().Near)
		}
	}
}

// TestNearCacheReadOnlyClientKeepsNewestOnFallback: a client that only
// reads caches the first value it fetches, and that value is the floor
// for every later read of the key. Here the primary holds a newer version
// than its replica, the client reads it, the primary crashes, and the
// lagging replica answers the fallback read with the older version; the
// client must keep delivering the newer value it already observed.
func TestNearCacheReadOnlyClientKeepsNewestOnFallback(t *testing.T) {
	const ttl = 20 * time.Millisecond
	addrs := make([]string, 3)
	servers := make(map[string]*server.Server, len(addrs))
	for i := range addrs {
		var srv *server.Server
		addrs[i], srv = startNodeWithServer(t, 4096, 16, uint64(i+1))
		servers[addrs[i]] = srv
	}
	writer, err := Dial(addrs, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	const key = uint64(7)
	if err := writer.Set(key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	owners := writer.Owners(key)
	get := func(addr string) []byte {
		w, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		val, hit, err := w.Get(key)
		if err != nil || !hit {
			t.Fatalf("GET %d from %s: hit=%v err=%v", key, addr, hit, err)
		}
		return val
	}
	// Move the primary ahead of its replica behind the router's back.
	primary, err := wire.Dial(owners[0])
	if err != nil {
		t.Fatal(err)
	}
	newer := uint64(time.Now().Add(time.Hour).UnixNano())
	applied, _, err := primary.Put(wire.Request{Key: key, Version: newer, Value: []byte("new")})
	primary.Close()
	if err != nil || !applied {
		t.Fatalf("PUT to the primary: applied=%v err=%v", applied, err)
	}
	if v := get(owners[1]); string(v) != "old" {
		t.Fatalf("replica holds %q, want the lagging %q", v, "old")
	}

	reader, err := Dial(addrs, Options{Replicas: 2, NearCache: NearCacheOptions{Slots: 64, TTL: ttl}})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if v, hit, err := reader.Get(key); err != nil || !hit || string(v) != "new" {
		t.Fatalf("first read = (%q, %v, %v), want the primary's %q", v, hit, err, "new")
	}
	if err := servers[owners[0]].Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * ttl)
	for i := 0; i < 2; i++ {
		if v, hit, err := reader.Get(key); err != nil || !hit || string(v) != "new" {
			t.Fatalf("read %d after the primary crashed = (%q, %v, %v), want %q, never the replica's older value", i+1, v, hit, err, "new")
		}
	}
}

// TestNearCacheMatchesModel replays a seeded random mix of store,
// reconcile, lookup, remove and tombstone against a plain map that
// implements the documented rules: the fresher record is kept and its
// deadline restarts, a lookup serves until (and including) the deadline,
// and a tombstone drops an entry at or below its version. 64 keys in
// 1024 slots leave no room for an eviction, and versions drawn from 1–6
// make older, equal and newer answers all common.
func TestNearCacheMatchesModel(t *testing.T) {
	const (
		ops, keys, ttl = 10000, 64, 10 * time.Millisecond
	)
	type entry struct {
		val     string
		ver     uint64
		expires time.Time
	}
	n := newNearCache(NearCacheOptions{Slots: 1024, TTL: ttl})
	model := make(map[uint64]entry)
	var want NearCacheCounters
	lookups := uint64(0)
	rng := rand.New(rand.NewSource(1))
	now := time.Unix(1000, 0)
	for op := 0; op < ops; op++ {
		now = now.Add(time.Duration(rng.Intn(2)) * 100 * time.Microsecond)
		key, ver := uint64(rng.Intn(keys)), uint64(1+rng.Intn(6))
		val := fmt.Sprint("op-", op)
		switch r := rng.Intn(10); {
		case r < 4: // store or reconcile
			e, ok := model[key]
			if !ok || e.ver < ver {
				e = entry{val: val, ver: ver}
			}
			e.expires = now.Add(ttl)
			model[key] = e
			want.Stores++
			if r == 0 {
				n.store(key, ver, []byte(val), now)
				continue
			}
			if got, gotVer := n.reconcile(key, ver, []byte(val), now); string(got) != e.val || gotVer != e.ver {
				t.Fatalf("op %d: reconcile(%d, v%d) = (%q, v%d), want (%q, v%d)", op, key, ver, got, gotVer, e.val, e.ver)
			}
		case r < 8: // lookup, up to 1.5 TTLs ahead of the clock
			at := now.Add(time.Duration(rng.Intn(16)) * time.Millisecond)
			lookups++
			e, ok := model[key]
			live := ok && !at.After(e.expires)
			switch {
			case live:
				want.Hits++
			case ok:
				want.Misses++
				want.Expired++
			default:
				want.Misses++
			}
			got, gotVer, hit := n.lookup(key, at)
			if hit != live || (live && (string(got) != e.val || gotVer != e.ver)) {
				t.Fatalf("op %d: lookup(%d) = (%q, v%d, %v), want (%q, v%d, %v)", op, key, got, gotVer, hit, e.val, e.ver, live)
			}
		case r < 9:
			delete(model, key)
			n.remove(key)
		default:
			if e, ok := model[key]; ok && e.ver <= ver {
				delete(model, key)
			}
			n.tombstone(key, ver)
		}
	}
	want.Len = len(model)
	got := n.snapshot()
	if got != want {
		t.Fatalf("counters %+v, want %+v", got, want)
	}
	if got.Hits+got.Misses != lookups || got.Expired > got.Misses {
		t.Fatalf("counters %+v after %d lookups: each is a hit or a miss, and an expired one is a miss", got, lookups)
	}
}

// TestNearCacheSizingAndEviction pins the derived geometry: sets of
// min(Slots, 16), Slots rounded down to a whole number of sets. Each
// insert past a full set evicts one entry, and the victim is its set's
// least recently used: a key read between every two inserts stays.
func TestNearCacheSizingAndEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	for _, tc := range []struct{ slots, resident int }{{1, 1}, {8, 8}, {17, 16}, {1000, 992}, {1024, 1024}} {
		n := newNearCache(NearCacheOptions{Slots: tc.slots, TTL: time.Hour})
		const hot = 0
		n.store(hot, 1, []byte("hot"), now)
		stores := 1
		for k := uint64(1); k <= uint64(4*tc.slots); k++ {
			n.store(k, 1, []byte("cold"), now)
			stores++
			// One slot holds only the newest insert; otherwise the
			// hot key, read after every insert, is never its set's LRU.
			if _, _, ok := n.lookup(hot, now); tc.slots > 1 && !ok {
				t.Fatalf("Slots=%d: the hot key was evicted by insert %d", tc.slots, k)
			}
		}
		st := n.snapshot()
		if st.Len > tc.resident {
			t.Errorf("Slots=%d: %d resident, want at most %d", tc.slots, st.Len, tc.resident)
		}
		if st.Evicts != uint64(stores-st.Len) {
			t.Errorf("Slots=%d: %d evictions after %d stores with %d resident, want %d", tc.slots, st.Evicts, stores, st.Len, stores-st.Len)
		}
	}
}
