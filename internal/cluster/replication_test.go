package cluster

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/wire"
)

// startNodeWithServer boots one cached node on loopback and returns both
// its address and the server handle, so tests can crash it mid-run.
func startNodeWithServer(t *testing.T, k, alpha int, seed uint64) (string, *server.Server) {
	t.Helper()
	cache, err := concurrent.New(concurrent.Config{Capacity: k, Alpha: alpha, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cache)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), srv
}

// TestReadRepair wipes a key from its primary owner's cache out-of-band
// (emulating a lost or wiped replica — since v8 a wire DEL cannot play
// this role, because it leaves a tombstone the repair correctly refuses
// to overwrite), reads it through the replicated client, and asserts the
// fallback hit both returns the value and regenerates the primary's copy
// in the background — with the repair counted as repair traffic at every
// layer (router counters, server counters).
func TestReadRepair(t *testing.T) {
	caches := make(map[string]*concurrent.Cache)
	addrs := make([]string, 3)
	for i := range addrs {
		cache, err := concurrent.New(concurrent.Config{Capacity: 4096, Alpha: 16, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(cache)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = ln.Addr().String()
		caches[addrs[i]] = cache
	}
	ctl, err := Dial(addrs, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	const key = uint64(42)
	val := []byte("replicated-payload")
	if err := ctl.Set(key, val); err != nil {
		t.Fatal(err)
	}
	owners := ctl.Owners(key)
	if len(owners) != 2 {
		t.Fatalf("Owners(%d) = %v, want 2 owners", key, owners)
	}

	// Wipe the primary's copy behind the server's back: genuine loss,
	// no tombstone left behind.
	if !caches[owners[0]].Delete(key) {
		t.Fatalf("primary %s does not hold key %d", owners[0], key)
	}
	direct, err := wire.Dial(owners[0])
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	// The degraded read must still hit, served by the backup owner.
	got, hit, err := ctl.Get(key)
	if err != nil || !hit {
		t.Fatalf("Get after primary wipe = hit=%v, %v; want fallback hit", hit, err)
	}
	if string(got) != string(val) {
		t.Fatalf("fallback value = %q, want %q", got, val)
	}

	// Background read repair must regenerate the primary's copy.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, hit, err := direct.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			if string(v) != string(val) {
				t.Fatalf("repaired value = %q, want %q", v, val)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("primary copy not repaired within deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The server applies the repair before the router hears the ack, so give
	// the counter the same deadline the value had.
	for ctl.Snapshot().Replication.RepairsApplied == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rep := ctl.Snapshot().Replication
	if rep.FallbackHits == 0 {
		t.Error("no fallback hits counted")
	}
	if rep.RepairsScheduled == 0 || rep.RepairsApplied == 0 {
		t.Errorf("repair counters = %+v; want scheduled and applied ≥ 1", rep)
	}
	if got := ctl.Snapshot().Members[owners[0]].Repairs; got == 0 {
		t.Errorf("router counted %d repairs on primary %s, want ≥ 1", got, owners[0])
	}

	// The server distinguishes the repair from user writes: the primary saw
	// one user SET (the original) and at least one repair SET.
	stats, err := statsAll(ctl)
	if err != nil {
		t.Fatal(err)
	}
	if st := stats[owners[0]]; st.RepairSets == 0 {
		t.Errorf("primary REPAIR_SETS = %d, want ≥ 1 (Sets = %d)", st.RepairSets, st.Sets)
	}
	if st := stats[owners[0]]; st.Sets == 0 {
		t.Errorf("primary SETS = %d, want ≥ 1", st.Sets)
	}
}

// forEachSetting runs body once per point of the settings matrix
// R ∈ {1, 2, 3} × Leases × NearCache. The settings are inputs of one read
// pipeline and one write pipeline, so one body must hold at all of them.
func forEachSetting(t *testing.T, body func(t *testing.T, opts Options)) {
	for _, r := range []int{1, 2, 3} {
		for _, leases := range []bool{false, true} {
			for _, near := range []bool{false, true} {
				opts := Options{Replicas: r, WriteQuorum: 1, Leases: leases}
				if near {
					// A short TTL: the near-cache may absorb a dead owner's
					// keys only briefly, so the fault stays observable.
					opts.NearCache = NearCacheOptions{Slots: 64, TTL: 5 * time.Millisecond}
				}
				t.Run(fmt.Sprintf("R=%d/leases=%v/near=%v", r, leases, near), func(t *testing.T) {
					t.Parallel()
					body(t, opts)
				})
			}
		}
	}
}

// memberFault drives the batch pipelines' contract through the loss of
// one of three members, either restarted empty on its own address or
// crashed for good:
//
//   - every index of a GetBatch is visited exactly once — at most once,
//     and never only for a key whose every owner is the crashed member,
//     when the batch returns an error;
//   - a hit returns the last acknowledged value;
//   - a restarted member is redialed transparently: every later operation
//     succeeds;
//   - with R ≥ 2 a crashed member loses no read, and can be retired
//     without being contacted;
//   - with R = 1 an error is returned only for a batch holding a key
//     whose single owner stays unreachable after the one redial.
func memberFault(t *testing.T, opts Options, crash bool) {
	const (
		k     = 8192
		alpha = 32
		nkeys = 600
	)
	addrs := make([]string, 3)
	servers := make([]*server.Server, 3)
	for i := range addrs {
		addrs[i], servers[i] = startNodeWithServer(t, k, alpha, uint64(i+1))
	}
	victim := addrs[0]
	ctl, err := Dial(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	keys := make([]uint64, nkeys)
	want := make(map[uint64][]byte, nkeys) // last acknowledged value per key
	for i := range keys {
		keys[i] = uint64(i) + 1
		want[keys[i]] = load.Payload(keys[i], 32)
	}
	if err := ctl.SetBatch(keys, func(i int) []byte { return want[keys[i]] }); err != nil {
		t.Fatal(err)
	}
	// lost reports whether key has no owner but the victim.
	lost := func(key uint64) bool {
		o := ctl.Owners(key)
		return len(o) == 1 && o[0] == victim
	}
	// read issues one GetBatch and checks the visit contract on it.
	read := func(batch []uint64) (hits int, err error) {
		seen := make([]int, len(batch))
		err = ctl.GetBatch(batch, func(i int, hit bool, v []byte) {
			seen[i]++
			if hit {
				hits++
				if !bytes.Equal(v, want[batch[i]]) {
					t.Errorf("key %d: hit returned %q, last acknowledged value is %q", batch[i], v, want[batch[i]])
				}
			}
		})
		for i, n := range seen {
			if n > 1 || (n == 0 && (err == nil || !lost(batch[i]))) {
				t.Errorf("key %d visited %d times (batch error: %v)", batch[i], n, err)
			}
		}
		return hits, err
	}
	if hits, err := read(keys); err != nil || hits != nkeys {
		t.Fatalf("before the fault: %d of %d keys hit, err %v", hits, nkeys, err)
	}

	if !crash {
		// Restart the victim on its own address; its cache starts empty.
		if err := servers[0].Close(); err != nil {
			t.Fatal(err)
		}
		cache, err := concurrent.New(concurrent.Config{Capacity: k, Alpha: alpha, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(cache)
		ln, err := net.Listen("tcp", victim)
		if err != nil {
			t.Fatalf("rebinding %s: %v", victim, err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })

		// Every key routes somewhere; operations against the restarted
		// member must succeed via the redial rather than surfacing a dead
		// connection.
		for _, key := range keys[:64] {
			want[key] = load.Payload(key, 48)
			if err := ctl.Set(key, want[key]); err != nil {
				t.Fatalf("Set(%d) after restart: %v", key, err)
			}
			if hits, err := read([]uint64{key}); err != nil || hits != 1 {
				t.Fatalf("Get(%d) after restart: hit=%d err=%v", key, hits, err)
			}
		}
		if _, err := read(keys); err != nil {
			t.Fatalf("sweep after restart: %v", err)
		}
		if ctl.Snapshot().Members[victim].Redials == 0 {
			t.Error("router reported no redials after a member restart")
		}
		return
	}

	// Live GET traffic through the shared router while the victim dies.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var liveMisses atomic.Uint64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]uint64, 16)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				doomed := false
				for j := range batch {
					batch[j] = keys[(w*31+i*16+j)%nkeys]
					doomed = doomed || lost(batch[j])
				}
				hits, err := read(batch)
				if err != nil && !doomed {
					t.Errorf("read failed during the crash though every key had a live owner: %v", err)
					return
				}
				if err == nil {
					liveMisses.Add(uint64(len(batch) - hits))
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	if err := servers[0].Close(); err != nil { // crash, no drain, no goodbye
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	if opts.Replicas == 1 {
		// The keys split by whether their single owner survived: the
		// survivors' keys all read, in one batch, without error; a batch
		// holding a lost key fails.
		var alive, dead []uint64
		for _, key := range keys {
			if lost(key) {
				dead = append(dead, key)
			} else {
				alive = append(alive, key)
			}
		}
		if len(alive) == 0 || len(dead) == 0 {
			t.Fatalf("degenerate ring: %d keys on survivors, %d on the victim", len(alive), len(dead))
		}
		if hits, err := read(alive); err != nil || hits != len(alive) {
			t.Errorf("keys of surviving owners: %d of %d hit, err %v", hits, len(alive), err)
		}
		if _, err := read(append(dead[:1:1], alive...)); err == nil {
			t.Error("a batch holding a key whose only owner is dead returned no error")
		}
		return
	}

	if n := liveMisses.Load(); n != 0 {
		t.Errorf("%d reads missed during the crash; surviving replicas should have served all of them", n)
	}
	if hits, err := read(keys); err != nil || hits != nkeys {
		t.Errorf("after the crash: %d of %d keys hit, err %v", hits, nkeys, err)
	}
	if rep := ctl.Snapshot().Replication; rep.FallbackHits == 0 {
		t.Error("no fallback hits counted; the crash should have exercised replica fallback")
	}

	// Retiring the dead member must not require contacting it.
	moved, dropped, err := ctl.RemoveNode(victim)
	if err != nil {
		t.Fatalf("RemoveNode on crashed member: %v", err)
	}
	if moved != 0 || dropped != 0 {
		t.Errorf("replicated RemoveNode migrated %d/%d keys; replicas make the drain unnecessary", moved, dropped)
	}
	if got := len(ctl.Nodes()); got != 2 {
		t.Fatalf("cluster has %d members after RemoveNode, want 2", got)
	}
	if hits, err := read(keys); err != nil || hits != nkeys {
		t.Errorf("after retiring the crashed member: %d of %d keys hit, err %v", hits, nkeys, err)
	}
}

// TestReplicatedKillNodeZeroLostReads is the availability acceptance test:
// one of 3 nodes killed (crashed, not retired) in the middle of live read
// traffic, at every point of the settings matrix. With R ≥ 2 no read may
// fail and no preloaded key may be lost — every key's surviving replica
// serves it — and RemoveNode then cleans the dead member out of the ring
// without contacting it; R = 1 is the same pipeline with nowhere to fall
// back to, so exactly the dead member's keys are unreadable.
func TestReplicatedKillNodeZeroLostReads(t *testing.T) {
	forEachSetting(t, func(t *testing.T, opts Options) { memberFault(t, opts, true) })
}

// TestWriteQuorum pins the W-of-R write contract: with one of 3 members
// dead, W=R writes fail on keys owned by the dead node while W=1 writes
// succeed everywhere (the surviving owner takes them).
func TestWriteQuorum(t *testing.T) {
	addrs := make([]string, 3)
	servers := make([]*server.Server, 3)
	for i := range addrs {
		addrs[i], servers[i] = startNodeWithServer(t, 4096, 16, uint64(i+1))
	}
	strict, err := Dial(addrs, Options{Replicas: 2}) // W defaults to R = 2
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	sloppy, err := Dial(addrs, Options{Replicas: 2, WriteQuorum: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sloppy.Close()

	if err := servers[2].Close(); err != nil {
		t.Fatal(err)
	}
	dead := addrs[2]

	// Pick a key the dead node owns.
	var key uint64
	found := false
	for k := uint64(1); k < 10_000; k++ {
		if contains(strict.Owners(k), dead) {
			key, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("no key owned by the dead node in 10k probes; ring is degenerate")
	}

	if err := strict.Set(key, []byte("v")); err == nil {
		t.Errorf("W=2 SET succeeded with an owner dead; want quorum failure")
	}
	if err := sloppy.Set(key, []byte("v")); err != nil {
		t.Errorf("W=1 SET failed with one owner surviving: %v", err)
	}
	if _, hit, err := sloppy.Get(key); err != nil || !hit {
		t.Errorf("read-back of quorum-1 write = hit=%v, %v", hit, err)
	}
}

// TestRepairCannotReinstateOldValue is the cluster-level acceptance for
// the v4 lost-update fix, exercising the organic repair pipeline end to
// end: a fallback hit observes the old value and queues a repair of it
// at the primary, a user SET of a new value races that queued repair,
// and whatever interleaving the queue produces, the new value must
// survive on every owner. The primary holds something newer either way
// (the direct DEL's tombstone, then the SET), so the router's repair is
// answered VERSION_STALE and must count in the router's RepairsStale,
// not RepairsApplied. A final deterministic replay — the old value at
// its observed version, delivered after the user SET, the exact
// interleaving that stored the old value under v3 — pins the rejection
// with the primary's StaleRepairs counter.
func TestRepairCannotReinstateOldValue(t *testing.T) {
	addrs := startCluster(t, 3, 4096, 16)
	ctl, err := Dial(addrs, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	const key = uint64(77)
	if err := ctl.Set(key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	owners := ctl.Owners(key)
	primary, backup := owners[0], owners[1]

	// Record the version the old value lives at on the backup — what any
	// fallback reader observes.
	backupCl, err := wire.Dial(backup)
	if err != nil {
		t.Fatal(err)
	}
	defer backupCl.Close()
	var verOld uint64
	if err := backupCl.GetBatchVersions([]uint64{key}, func(_ int, h bool, v uint64, _ []byte) {
		if h {
			verOld = v
		}
	}); err != nil {
		t.Fatal(err)
	}
	if verOld == 0 {
		t.Fatal("backup holds no versioned copy of the preloaded key")
	}

	// Delete at the primary alone, fallback-read through the router
	// (schedules a repair of the OLD value at the primary), then
	// immediately land a user SET of the NEW value.
	primaryCl, err := wire.Dial(primary)
	if err != nil {
		t.Fatal(err)
	}
	defer primaryCl.Close()
	if present, _, err := primaryCl.Del(key); err != nil || !present {
		t.Fatalf("direct DEL on primary = %v, %v", present, err)
	}
	if v, hit, err := ctl.Get(key); err != nil || !hit || string(v) != "old" {
		t.Fatalf("fallback read = %q, %v, %v", v, hit, err)
	}
	if err := ctl.Set(key, []byte("new")); err != nil {
		t.Fatal(err)
	}

	// Drain the router's repair queue: every scheduled repair has been
	// answered (or shed).
	deadline := time.Now().Add(5 * time.Second)
	var rep ReplicationCounters
	for {
		rep = ctl.Snapshot().Replication
		if rep.RepairsScheduled > 0 &&
			rep.RepairsScheduled == rep.RepairsApplied+rep.RepairsStale+rep.RepairsDropped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("repair queue did not drain: %+v", rep)
		}
		time.Sleep(time.Millisecond)
	}
	if rep.RepairsStale != 1 || rep.RepairsApplied != 0 {
		t.Errorf("router counted the rejected repair as %+v, want RepairsStale=1 RepairsApplied=0", rep)
	}

	// However the queued repair interleaved with the user SET, the newer
	// value survives everywhere.
	for _, o := range owners {
		cl, err := wire.Dial(o)
		if err != nil {
			t.Fatal(err)
		}
		v, hit, err := cl.Get(key)
		cl.Close()
		if err != nil || !hit || string(v) != "new" {
			t.Fatalf("owner %s holds %q (hit %v, %v); the old value was reinstated", o, v, hit, err)
		}
	}

	// The deterministic replay: deliver the old value at its observed
	// version AFTER the user SET — v3 semantics stored it; v4 must reject
	// it and count the win.
	before, err := primaryCl.Stats(false)
	if err != nil {
		t.Fatal(err)
	}
	if applied, _, err := primaryCl.Put(wire.Request{Key: key, Version: verOld, Value: []byte("old")}); err != nil || applied {
		t.Fatalf("replayed stale repair: applied=%v, err=%v; want VERSION_STALE", applied, err)
	}
	st, err := primaryCl.Stats(false)
	if err != nil {
		t.Fatal(err)
	}
	if st.StaleRepairs != before.StaleRepairs+1 {
		t.Fatalf("replayed stale repair not counted: StaleRepairs %d → %d", before.StaleRepairs, st.StaleRepairs)
	}
	if v, hit, err := ctl.Get(key); err != nil || !hit || string(v) != "new" {
		t.Fatalf("final read = %q, %v, %v; want the user SET to survive the delayed repair", v, hit, err)
	}
}
