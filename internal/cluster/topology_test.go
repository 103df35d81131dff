package cluster

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestSeedConvergenceSmoke is the CI convergence smoke: three nodes are
// started from one seed the way cmd/cached does it — the first node seeds
// its own one-member topology, each later node Joins through the first —
// and afterwards every member must report the identical member list and
// epoch.
func TestSeedConvergenceSmoke(t *testing.T) {
	addrs := make([]string, 3)
	addr0, srv0 := startNodeWithServer(t, 1024, 16, 1)
	addrs[0] = addr0
	srv0.OfferTopology(wire.Topology{Epoch: 0, Members: []string{addr0}})
	for i := 1; i < 3; i++ {
		addrs[i], _ = startNodeWithServer(t, 1024, 16, uint64(i+1))
		if _, _, err := Join(addrs[0], addrs[i], nil); err != nil {
			t.Fatalf("Join(%s, %s): %v", addrs[0], addrs[i], err)
		}
	}

	var views []wire.Topology
	for _, a := range addrs {
		cl, err := wire.Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := cl.Topology(wire.Topology{})
		cl.Close()
		if err != nil {
			t.Fatalf("TOPOLOGY %s: %v", a, err)
		}
		views = append(views, tp)
	}
	want := views[0]
	if want.Epoch != 2 {
		t.Errorf("epoch after two joins = %d, want 2", want.Epoch)
	}
	if len(want.Members) != 3 || !sameMembers(want.Members, addrs) {
		t.Fatalf("converged members = %v, want %v", want.Members, addrs)
	}
	for i, v := range views[1:] {
		if v.Epoch != want.Epoch || !sameMembers(v.Members, want.Members) {
			t.Errorf("member %d view = %+v, member 0 view = %+v; epochs/members must agree", i+1, v, want)
		}
	}

	// The payoff: a router bootstrapped from any single member sees the
	// whole cluster.
	ctl, err := Dial([]string{addrs[2]}, Options{Bootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if got := ctl.Nodes(); !sameMembers(got, addrs) {
		t.Fatalf("bootstrap from %s routed to %v, want all of %v", addrs[2], got, addrs)
	}
	if ctl.Snapshot().Epoch != want.Epoch {
		t.Errorf("bootstrap epoch = %d, want %d", ctl.Snapshot().Epoch, want.Epoch)
	}
}

// TestSubsetDialDoesNotRewriteMembership: pointing a plain (non-bootstrap)
// router at a subset of an established cluster must route to that subset
// only — it must NOT push the subset as the cluster's topology and evict
// the unlisted members from everyone else's view.
func TestSubsetDialDoesNotRewriteMembership(t *testing.T) {
	addrs := startCluster(t, 3, 1024, 16)
	full, err := Dial(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	epoch := full.Snapshot().Epoch

	sub, err := Dial(addrs[:2], Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if got := sub.Nodes(); !sameMembers(got, addrs[:2]) {
		t.Fatalf("subset router routes to %v, want its asserted %v", got, addrs[:2])
	}
	for _, a := range addrs {
		cl, err := wire.Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := cl.Topology(wire.Topology{})
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if tp.Epoch != epoch || !sameMembers(tp.Members, addrs) {
			t.Errorf("member %s holds %+v after a subset Dial; want the full view at epoch %d kept", a, tp, epoch)
		}
	}
	// The full router must not have been destabilized either.
	if err := full.Set(1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if full.Snapshot().Epoch != epoch || !sameMembers(full.Nodes(), addrs) {
		t.Errorf("full router at %v epoch %d; the subset Dial must not have moved it", full.Nodes(), full.Snapshot().Epoch)
	}
}

// TestJoinRetriesLostRace: a Join whose push loses an equal-epoch race
// (another join landed between its TOPOLOGY read and its push) must detect
// the loss from the push response — the held view lacks self — and retry
// on top of the winner's view instead of reporting success while orphaned.
func TestJoinRetriesLostRace(t *testing.T) {
	seedAddr, seedSrv := startNodeWithServer(t, 1024, 16, 1)
	seedSrv.OfferTopology(wire.Topology{Epoch: 0, Members: []string{seedAddr}})
	selfAddr, _ := startNodeWithServer(t, 1024, 16, 2)

	// The dial hook injects a rival join's push exactly between this
	// join's TOPOLOGY read (first seed dial) and its own push (second
	// seed dial) — the same-epoch tie piggybacking can never surface.
	rival := wire.Topology{Epoch: 1, Members: []string{seedAddr, "phantom:1"}}
	seedDials := 0
	dial := func(addr string) (*wire.Client, error) {
		if addr == seedAddr {
			seedDials++
			if seedDials == 2 {
				cl, err := wire.Dial(seedAddr)
				if err != nil {
					return nil, err
				}
				if _, err := cl.Topology(rival); err != nil {
					return nil, err
				}
				cl.Close()
			}
		}
		return wire.Dial(addr)
	}

	got, _, err := Join(seedAddr, selfAddr, dial)
	if err != nil {
		t.Fatalf("Join after a lost race: %v", err)
	}
	if !contains(got.Members, selfAddr) {
		t.Fatalf("joined view %v lacks self %s", got.Members, selfAddr)
	}
	if !contains(got.Members, "phantom:1") {
		t.Fatalf("joined view %v dropped the race winner's member; retry must build on the winning view", got.Members)
	}
	if got.Epoch != 2 {
		t.Errorf("joined epoch = %d, want 2 (rival's 1, escalated once)", got.Epoch)
	}
	cl, err := wire.Dial(seedAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	held, err := cl.Topology(wire.Topology{})
	if err != nil {
		t.Fatal(err)
	}
	if held.Epoch != got.Epoch || !sameMembers(held.Members, got.Members) {
		t.Errorf("seed holds %+v, joiner returned %+v; they must agree", held, got)
	}
}

// TestBootstrapToleratesCrashedMember: a crashed member must not block new
// routers from bootstrapping — discovered members are dialed lazily, and
// with R > 1 the dead node's keys are served by fallback anyway.
func TestBootstrapToleratesCrashedMember(t *testing.T) {
	addrs := make([]string, 3)
	servers := make([]*server.Server, 3)
	for i := range addrs {
		addrs[i], servers[i] = startNodeWithServer(t, 4096, 16, uint64(i+1))
	}
	seeder, err := Dial(addrs, Options{Replicas: 2, WriteQuorum: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()
	if err := seeder.Set(1, []byte("v")); err != nil {
		t.Fatal(err)
	}

	if err := servers[2].Close(); err != nil {
		t.Fatal(err)
	}
	late, err := Dial(addrs[:1], Options{Bootstrap: true, Replicas: 2, WriteQuorum: 1})
	if err != nil {
		t.Fatalf("bootstrap with a crashed member failed: %v", err)
	}
	defer late.Close()
	if got := late.Nodes(); !sameMembers(got, addrs) {
		t.Fatalf("bootstrapped view = %v, want the full membership %v (dead member included)", got, addrs)
	}
	if v, hit, err := late.Get(1); err != nil || !hit || string(v) != "v" {
		t.Fatalf("read through the degraded cluster = %q, hit=%v, %v", v, hit, err)
	}
}

// TestBootstrapSkipsDeadFreshSeed: when every reachable seed is fresh, the
// founding membership is the reachable seeds only — an unreachable seed
// must not be enrolled as a ring owner.
func TestBootstrapSkipsDeadFreshSeed(t *testing.T) {
	live := startNode(t, 1024, 16, 1)
	dead := "127.0.0.1:1" // reserved port; dial fails immediately
	ctl, err := Dial([]string{dead, live}, Options{Bootstrap: true})
	if err != nil {
		t.Fatalf("bootstrap with one dead fresh seed failed: %v", err)
	}
	defer ctl.Close()
	if got := ctl.Nodes(); len(got) != 1 || got[0] != live {
		t.Fatalf("founding members = %v, want only the reachable seed %v", got, live)
	}
	if err := ctl.Set(1, []byte("v")); err != nil {
		t.Fatalf("write through the founded cluster: %v", err)
	}
}

// TestAddNodeAfterCloseRefused: membership changes on a closed client must
// be refused rather than mutate a torn-down ring or spawn a warm-up that
// outlives Close.
func TestAddNodeAfterCloseRefused(t *testing.T) {
	addrs := startCluster(t, 2, 1024, 16)
	ctl, err := Dial(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.AddNode(startNode(t, 1024, 16, 9)); err == nil {
		t.Fatal("AddNode on a closed client succeeded")
	}
}

// TestPushTieEscalates pins the same-epoch conflict path that piggybacked
// epochs alone can never surface: a member already holding a *different*
// view at the epoch the router is pushing forces the router to escalate
// past the tie, so both sides of a racing membership change converge on a
// strictly newest view instead of diverging forever.
func TestPushTieEscalates(t *testing.T) {
	addrs := startCluster(t, 2, 1024, 16)
	ctl, err := Dial(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	base := ctl.Snapshot().Epoch

	// A rival router's partial push: member 0 now holds epoch base+1 with
	// a phantom member this router will never list.
	direct, err := wire.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	rival := append(append([]string(nil), addrs...), "phantom:1")
	if _, err := direct.Topology(wire.Topology{Epoch: base + 1, Members: rival}); err != nil {
		t.Fatal(err)
	}
	direct.Close()

	// AddNode bumps to base+1 and pushes — ties with the rival on member 0,
	// must escalate above it, and every member must end on the escalated
	// view.
	newAddr := startNode(t, 1024, 16, 5)
	if _, err := ctl.AddNode(newAddr); err != nil {
		t.Fatal(err)
	}
	want := append(append([]string(nil), addrs...), newAddr)
	if got := ctl.Snapshot().Epoch; got <= base+1 {
		t.Errorf("router epoch = %d after a tie at %d; want escalation above it", got, base+1)
	}
	for _, a := range want {
		cl, err := wire.Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := cl.Topology(wire.Topology{})
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if tp.Epoch != ctl.Snapshot().Epoch || !sameMembers(tp.Members, want) {
			t.Errorf("member %s holds %+v, want epoch %d members %v", a, tp, ctl.Snapshot().Epoch, want)
		}
	}
}

// TestPushLosesToNewerView pins the other race arm: a member reporting a
// strictly newer topology during a push means this router already lost —
// it must adopt that view (last-writer-wins) rather than keep routing on a
// view the cluster has moved past.
func TestPushLosesToNewerView(t *testing.T) {
	addrs := startCluster(t, 2, 1024, 16)
	ctl, err := Dial(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	base := ctl.Snapshot().Epoch

	// The cluster has moved two epochs ahead of this router behind its back.
	direct, err := wire.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.Topology(wire.Topology{Epoch: base + 2, Members: addrs}); err != nil {
		t.Fatal(err)
	}
	direct.Close()

	// AddNode pushes base+1, hears base+2, and must adopt it — the added
	// member is dropped again (documented last-writer-wins).
	newAddr := startNode(t, 1024, 16, 6)
	if _, err := ctl.AddNode(newAddr); err != nil {
		t.Fatal(err)
	}
	if got := ctl.Snapshot().Epoch; got != base+2 {
		t.Errorf("router epoch = %d, want the newer view's %d adopted", got, base+2)
	}
	if got := ctl.Nodes(); !sameMembers(got, addrs) {
		t.Errorf("router members = %v, want the newer view %v (the lost AddNode undone)", got, addrs)
	}
}

// TestCloseInterruptsWarmup: Close on a client with an in-flight warm-up
// must interrupt it and not return until the warm-up goroutine exited —
// no stray PUTs or leaked connections after Close.
func TestCloseInterruptsWarmup(t *testing.T) {
	const nkeys = 3000
	addr0, srv0 := startNodeWithServer(t, 8192, 64, 1)
	addr1, srv1 := startNodeWithServer(t, 8192, 64, 2)
	// Tiny chunks stretch the stream so Close reliably lands mid-warm-up.
	srv0.SetKeysChunk(16)
	srv1.SetKeysChunk(16)
	ctl, err := Dial([]string{addr0, addr1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, nkeys)
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	if err := ctl.SetBatch(keys, func(i int) []byte { return load.Payload(keys[i], 32) }); err != nil {
		t.Fatal(err)
	}

	newAddr := startNode(t, 8192, 64, 3)
	w, err := ctl.AddNode(newAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	// Close already waited for the goroutine; Wait must return immediately
	// rather than hang on an orphaned warm-up.
	done := make(chan WarmupStats, 1)
	go func() { done <- w.Wait() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Warmup.Wait hung after Close; the warm-up goroutine leaked")
	}
}

// TestBootstrapRouterConverges is the e2e acceptance for self-converging
// membership: a router bootstrapped from a single seed follows
// AddNode/RemoveNode performed by a *different* router, with no manual
// ring edits — staleness is detected via the epochs piggybacked on its
// own traffic and healed by a TOPOLOGY refresh.
func TestBootstrapRouterConverges(t *testing.T) {
	addrs := startCluster(t, 3, 4096, 16)
	admin, err := Dial(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	follower, err := Dial(addrs[:1], Options{Bootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if got := follower.Nodes(); !sameMembers(got, addrs) {
		t.Fatalf("bootstrapped router sees %v, want %v", got, addrs)
	}

	// converge drives traffic through the follower until its view matches
	// want (or times out): each batch piggybacks the servers' epoch, and
	// the next operation refreshes.
	converge := func(want []string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
		for !sameMembers(follower.Nodes(), want) {
			if time.Now().After(deadline) {
				t.Fatalf("follower stuck at %v (epoch %d), want %v", follower.Nodes(), follower.Snapshot().Epoch, want)
			}
			if err := follower.GetBatch(keys, func(int, bool, []byte) {}); err != nil {
				t.Fatal(err)
			}
		}
	}

	newAddr := startNode(t, 4096, 16, 9)
	if _, err := admin.AddNode(newAddr); err != nil {
		t.Fatal(err)
	}
	converge(append(append([]string(nil), addrs...), newAddr))
	if follower.Snapshot().Epoch != admin.Snapshot().Epoch {
		t.Errorf("epochs diverge after AddNode: follower %d, admin %d", follower.Snapshot().Epoch, admin.Snapshot().Epoch)
	}
	if follower.Snapshot().Refreshes == 0 {
		t.Error("follower converged without a counted topology refresh")
	}

	if _, _, err := admin.RemoveNode(newAddr); err != nil {
		t.Fatal(err)
	}
	converge(addrs)
	if follower.Snapshot().Epoch != admin.Snapshot().Epoch {
		t.Errorf("epochs diverge after RemoveNode: follower %d, admin %d", follower.Snapshot().Epoch, admin.Snapshot().Epoch)
	}
}

// TestWarmupKillsFallbacks is the warm-up acceptance: after AddNode's
// background warm-up completes, a full sweep of the preloaded keyspace
// reads entirely from primaries — no misses and ≈ 0 replica fallbacks —
// because the newcomer's share was streamed into it proactively.
func TestWarmupKillsFallbacks(t *testing.T) {
	const nkeys = 1500
	// α = 64 keeps bucket overflow out of the picture, so any post-join
	// miss would be attributable to a warm-up gap rather than an eviction.
	addrs := startCluster(t, 3, 8192, 64)
	ctl, err := Dial(addrs, Options{Replicas: 2, WriteQuorum: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	keys := make([]uint64, nkeys)
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	if err := ctl.SetBatch(keys, func(i int) []byte { return load.Payload(keys[i], 32) }); err != nil {
		t.Fatal(err)
	}

	newAddr := startNode(t, 8192, 64, 7)
	w, err := ctl.AddNode(newAddr)
	if err != nil {
		t.Fatal(err)
	}
	ws := w.Wait()
	if ws.Err != nil || ws.Failed != 0 {
		t.Fatalf("warm-up failed: %+v", ws)
	}
	if ws.Copied == 0 {
		t.Fatal("warm-up copied nothing; the newcomer owns ~2/4 of replica slots and must receive its share")
	}
	if ws.Streamed < nkeys {
		t.Errorf("warm-up streamed %d keys across sources, want ≥ %d (every source enumerated)", ws.Streamed, nkeys)
	}

	// The newcomer must physically hold its share.
	stats, err := statsAll(ctl)
	if err != nil {
		t.Fatal(err)
	}
	if st := stats[newAddr]; st == nil || st.Len == 0 {
		t.Fatalf("newcomer %s holds no keys after warm-up", newAddr)
	}

	rep0 := ctl.Snapshot().Replication
	misses := 0
	if err := ctl.GetBatch(keys, func(_ int, hit bool, _ []byte) {
		if !hit {
			misses++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if misses != 0 {
		t.Errorf("%d misses sweeping %d keys after warm-up; want 0", misses, nkeys)
	}
	if fb := ctl.Snapshot().Replication.FallbackHits - rep0.FallbackHits; fb != 0 {
		t.Errorf("%d fallback reads in the post-warm-up sweep; warm-up should have filled every new primary", fb)
	}
}

// TestWarmupWritesShareOnce pins what a warm-up writes: every key whose
// post-join owner set includes the newcomer reaches it exactly once — the
// newest record any member holds — not once per old owner. Owners stamp
// their own versions, so a per-owner copy would land twice.
func TestWarmupWritesShareOnce(t *testing.T) {
	const nkeys = 1500
	addrs := startCluster(t, 3, 8192, 64)
	ctl, err := Dial(addrs, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	keys := preload(t, ctl, nkeys)

	newAddr := startNode(t, 8192, 64, 7)
	w, err := ctl.AddNode(newAddr)
	if err != nil {
		t.Fatal(err)
	}
	ws := w.Wait()
	if ws.Err != nil || ws.Failed != 0 {
		t.Fatalf("warm-up failed: %+v", ws)
	}
	share := 0
	for _, k := range keys {
		if contains(ctl.Owners(k), newAddr) {
			share++
		}
	}
	if share == 0 {
		t.Fatal("the newcomer owns none of the keys; the ring is degenerate")
	}
	if got := ws.Copied + ws.Stale + ws.Vanished; got != share {
		t.Errorf("warm-up wrote %d records (copied %d, stale %d, vanished %d) for a %d-key share; want each share key once",
			got, ws.Copied, ws.Stale, ws.Vanished, share)
	}
}

// TestCloseInterruptsDrain: Close during an R = 1 drain cuts the drain's
// dedicated connections, so RemoveNode fails and keeps both members and
// the epoch, and Close still leaves no connection open. The dial hook
// starts Close when the drain dials its destination, after the departing
// member's KEYS stream was read, and lets that dial finish only once
// Close is under way.
func TestCloseInterruptsDrain(t *testing.T) {
	addr0, _ := startNodeWithServer(t, 4096, 16, 1)
	addr1, _ := startNodeWithServer(t, 4096, 16, 2)
	baseline := runtime.NumGoroutine()

	var ctl *Client
	var armed atomic.Bool
	closed := make(chan error, 1)
	dial := func(addr string) (*wire.Client, error) {
		if addr == addr1 && armed.CompareAndSwap(true, false) {
			go func() { closed <- ctl.Close() }()
			for !ctl.closed.Load() {
				runtime.Gosched()
			}
		}
		return wire.Dial(addr)
	}
	ctl, err := Dial([]string{addr0, addr1}, Options{Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	preload(t, ctl, 500)
	epoch := ctl.Snapshot().Epoch

	armed.Store(true)
	if _, _, err := ctl.RemoveNode(addr0); err == nil {
		t.Fatal("RemoveNode succeeded although Close cut its drain")
	}
	if got := ctl.Nodes(); !sameMembers(got, []string{addr0, addr1}) {
		t.Errorf("membership = %v after an interrupted drain, want both members kept", got)
	}
	if got := ctl.Snapshot().Epoch; got != epoch {
		t.Errorf("epoch moved from %d to %d on an interrupted drain", epoch, got)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Close, %d before Dial\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestCopyRecs pins the one bulk maintenance primitive directly, over two
// in-process servers: live records copy with their versions, tombstones
// copy without a value read, a destination holding a newer version
// reports stale and keeps its value, and a record evicted from the source
// between listing and read counts as vanished.
func TestCopyRecs(t *testing.T) {
	srcCache, err := concurrent.New(concurrent.Config{Capacity: 1024, Alpha: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srcSrv := server.New(srcCache)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srcSrv.Serve(ln)
	t.Cleanup(func() { srcSrv.Close() })
	src, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := wire.Dial(startNode(t, 1024, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	const live, contested, deleted, evicted = uint64(1), uint64(2), uint64(3), uint64(4)
	set := func(cl *wire.Client, key uint64, val string) {
		t.Helper()
		if _, err := cl.Set(key, []byte(val)); err != nil {
			t.Fatal(err)
		}
	}
	// Versions are assigned from the wall clock, so the order of these
	// writes is the order of their versions: dst's copy of the deleted key
	// predates the source's delete, its copy of the contested key postdates
	// the source's.
	set(dst, deleted, "dst-older-than-the-delete")
	for _, key := range []uint64{live, contested, deleted, evicted} {
		set(src, key, fmt.Sprintf("src-%d", key))
	}
	if _, _, err := src.Del(deleted); err != nil {
		t.Fatal(err)
	}
	set(dst, contested, "dst-newer")

	recs, err := src.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("source lists %d records, want 4 (three live, one tombstone)", len(recs))
	}
	listed := make(map[uint64]wire.KeyRec, len(recs))
	for _, rec := range recs {
		listed[rec.Key] = rec
	}
	if !listed[deleted].Tombstone {
		t.Fatalf("record of the deleted key is not a tombstone: %+v", listed[deleted])
	}
	srcCache.Delete(evicted) // gone between listing and read, no tombstone left

	before, err := src.Stats(false)
	if err != nil {
		t.Fatal(err)
	}
	applied, stale, vanished, err := copyRecs(src, dst, recs)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 || stale != 1 || vanished != 1 {
		t.Errorf("copyRecs = applied %d, stale %d, vanished %d; want 2 (live + tombstone), 1 (contested), 1 (evicted)", applied, stale, vanished)
	}
	after, err := src.Stats(false)
	if err != nil {
		t.Fatal(err)
	}
	if reads := (after.Hits + after.Misses) - (before.Hits + before.Misses); reads != 3 {
		t.Errorf("copyRecs read %d values from the source, want 3: a tombstone is copied from its record", reads)
	}

	got := make(map[uint64]string)
	vers := make(map[uint64]uint64)
	probe := []uint64{live, contested, deleted, evicted}
	if err := dst.GetBatchVersions(probe, func(i int, hit bool, ver uint64, val []byte) {
		if hit {
			got[probe[i]], vers[probe[i]] = string(val), ver
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got[live] != "src-1" || vers[live] != listed[live].Version {
		t.Errorf("live record arrived as %q at version %d, want %q at the source's version %d", got[live], vers[live], "src-1", listed[live].Version)
	}
	if got[contested] != "dst-newer" {
		t.Errorf("destination's newer value was replaced by %q", got[contested])
	}
	if v, ok := got[deleted]; ok {
		t.Errorf("deleted key still serves %q on the destination; the tombstone did not land", v)
	}
	if v, ok := got[evicted]; ok {
		t.Errorf("vanished key was copied as %q", v)
	}
	dstRecs, err := dst.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range dstRecs {
		if rec.Key == deleted && (!rec.Tombstone || rec.Version != listed[deleted].Version) {
			t.Errorf("destination holds %+v for the deleted key, want the source's tombstone %+v", rec, listed[deleted])
		}
	}
}

// TestMigrationStreamsMultipleChunks pins the chunked-KEYS migration
// contract: retiring a node whose resident set spans many stream chunks
// moves or accounts for every key.
func TestMigrationStreamsMultipleChunks(t *testing.T) {
	const nkeys = 2000
	addr0, srv0 := startNodeWithServer(t, 8192, 64, 1)
	addr1, srv1 := startNodeWithServer(t, 8192, 64, 2)
	// 64 keys per KEYS frame: the victim's residents (≈ nkeys/2) stream in
	// well over a dozen frames.
	srv0.SetKeysChunk(64)
	srv1.SetKeysChunk(64)
	addrs := []string{addr0, addr1}

	ctl, err := Dial(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	keys := make([]uint64, nkeys)
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	if err := ctl.SetBatch(keys, func(i int) []byte { return load.Payload(keys[i], 32) }); err != nil {
		t.Fatal(err)
	}

	before, err := statsAll(ctl)
	if err != nil {
		t.Fatal(err)
	}
	residents := int(before[addr0].Len)
	if residents <= 64 {
		t.Fatalf("victim holds %d keys; need more than one 64-key chunk for this test to mean anything", residents)
	}

	moved, dropped, err := ctl.RemoveNode(addr0)
	if err != nil {
		t.Fatal(err)
	}
	if moved+dropped != residents {
		t.Errorf("migration accounted for %d+%d keys, victim held %d", moved, dropped, residents)
	}

	present := 0
	if err := ctl.GetBatch(keys, func(_ int, hit bool, v []byte) {
		if hit {
			present++
		}
	}); err != nil {
		t.Fatal(err)
	}
	after, err := statsAll(ctl)
	if err != nil {
		t.Fatal(err)
	}
	accounted := dropped + int(after[addr1].Evictions-before[addr1].Evictions)
	if absent := nkeys - present; absent > accounted {
		t.Errorf("%d keys lost but only %d accounted for (moved=%d dropped=%d)", absent, accounted, moved, dropped)
	}
}

// TestRemoveNodeCrashedMemberR1 pins the unreplicated error path: a
// crashed member cannot be drained, so RemoveNode must fail cleanly and
// leave the membership (and ring) unchanged rather than orphan the
// victim's residents.
func TestRemoveNodeCrashedMemberR1(t *testing.T) {
	addr0, srv0 := startNodeWithServer(t, 1024, 16, 1)
	addr1, _ := startNodeWithServer(t, 1024, 16, 2)
	ctl, err := Dial([]string{addr0, addr1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	epoch := ctl.Snapshot().Epoch
	if err := srv0.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ctl.RemoveNode(addr0); err == nil {
		t.Fatal("RemoveNode on a crashed member at R=1 succeeded; the drain is impossible and must error")
	}
	if got := ctl.Nodes(); len(got) != 2 {
		t.Fatalf("membership = %v after failed RemoveNode, want both members kept", got)
	}
	if ctl.Snapshot().Epoch != epoch {
		t.Errorf("epoch moved from %d to %d on a failed RemoveNode", epoch, ctl.Snapshot().Epoch)
	}
}

// TestRefreshNotBlockedByDeadMember pins the refresh-outside-the-lock fix:
// a topology refresh that is stuck dialing a black-holed member must not
// stall routing for every other caller. One goroutine's batch triggers the
// refresh and blocks on the dead dial; concurrent batches on live members
// must complete within a tight bound (under the old exclusive-lock refresh
// they queued behind the dead dial on c.mu), and once the dial fails the
// refresh completes and the router converges on the pushed epoch.
func TestRefreshNotBlockedByDeadMember(t *testing.T) {
	addr0, _ := startNodeWithServer(t, 1024, 16, 1)
	addr1, _ := startNodeWithServer(t, 1024, 16, 2)
	addr2, srv2 := startNodeWithServer(t, 1024, 16, 3)
	addrs := []string{addr0, addr1, addr2}

	var blackhole atomic.Bool
	gate := make(chan struct{})
	dial := func(addr string) (*wire.Client, error) {
		if addr == addr2 && blackhole.Load() {
			<-gate // a SYN into the void: nothing answers until the timeout
			return nil, fmt.Errorf("dial %s: black-holed", addr)
		}
		return wire.Dial(addr)
	}
	ctl, err := Dial(addrs, Options{Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	base := ctl.Snapshot().Epoch

	// Keys primarily owned by the members that stay alive, plus at least
	// one on node 0 so traffic piggybacks the epoch bump below.
	var liveKeys []uint64
	var on0 bool
	for k := uint64(1); k < 100_000 && (len(liveKeys) < 8 || !on0); k++ {
		owner := ctl.Owners(k)[0]
		if owner == addr2 {
			continue
		}
		liveKeys = append(liveKeys, k)
		on0 = on0 || owner == addr0
	}
	if !on0 || len(liveKeys) < 8 {
		t.Fatal("could not find live-owned keys; ring is degenerate")
	}

	// Crash member 2 and black-hole its address, then move the cluster's
	// epoch forward behind the router's back.
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	blackhole.Store(true)
	direct, err := wire.Dial(addr0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.Topology(wire.Topology{Epoch: base + 1, Members: addrs}); err != nil {
		t.Fatal(err)
	}
	direct.Close()

	// First batch observes the newer epoch; the next one triggers the
	// refresh and parks on the black-holed dial.
	if err := ctl.GetBatch(liveKeys, func(int, bool, []byte) {}); err != nil {
		t.Fatal(err)
	}
	stuck := make(chan error, 1)
	go func() { stuck <- ctl.GetBatch(liveKeys, func(int, bool, []byte) {}) }()

	// Give the refresh a moment to reach the dead member, then demand that
	// other traffic still flows. 5s is the timeout bound: far above a
	// healthy batch, far below a kernel connect cycle — and the old code
	// held c.mu across the dial, so these batches would sit here until the
	// gate opened.
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 5; i++ {
		done := make(chan error, 1)
		go func() { done <- ctl.GetBatch(liveKeys, func(int, bool, []byte) {}) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("batch %d during stuck refresh: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("routing stalled behind a refresh stuck on a dead member")
		}
	}

	// Release the dead dial; the refresh fails over, adopts the pushed
	// view and the stuck caller comes back.
	close(gate)
	select {
	case err := <-stuck:
		if err != nil {
			t.Fatalf("the refresh-triggering batch failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the refresh-triggering batch never returned after the dial failed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for ctl.Snapshot().Epoch != base+1 {
		if time.Now().After(deadline) {
			t.Fatalf("router epoch = %d, want %d adopted after the refresh", ctl.Snapshot().Epoch, base+1)
		}
		if err := ctl.GetBatch(liveKeys, func(int, bool, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	if ctl.Snapshot().Refreshes == 0 {
		t.Error("no refresh counted despite the adopted epoch")
	}
}

// TestJoinSkipsDeadMember pins the join fault tolerance: a dead non-seed
// member must not abort a join — it is skipped, reported in the skipped
// list, and kept in the topology (it may only be temporarily down).
func TestJoinSkipsDeadMember(t *testing.T) {
	addr0, srv0 := startNodeWithServer(t, 1024, 16, 1)
	srv0.OfferTopology(wire.Topology{Epoch: 0, Members: []string{addr0}})
	addr1, _ := startNodeWithServer(t, 1024, 16, 2)
	if _, skipped, err := Join(addr0, addr1, nil); err != nil || len(skipped) != 0 {
		t.Fatalf("healthy join = skipped %v, err %v", skipped, err)
	}
	addr2, srv2 := startNodeWithServer(t, 1024, 16, 3)
	if _, _, err := Join(addr0, addr2, nil); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Close(); err != nil { // dies without leaving
		t.Fatal(err)
	}

	addr3, _ := startNodeWithServer(t, 1024, 16, 4)
	top, skipped, err := Join(addr0, addr3, nil)
	if err != nil {
		t.Fatalf("join with a dead non-seed member aborted: %v", err)
	}
	if len(skipped) != 1 || skipped[0] != addr2 {
		t.Errorf("skipped = %v, want exactly the dead member %s", skipped, addr2)
	}
	if !contains(top.Members, addr3) || !contains(top.Members, addr2) {
		t.Errorf("joined view %v must contain self %s and keep the (possibly only briefly) dead %s", top.Members, addr3, addr2)
	}
	// The reachable members hold the new view.
	for _, a := range []string{addr0, addr1, addr3} {
		cl, err := wire.Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		held, err := cl.Topology(wire.Topology{})
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if held.Epoch != top.Epoch || !sameMembers(held.Members, top.Members) {
			t.Errorf("member %s holds %+v, want %+v", a, held, top)
		}
	}
}
