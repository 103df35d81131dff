package cluster

import (
	"fmt"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestNearCacheInvalidatedByAntiEntropyTombstone is the satellite
// regression for the stale-near-cache window: router A near-caches a key,
// router B deletes it behind A's back, and until something tells A about
// the delete its near-cache keeps serving the value. The anti-entropy
// sweep is that something — a winning tombstone invalidates the local
// edge, version-checked so a genuinely newer value is left alone.
func TestNearCacheInvalidatedByAntiEntropyTombstone(t *testing.T) {
	addrs := startCluster(t, 3, 4096, 16)
	// TTL far beyond the test: the stale window must not close by expiry.
	a, err := Dial(addrs, Options{Replicas: 2, NearCache: NearCacheOptions{Slots: 64, TTL: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addrs, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const key = uint64(777)
	if err := a.Set(key, []byte("stale-soon")); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := a.Get(key); err != nil || !hit {
		t.Fatalf("warm GET: hit=%v err=%v", hit, err)
	}

	if present, err := b.Del(key); err != nil || !present {
		t.Fatalf("remote DEL: present=%v err=%v", present, err)
	}

	// The hazard, pinned: A heard nothing about B's delete, so its
	// near-cache still serves the dead value. (This is the documented
	// near-cache staleness window, not a bug — the point of the test is
	// that the sweep closes it.)
	if v, hit, err := a.Get(key); err != nil || !hit || string(v) != "stale-soon" {
		t.Fatalf("pre-sweep GET = %q hit=%v err=%v; want the stale near-cache serve", v, hit, err)
	}

	if _, err := a.AntiEntropySweep(); err != nil {
		t.Fatal(err)
	}
	if v, hit, err := a.Get(key); err != nil || hit {
		t.Fatalf("post-sweep GET = %q hit=%v err=%v; want miss — the tombstone must purge the near-cache", v, hit, err)
	}
}

// TestDelRacesWarmup runs DELs through the router while AddNode warms a
// newcomer up with the same key range, then sweeps. However the delete
// interleaves with the warm-up stream — tombstone copied by warm-up,
// tombstone landing after the chunk, old value in flight while the owner
// set changes — the delete must win: every deleted key reads as a miss,
// and any record the newcomer still holds for one is a tombstone.
// Run under -race this also exercises the locking between the membership
// change and concurrent client traffic.
func TestDelRacesWarmup(t *testing.T) {
	addrs := startCluster(t, 2, 4096, 16)
	newcomer := startNode(t, 4096, 16, 99)
	c, err := Dial(addrs, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const total, doomed = 200, 60
	for k := uint64(1); k <= total; k++ {
		if err := c.Set(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		for k := uint64(1); k <= doomed; k++ {
			if _, err := c.Del(k); err != nil {
				errCh <- err
				return
			}
		}
	}()
	if _, err := c.AddNode(newcomer); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// The sweep reconciles whatever the interleaving left behind (e.g. a
	// DEL that hit the old owners after the warm-up stream was snapshot).
	if _, err := c.AntiEntropySweep(); err != nil {
		t.Fatal(err)
	}

	for k := uint64(1); k <= total; k++ {
		v, hit, err := c.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if k <= doomed {
			if hit {
				t.Fatalf("deleted key %d resurrected as %q", k, v)
			}
		} else if !hit || string(v) != fmt.Sprintf("v%d", k) {
			t.Fatalf("surviving key %d = %q hit=%v", k, v, hit)
		}
	}

	// Whatever the newcomer holds for a deleted key must be the delete,
	// never the value it raced against.
	nc, err := wire.Dial(newcomer)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	recs, err := nc.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Key <= doomed && !rec.Tombstone {
			t.Errorf("newcomer holds a live copy of deleted key %d", rec.Key)
		}
	}
}

// TestCrashWriteRejoinHintReplay is the churn e2e: a member crashes, the
// cluster keeps taking writes and deletes at W=1, the member rejoins
// empty, and hinted handoff replays what it missed — zero lost writes,
// zero resurrected deletes, no operator action.
func TestCrashWriteRejoinHintReplay(t *testing.T) {
	// Nodes built inline: the victim must be restartable on its own
	// address, and every survivor needs a fast hint replay cadence
	// (configured before the first hint arrives).
	mk := func(addr string, seed uint64) (*server.Server, string) {
		cache, err := concurrent.New(concurrent.Config{Capacity: 4096, Alpha: 16, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(cache)
		srv.SetHintReplayInterval(20 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		return srv, ln.Addr().String()
	}
	addrs := make([]string, 3)
	srvs := make([]*server.Server, 3)
	for i := range addrs {
		srvs[i], addrs[i] = mk("127.0.0.1:0", uint64(i+1))
	}

	c, err := Dial(addrs, Options{Replicas: 2, WriteQuorum: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const total, doomed = 100, 50 // keys 1..doomed are deleted, the rest updated
	for k := uint64(1); k <= total; k++ {
		if err := c.Set(k, []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}

	// Crash node 1 and keep operating: W=1 of R=2 keeps every key
	// writable through the surviving owner.
	victim := addrs[1]
	srvs[1].Close()
	for k := uint64(1); k <= doomed; k++ {
		if _, err := c.Del(k); err != nil {
			t.Fatalf("DEL %d with a member down: %v", k, err)
		}
	}
	for k := uint64(doomed + 1); k <= total; k++ {
		if err := c.Set(k, []byte("v2")); err != nil {
			t.Fatalf("SET %d with a member down: %v", k, err)
		}
	}
	// Deletes hint synchronously on the Del path; updates hint from the
	// background repair worker once its dial to the victim fails. Wait for
	// the handoff tally to cover the victim's share of both.
	victimKeys := map[uint64]bool{}
	c.mu.RLock()
	for k := uint64(1); k <= total; k++ {
		for _, o := range c.ring.OwnersFor(k, 2) {
			if o == victim {
				victimKeys[k] = true
			}
		}
	}
	c.mu.RUnlock()
	if len(victimKeys) == 0 {
		t.Fatal("victim owns no keys; test vacuous")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := c.Snapshot().Replication
		if int(h.HintsSent) >= len(victimKeys) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("handoff sent %d of %d victim-owned writes within deadline", h.HintsSent, len(victimKeys))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Rejoin: same address, empty cache — a genuine crash-and-restart.
	_, rebound := mk(victim, 42)
	if rebound != victim {
		t.Fatalf("restart bound %s, want %s", rebound, victim)
	}

	// The survivors' replayers deliver the parked writes; the victim
	// converges with zero operator action. Poll its own store directly.
	vc, err := wire.Dial(victim)
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	deadline = time.Now().Add(10 * time.Second)
	for {
		got := map[uint64]wire.KeyRec{}
		recs, err := vc.Keys()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			got[r.Key] = r
		}
		converged := true
		for k := range victimKeys {
			r, ok := got[k]
			switch {
			case k <= doomed:
				if !ok || !r.Tombstone {
					converged = false // the delete has not reached it yet
				}
			default:
				if !ok || r.Tombstone {
					converged = false // the v2 update has not reached it yet
				}
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim did not converge from hint replay within deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Zero resurrections, zero lost writes — through the router, which may
	// route to either owner.
	for k := uint64(1); k <= total; k++ {
		v, hit, err := c.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if k <= doomed {
			if hit {
				t.Fatalf("deleted key %d resurrected as %q after rejoin", k, v)
			}
		} else if !hit || string(v) != "v2" {
			t.Fatalf("updated key %d = %q hit=%v after rejoin; want v2", k, v, hit)
		}
	}

	// The replay is visible in the members' counters.
	stats, err := statsAll(c)
	if err != nil {
		t.Fatal(err)
	}
	var replayed uint64
	for _, st := range stats {
		replayed += st.HintsReplayed
	}
	if replayed == 0 {
		t.Error("no member reports a replayed hint; convergence came from somewhere else")
	}
}

// TestAntiEntropySweepConvergesBothDirections diverges two replicas by
// hand — a value one owner never saw, a delete the other never saw — and
// asserts one sweep repairs both directions: the value is copied to the
// replica that missed it, and the tombstone overwrites the live copy it
// outranks.
func TestAntiEntropySweepConvergesBothDirections(t *testing.T) {
	addrs := startCluster(t, 2, 4096, 16)
	c, err := Dial(addrs, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const missing, deleted = uint64(10), uint64(20)
	// Divergence 1: a value only node 0 holds (written behind the
	// router's back, as a failed quorum write would leave things).
	d0, err := wire.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer d0.Close()
	if _, err := d0.Set(missing, []byte("only-here")); err != nil {
		t.Fatal(err)
	}
	// Divergence 2: both replicas hold the value, then only node 1
	// learns of the delete.
	if err := c.Set(deleted, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	d1, err := wire.Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()
	if _, _, err := d1.Del(deleted); err != nil {
		t.Fatal(err)
	}

	repaired, err := c.AntiEntropySweep()
	if err != nil {
		t.Fatal(err)
	}
	if repaired < 2 {
		t.Errorf("sweep repaired %d records, want ≥ 2 (one per direction)", repaired)
	}

	// Direction A: node 1 now holds the value it missed.
	if v, hit, err := d1.Get(missing); err != nil || !hit || string(v) != "only-here" {
		t.Fatalf("node1 GET %d = %q hit=%v err=%v; want the swept-in value", missing, v, hit, err)
	}
	// Direction B: node 0's live copy lost to the tombstone.
	if v, hit, err := d0.Get(deleted); err != nil || hit {
		t.Fatalf("node0 GET %d = %q hit=%v err=%v; want miss — tombstone outranks the live copy", deleted, v, hit, err)
	}
	recs, err := d0.Keys()
	if err != nil {
		t.Fatal(err)
	}
	foundTomb := false
	for _, r := range recs {
		if r.Key == deleted && r.Tombstone {
			foundTomb = true
		}
	}
	if !foundTomb {
		t.Error("node0 holds no tombstone for the deleted key after the sweep")
	}

	ae := c.Snapshot().Replication
	if ae.Sweeps == 0 || ae.SweepRepairs == 0 {
		t.Errorf("anti-entropy counters = %+v; want a recorded sweep with repairs", ae)
	}

	// A second sweep finds nothing to do: the state is a fixed point.
	if again, err := c.AntiEntropySweep(); err != nil || again != 0 {
		t.Errorf("second sweep repaired %d, err %v; want converged 0", again, err)
	}
}

// TestAntiEntropyStaleCopyCounted makes a sweep's copy lose to a newer
// write: between the sweep's KEYS snapshot of the destination and its
// copy, a user SET lands there directly. The destination refuses the
// older copy, and the refusal counts in RepairsStale with every other
// maintenance write a destination rejected as version-stale.
func TestAntiEntropyStaleCopyCounted(t *testing.T) {
	addrs := startCluster(t, 2, 4096, 16)
	sort.Strings(addrs)
	// The sweep snapshots members in sorted order, so dst's KEYS has
	// answered by the time the sweep dials src.
	dst, src := addrs[0], addrs[1]
	const key = uint64(30)

	var armed atomic.Bool
	hookErr := make(chan error, 1)
	dial := func(addr string) (*wire.Client, error) {
		if addr == src && armed.CompareAndSwap(true, false) {
			hookErr <- func() error {
				d, err := wire.Dial(dst)
				if err != nil {
					return err
				}
				defer d.Close()
				_, err = d.Set(key, []byte("newer"))
				return err
			}()
		}
		return wire.Dial(addr)
	}
	c, err := Dial(addrs, Options{Replicas: 2, Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s, err := wire.Dial(src)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Set(key, []byte("older")); err != nil {
		t.Fatal(err)
	}

	before := c.Snapshot().Replication
	armed.Store(true)
	if _, err := c.AntiEntropySweep(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-hookErr:
		if err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatal("the sweep never dialed the source; no write raced its copy")
	}
	after := c.Snapshot().Replication
	if after.RepairsStale != before.RepairsStale+1 {
		t.Errorf("RepairsStale %d → %d; want the refused sweep copy counted once", before.RepairsStale, after.RepairsStale)
	}
	if after.Sweeps != before.Sweeps+1 || after.SweepRepairs != before.SweepRepairs {
		t.Errorf("sweep counters %+v → %+v; want one sweep and no applied copy", before, after)
	}
	d, err := wire.Dial(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if v, hit, err := d.Get(key); err != nil || !hit || string(v) != "newer" {
		t.Fatalf("dst GET %d = %q hit=%v err=%v; want the newer user write", key, v, hit, err)
	}
}

// TestAntiEntropySweepReportsDeadMember pins the sweep's failure rule: a
// member it cannot reach counts as failed and is named in the returned
// error, and the sweep still repairs the members it can reach.
func TestAntiEntropySweepReportsDeadMember(t *testing.T) {
	addrs := make([]string, 3)
	servers := make([]*server.Server, 3)
	for i := range addrs {
		addrs[i], servers[i] = startNodeWithServer(t, 4096, 16, uint64(i+1))
	}
	c, err := Dial(addrs, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A value only one of a key's two surviving owners holds.
	dead := addrs[2]
	key := uint64(1)
	for slices.Contains(c.Owners(key), dead) {
		key++
	}
	owners := c.Owners(key)
	d0, err := wire.Dial(owners[0])
	if err != nil {
		t.Fatal(err)
	}
	defer d0.Close()
	if _, err := d0.Set(key, []byte("only-here")); err != nil {
		t.Fatal(err)
	}

	if err := servers[2].Close(); err != nil {
		t.Fatal(err)
	}
	before := c.Snapshot().Replication
	repaired, err := c.AntiEntropySweep()
	if err == nil || !strings.Contains(err.Error(), dead) {
		t.Fatalf("sweep with %s down returned err %v; want an error naming it", dead, err)
	}
	if repaired != 1 {
		t.Errorf("sweep repaired %d records, want 1 (the surviving pair's one divergence)", repaired)
	}
	d1, err := wire.Dial(owners[1])
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()
	if v, hit, err := d1.Get(key); err != nil || !hit || string(v) != "only-here" {
		t.Fatalf("%s GET %d = %q hit=%v err=%v; want the swept-in value", owners[1], key, v, hit, err)
	}
	if after := c.Snapshot().Replication; after.Sweeps != before.Sweeps+1 || after.SweepRepairs != before.SweepRepairs+1 {
		t.Errorf("sweep counters %+v → %+v; want one sweep with one repair", before, after)
	}
}
