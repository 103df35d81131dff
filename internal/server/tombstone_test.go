package server

import (
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/wire"
)

// TestDelLeavesVersionedTombstone pins the v8 DEL contract: a delete is
// a versioned write that leaves a tombstone, and the tombstone refuses a
// later maintenance write of an older copy — the delayed-repair
// interleaving that resurrected deleted keys through v7, replayed
// deterministically.
func TestDelLeavesVersionedTombstone(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const key = uint64(7)
	if _, err := c.Set(key, []byte("live")); err != nil {
		t.Fatal(err)
	}
	var verOld uint64
	if err := c.GetBatchVersions([]uint64{key}, func(_ int, h bool, v uint64, _ []byte) {
		if h {
			verOld = v
		}
	}); err != nil {
		t.Fatal(err)
	}
	if verOld == 0 {
		t.Fatal("no stored version for the live value")
	}

	present, verTomb, err := c.Del(key)
	if err != nil || !present {
		t.Fatalf("Del = %v, %v; want present", present, err)
	}
	if verTomb <= verOld {
		t.Fatalf("tombstone version %d not above the live value's %d", verTomb, verOld)
	}

	// The delayed repair: the old value at its observed version, arriving
	// after the delete. Through v7 this stored the value; the tombstone
	// must now refuse it as stale.
	applied, winning, err := c.Put(wire.Request{Key: key, Version: verOld, Value: []byte("live")})
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Fatal("a maintenance write of an older copy resurrected the deleted key")
	}
	if winning != verTomb {
		t.Errorf("stale rejection reports version %d, want the tombstone's %d", winning, verTomb)
	}
	if _, hit, err := c.Get(key); err != nil || hit {
		t.Fatalf("GET after refused repair = hit=%v, %v; want miss", hit, err)
	}

	// A strictly newer tombstone-flagged write applies; an older one is
	// refused — deletes obey the same conditional rule as values.
	tombstone := func(ver uint64) (applied int, err error) {
		applied, _, err = c.PutBatch([]wire.KeyRec{{Key: key, Version: ver, Tombstone: true}}, nil)
		return applied, err
	}
	if applied, err := tombstone(verTomb + 1); err != nil || applied != 1 {
		t.Fatalf("newer TOMBSTONE SET = applied=%v, %v; want applied", applied, err)
	}
	if applied, err := tombstone(verOld); err != nil || applied != 0 {
		t.Fatalf("older TOMBSTONE SET = applied=%v, %v; want stale refusal", applied, err)
	}

	// DEL of an absent key still writes a tombstone: this replica may
	// have missed the value entirely, and the delete must still outrank
	// whatever copy exists elsewhere.
	if present, ver, err := c.Del(999); err != nil || present || ver == 0 {
		t.Fatalf("Del(absent) = %v, ver %d, %v; want a fresh tombstone", present, ver, err)
	}

	st, err := c.Stats(false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tombstones != 2 {
		t.Errorf("Tombstones gauge = %d, want 2", st.Tombstones)
	}
	if st.StaleRepairs < 2 {
		t.Errorf("StaleRepairs = %d, want ≥ 2 (the refused repair and the refused old tombstone)", st.StaleRepairs)
	}
}

// TestTombstoneValueWriteOver: a user SET lands over a tombstone
// unconditionally (new data supersedes the delete), and the gauge tracks
// the flips in both directions.
func TestTombstoneValueWriteOver(t *testing.T) {
	srv, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const key = uint64(3)
	if _, _, err := c.Del(key); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.Stats(false); st.Tombstones != 1 {
		t.Fatalf("gauge after DEL = %d, want 1", st.Tombstones)
	}
	if _, err := c.Set(key, []byte("reborn")); err != nil {
		t.Fatal(err)
	}
	if v, hit, err := c.Get(key); err != nil || !hit || string(v) != "reborn" {
		t.Fatalf("GET after SET-over-tombstone = %q, %v, %v", v, hit, err)
	}
	if st, _ := c.Stats(false); st.Tombstones != 0 {
		t.Fatalf("gauge after SET over tombstone = %d, want 0", st.Tombstones)
	}
	_ = srv
}

// TestTombstoneLeavesByEviction: a tombstone takes a slot like any record
// and leaves the way every record does, when its set's LRU policy evicts
// it. One set of four: a DEL, then four SETs of other keys, push the
// tombstone out — KEYS no longer carries it and the TOMBSTONES gauge,
// counted at read, says so.
func TestTombstoneLeavesByEviction(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 4, Alpha: 4, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.Del(1); err != nil {
		t.Fatal(err)
	}
	if st, err := c.Stats(false); err != nil || st.Tombstones != 1 {
		t.Fatalf("gauge after DEL = %+v, %v; want 1 tombstone", st, err)
	}
	for key := uint64(2); key <= 5; key++ {
		if _, err := c.Set(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := c.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Tombstone {
			t.Errorf("KEYS still carries tombstone %+v after its set filled", rec)
		}
	}
	st, err := c.Stats(false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tombstones != 0 || st.Len != 4 || st.Evictions != 1 {
		t.Errorf("tombstones/len/evictions = %d/%d/%d, want 0/4/1", st.Tombstones, st.Len, st.Evictions)
	}
}

// TestTombstoneReadsCountAsMisses pins what HITS and MISSES count: the
// answers clients were told. A GET that finds a tombstone is a store hit
// but answers MISS, so SET, DEL and 100 GETs read HITS 0 and MISSES 100.
func TestTombstoneReadsCountAsMisses(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const key = uint64(9)
	if _, err := c.Set(key, []byte("gone soon")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Del(key); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, hit, err := c.Get(key); err != nil || hit {
			t.Fatalf("GET %d of the deleted key = hit %v, %v; want a miss", i, hit, err)
		}
	}
	st, err := c.Stats(false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 0 || st.Misses != 100 {
		t.Errorf("HITS/MISSES = %d/%d after 100 GETs of a tombstone, want 0/100", st.Hits, st.Misses)
	}
}

// TestHintQueueAndReplay: a hint queued on one server is replayed to its
// target as a conditional versioned write once the replayer runs —
// values and tombstones both — and the counters record it.
func TestHintQueueAndReplay(t *testing.T) {
	holder, holderAddr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	holder.SetHintReplayInterval(10 * time.Millisecond)
	_, targetAddr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 2})

	c, err := wire.Dial(holderAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Hint a value write and a delete for the target: the target holds
	// neither, so both replays must apply.
	if err := c.Hint(targetAddr, 1, false, 100, []byte("handed-off")); err != nil {
		t.Fatal(err)
	}
	if err := c.Hint(targetAddr, 2, true, 200, nil); err != nil {
		t.Fatal(err)
	}

	tc, err := wire.Dial(targetAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, hit, err := tc.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			if string(v) != "handed-off" {
				t.Fatalf("replayed value = %q", v)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hint not replayed within deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The tombstone hint must be resident on the target as a delete record.
	// It rides the same PutBatch as the value, one PUT behind it, so the
	// target may answer the GET above before it has applied the tombstone.
	for {
		recs, err := tc.Keys()
		if err != nil {
			t.Fatal(err)
		}
		foundTomb := false
		for _, rec := range recs {
			if rec.Key == 2 && rec.Tombstone && rec.Version == 200 {
				foundTomb = true
			}
		}
		if foundTomb {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed tombstone missing from target KEYS: %v", recs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The target holds both records once PutBatch was answered, but the
	// holder counts the replay only after PutBatch returns: poll it under
	// the same deadline.
	var hst *wire.Stats
	for {
		if hst, err = c.Stats(false); err != nil {
			t.Fatal(err)
		}
		if hst.HintsReplayed >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if hst.HintsQueued != 2 || hst.HintsReplayed != 2 {
		t.Errorf("holder hints queued/replayed = %d/%d, want 2/2", hst.HintsQueued, hst.HintsReplayed)
	}
	if n, bytes := holder.HintBacklog(); n != 0 || bytes != 0 {
		t.Errorf("hint backlog after replay = %d records / %d bytes, want empty", n, bytes)
	}
}

// TestHintBudgetDropsOldest: over the byte budget the oldest hints are
// dropped, newest kept — bounded memory, anti-entropy as the backstop.
func TestHintBudgetDropsOldest(t *testing.T) {
	srv, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	srv.SetHintReplayInterval(time.Hour) // keep the queue intact for inspection
	srv.SetHintBudget(3 * (64 + 10))     // room for ~3 ten-byte-value hints
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	val := []byte("0123456789")
	for k := uint64(1); k <= 5; k++ {
		if err := c.Hint("dead:1", k, false, k*10, val); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := srv.HintBacklog(); n != 3 {
		t.Fatalf("backlog = %d hints, want 3 (oldest 2 dropped)", n)
	}
	st, err := c.Stats(false)
	if err != nil {
		t.Fatal(err)
	}
	if st.HintsQueued != 5 {
		t.Errorf("HintsQueued = %d, want 5 (accepted counts, drops included)", st.HintsQueued)
	}
}

// TestTombstoneBlocksGetLease: a resident tombstone is a genuine miss to
// the lease path — GETL grants a fill lease over it, and the fill lands
// above the tombstone's version (a legitimate post-delete origin load).
func TestTombstoneBlocksGetLease(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const key = uint64(21)
	if _, err := c.Set(key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	present, verTomb, err := c.Del(key)
	if err != nil || !present {
		t.Fatalf("Del = %v, %v", present, err)
	}
	ls, err := c.GetLease(key)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Token == 0 {
		t.Fatalf("GETL over tombstone = %+v; want a fresh grant", ls)
	}
	filled, ver, err := c.Fill(key, ls.Token, []byte("fresh"))
	if err != nil || !filled {
		t.Fatalf("post-delete fill = %v, %v; want applied", filled, err)
	}
	if ver <= verTomb {
		t.Errorf("fill version %d not above the tombstone's %d", ver, verTomb)
	}
	if v, hit, err := c.Get(key); err != nil || !hit || string(v) != "fresh" {
		t.Fatalf("GET after fill = %q, %v, %v", v, hit, err)
	}
}
