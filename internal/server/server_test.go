package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/concurrent"
	"repro/internal/load"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

// startServer boots a server on a loopback listener and returns its address.
func startServer(t *testing.T, cfg concurrent.Config) (*Server, string) {
	t.Helper()
	cache, err := concurrent.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return serveCache(t, cache)
}

// serveCache is startServer over a cache the test keeps, for tests that
// compare what the wire reports with the store's own counters.
func serveCache(t *testing.T, cache *concurrent.Cache) (*Server, string) {
	t.Helper()
	srv := New(cache)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// TestRepairSetAccounting: writes split into user (SET) and repair (PUT)
// counts by opcode, so replica maintenance never inflates apparent user
// load.
func TestRepairSetAccounting(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Set(1, []byte("user")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Set(2, []byte("user")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Put(wire.Request{Key: 3, Version: 1, Value: []byte("repair")}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sets != 2 || st.RepairSets != 1 {
		t.Errorf("Sets/RepairSets = %d/%d, want 2/1", st.Sets, st.RepairSets)
	}
	// The PUT is applied by the time it is answered.
	if v, ok, err := c.Get(3); err != nil || !ok || string(v) != "repair" {
		t.Errorf("Get(3) = %q, %v, %v; a PUT must store normally", v, ok, err)
	}
}

func TestBasicOps(t *testing.T) {
	cache, err := concurrent.New(concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := serveCache(t, cache)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, ok, err := c.Get(1); err != nil || ok {
		t.Fatalf("Get on empty cache = %v, %v", ok, err)
	}
	if _, err := c.Set(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get(1)
	if err != nil || !ok || string(v) != "one" {
		t.Fatalf("Get(1) = %q, %v, %v", v, ok, err)
	}
	if present, ver, err := c.Del(1); err != nil || !present || ver == 0 {
		t.Fatalf("Del(1) = %v, ver %d, %v; want present with a tombstone version", present, ver, err)
	}
	if present, ver, err := c.Del(1); err != nil || present || ver == 0 {
		t.Fatalf("second Del(1) = %v, ver %d, %v; want absent but still versioned", present, ver, err)
	}
	st, err := c.Stats(true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	if int(st.Buckets) != 16 || len(st.Occupancy) != 16 {
		t.Fatalf("buckets = %d, occupancies = %d, want 16", st.Buckets, len(st.Occupancy))
	}
	// One occupancy per bucket, each the store's own count.
	for i, sh := range cache.ShardStats() {
		if st.Occupancy[i] != uint64(sh.Len) {
			t.Fatalf("bucket %d occupancy = %d on the wire, %d in the store", i, st.Occupancy[i], sh.Len)
		}
	}

	// REHASHES counts the rehashes the node's own miss-count schedule
	// starts, the counter's only source: a store that rehashes every 8
	// misses reads at least 1 after 8 GET misses over the wire. The
	// schedule starts each rehash on its own goroutine, hence the poll.
	const every = 8
	_, addr = startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1, RehashEveryMisses: every})
	sc, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for key := uint64(0); key < every; key++ {
		if _, ok, err := sc.Get(key); err != nil || ok {
			t.Fatalf("Get(%d) on an empty cache = %v, %v", key, ok, err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := sc.Stats(false)
		if err != nil {
			t.Fatal(err)
		}
		if st.Misses != every {
			t.Fatalf("MISSES = %d, want %d", st.Misses, every)
		}
		if st.Rehashes >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("REHASHES = 0 after %d misses on a store that rehashes every %d", every, every)
		}
	}
}

// TestTopologyAdoption pins the server-side adoption rule: a fresh server
// adopts any offer, a newer epoch wins, an older or equal one is kept out,
// an empty offer reads the held view without changing it, and every
// response stamps the current epoch.
func TestTopologyAdoption(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 2; i++ {
		if tp, err := c.Topology(wire.Topology{}); err != nil || tp.Epoch != 0 || len(tp.Members) != 0 {
			t.Fatalf("fresh server read %d = %+v, %v; want empty epoch-0 view", i, tp, err)
		}
	}
	// Fresh server adopts an epoch-0 push (it holds nothing).
	tp, err := c.Topology(wire.Topology{Epoch: 0, Members: []string{"a:1"}})
	if err != nil || tp.Epoch != 0 || len(tp.Members) != 1 {
		t.Fatalf("founding push returned %+v, %v", tp, err)
	}
	// Equal epoch with members held: rejected.
	tp, err = c.Topology(wire.Topology{Epoch: 0, Members: []string{"b:1"}})
	if err != nil || len(tp.Members) != 1 || tp.Members[0] != "a:1" {
		t.Fatalf("equal-epoch push returned %+v, %v; want the held view kept", tp, err)
	}
	// Newer epoch: adopted, and subsequent responses carry it.
	tp, err = c.Topology(wire.Topology{Epoch: 5, Members: []string{"a:1", "b:1"}})
	if err != nil || tp.Epoch != 5 || len(tp.Members) != 2 {
		t.Fatalf("newer push returned %+v, %v", tp, err)
	}
	if _, _, err := c.Get(1); err != nil {
		t.Fatal(err)
	}
	if e := c.LastEpoch(); e != 5 {
		t.Errorf("GET response epoch = %d, want 5", e)
	}
	// Older epoch: rejected, the response reports the newer held view.
	tp, err = c.Topology(wire.Topology{Epoch: 4, Members: []string{"z:1"}})
	if err != nil || tp.Epoch != 5 {
		t.Fatalf("stale push returned %+v, %v; want the epoch-5 view kept", tp, err)
	}
	// An empty offer reads the epoch-5 view and leaves it as it was.
	for i := 0; i < 2; i++ {
		tp, err = c.Topology(wire.Topology{})
		if err != nil || tp.Epoch != 5 || strings.Join(tp.Members, ",") != "a:1,b:1" {
			t.Fatalf("read %d of the epoch-5 view returned %+v, %v", i, tp, err)
		}
	}
	// An empty offer at a nonzero epoch is a protocol error at both ends:
	// the client refuses to encode it, and the adoption rule ignores it —
	// adopting a bare high epoch over no members would let a later lower
	// epoch roll the monotonic epoch backwards.
	if _, err := c.Topology(wire.Topology{Epoch: 99}); err == nil {
		t.Error("client encoded an empty TOPOLOGY offer at epoch 99")
	}
	srv, _ := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 2})
	srv.OfferTopology(wire.Topology{Epoch: 5, Members: []string{"a:1"}})
	if got := srv.OfferTopology(wire.Topology{Epoch: 99}); got.Epoch != 5 || len(got.Members) != 1 {
		t.Errorf("empty offer at epoch 99 returned %+v; want the held view kept", got)
	}
}

// TestKeysStreamChunks shrinks the server's chunk size and checks a KEYS
// enumeration arrives as multiple bounded frames that reassemble to
// exactly the resident set.
func TestKeysStreamChunks(t *testing.T) {
	srv, addr := startServer(t, concurrent.Config{Capacity: 1024, Alpha: 64, Seed: 1})
	srv.SetKeysChunk(16)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 100
	want := map[uint64]bool{}
	for k := uint64(0); k < n; k++ {
		if _, err := c.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		want[k] = true
	}
	frames := 0
	got := map[uint64]bool{}
	if err := c.KeysStream(func(chunk []wire.KeyRec) error {
		frames++
		if len(chunk) > 16 {
			t.Errorf("chunk frame carries %d keys, configured max 16", len(chunk))
		}
		for _, rec := range chunk {
			if rec.Version == 0 || rec.Tombstone {
				t.Errorf("record %+v: want a versioned live record", rec)
			}
			got[rec.Key] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if frames < n/16 {
		t.Errorf("stream used %d frames for %d keys at chunk 16; want ≥ %d", frames, n, n/16)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d distinct keys, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("key %d missing from stream", k)
		}
	}
}

// TestKeysSnapshot checks the KEYS op returns exactly the resident
// records — live keys plus, since v8, a tombstone record per deleted key.
// A lease record is no record of an absent key, so a grant adds nothing,
// and a leased tombstone still streams as a tombstone.
func TestKeysSnapshot(t *testing.T) {
	// α = 64 slots per bucket: 40 inserts can never overflow a bucket, so
	// the expected key set is exact.
	_, addr := startServer(t, concurrent.Config{Capacity: 1024, Alpha: 64, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want := map[uint64]bool{}
	for k := uint64(100); k < 140; k++ {
		if _, err := c.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		want[k] = true
	}
	if _, _, err := c.Del(100); err != nil {
		t.Fatal(err)
	}
	delete(want, 100)
	for _, k := range []uint64{100, 200} {
		if ls, err := c.GetLease(k); err != nil || ls.Token == 0 {
			t.Fatalf("GETL %d = %+v, %v; want a grant", k, ls, err)
		}
	}

	recs, err := c.Keys()
	if err != nil {
		t.Fatal(err)
	}
	// The deleted key stays enumerable as a tombstone record: that is how
	// warm-up, migration, and anti-entropy learn about the delete.
	if len(recs) != len(want)+1 {
		t.Fatalf("KEYS returned %d records, want %d live + 1 tombstone", len(recs), len(want))
	}
	for _, rec := range recs {
		if rec.Key == 100 {
			if !rec.Tombstone || rec.Version == 0 {
				t.Errorf("deleted key record = %+v; want a versioned tombstone", rec)
			}
			continue
		}
		if !want[rec.Key] || rec.Tombstone {
			t.Errorf("KEYS returned unexpected record %+v", rec)
		}
	}
}

// TestEndToEndStatsMatch drives the server over multiple concurrent
// connections with zipf and adversarial workloads and asserts the
// server-side hit/miss counters match the client-observed results exactly.
func TestEndToEndStatsMatch(t *testing.T) {
	const k = 4096
	cache, err := concurrent.New(concurrent.Config{Capacity: k, Alpha: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := serveCache(t, cache)

	zipfKeys := workload.Zipf{Universe: 2 * k, S: 0.9, Shuffle: true}.Generate(30_000, 7)
	adv := adversary.Theorem4{K: k, Delta: 0.1, Sets: 3, Reps: 4}
	advKeys := workload.Fixed{Label: "theorem4", Seq: adv.Build()}.Generate(30_000, 7)

	var clientHits, clientMisses, clientOps int
	for _, tc := range []struct {
		name string
		keys trace.Sequence
	}{
		{"zipf", zipfKeys},
		{"adversarial", advKeys},
	} {
		res, err := load.Run(load.Config{
			Addr:        addr,
			Conns:       4,
			Keys:        tc.keys,
			Pipeline:    8,
			ValueSize:   32,
			ReadThrough: true,
			Verify:      true,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Ops != len(tc.keys) {
			t.Fatalf("%s: ops = %d, want %d", tc.name, res.Ops, len(tc.keys))
		}
		if res.Corrupt != 0 {
			t.Fatalf("%s: %d corrupt payloads", tc.name, res.Corrupt)
		}
		if res.Misses == 0 || res.Hits == 0 {
			t.Fatalf("%s: degenerate run hits=%d misses=%d", tc.name, res.Hits, res.Misses)
		}
		clientHits += res.Hits
		clientMisses += res.Misses
		clientOps += res.Ops
	}

	ctl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	st, err := ctl.Stats(true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != uint64(clientHits) || st.Misses != uint64(clientMisses) {
		t.Fatalf("server stats %d/%d != client observed %d/%d",
			st.Hits, st.Misses, clientHits, clientMisses)
	}
	if st.Hits+st.Misses != uint64(clientOps) {
		t.Fatalf("server total %d != client ops %d", st.Hits+st.Misses, clientOps)
	}
	snap := cache.Snapshot()
	if st.Hits != snap.Hits || st.Misses != snap.Misses || st.Evictions != snap.Evictions || st.Len != uint64(snap.Len) {
		t.Fatalf("wire counters %+v disagree with the store's snapshot %+v", st, snap)
	}
	// Per-shard counters must sum to the global ones, and the occupancies
	// to the resident count.
	var sh, sm, occ uint64
	for _, s := range cache.ShardStats() {
		sh += s.Hits
		sm += s.Misses
	}
	for _, n := range st.Occupancy {
		occ += n
	}
	if sh != st.Hits || sm != st.Misses {
		t.Fatalf("shard sums %d/%d != global %d/%d", sh, sm, st.Hits, st.Misses)
	}
	if len(st.Occupancy) != int(st.Buckets) || occ != st.Len {
		t.Fatalf("%d occupancies summing to %d, want %d summing to %d", len(st.Occupancy), occ, st.Buckets, st.Len)
	}
}

// TestOnlineRehashUnderLoad starts a rehash of the served cache while
// concurrent connections hammer the server and asserts (a) the migration
// completes under live traffic and (b) no entry is lost beyond those the
// eviction counters account for.
func TestOnlineRehashUnderLoad(t *testing.T) {
	const k, universe = 1024, 800
	cache, err := concurrent.New(concurrent.Config{Capacity: k, Alpha: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := serveCache(t, cache)

	ctl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	// Fill the cache.
	for i := uint64(0); i < universe; i++ {
		if _, err := ctl.Set(i, load.Payload(i, 32)); err != nil {
			t.Fatal(err)
		}
	}
	base, err := ctl.Stats(false)
	if err != nil {
		t.Fatal(err)
	}
	if base.Len == 0 {
		t.Fatal("cache empty after fill")
	}

	// Live traffic: 3 connections replaying the key range repeatedly
	// (GET-only, so every later absence is attributable to an eviction).
	keys := workload.Scan{Universe: universe}.Generate(120_000, 0)
	loadDone := make(chan error, 1)
	go func() {
		_, err := load.Run(load.Config{
			Addr: addr, Conns: 3, Keys: keys, Pipeline: 8, Verify: true,
		})
		loadDone <- err
	}()

	// Let traffic start, then rehash online.
	time.Sleep(10 * time.Millisecond)
	cache.Rehash()

	// The migration must finish while traffic is still flowing.
	deadline := time.After(30 * time.Second)
	for {
		st, err := ctl.Stats(false)
		if err != nil {
			t.Fatal(err)
		}
		if st.Rehashes >= 1 && !st.Migrating {
			if st.Pending != 0 {
				t.Fatalf("migration done but pending = %d", st.Pending)
			}
			break
		}
		select {
		case err := <-loadDone:
			if err != nil {
				t.Fatal(err)
			}
			// Traffic ended before the migration did: drain explicitly so
			// the accounting check below still holds, but flag it — the
			// workload is sized to outlast the migration.
			t.Fatalf("load finished before migration completed (pending %d)", st.Pending)
		case <-deadline:
			t.Fatalf("migration did not complete; pending %d", st.Pending)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if err := <-loadDone; err != nil {
		t.Fatal(err)
	}

	// Accounting: every filled key is either still readable (with the right
	// payload) or covered by an eviction counter. Nothing may simply vanish.
	st, err := ctl.Stats(false)
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	for i := uint64(0); i < universe; i++ {
		v, ok, err := ctl.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			missing++
		} else if !load.VerifyPayload(i, v) {
			t.Fatalf("key %d: corrupt payload after rehash", i)
		}
	}
	// The budget includes fill-time evictions (bucket overflow during the
	// initial SETs): those keys are legitimately absent too. No key was ever
	// re-inserted after the fill, so each missing key needs one eviction.
	evicted := int(st.Evictions) + int(st.FlushEvictions)
	if missing > evicted {
		t.Fatalf("%d keys missing but only %d evictions recorded: entries lost", missing, evicted)
	}
	if missing == universe {
		t.Fatal("every key missing: rehash flushed the cache instead of migrating")
	}
	if st.Rehashes != 1 {
		t.Fatalf("rehashes = %d, want 1", st.Rehashes)
	}
	if int(st.Len) > k {
		t.Fatalf("len %d > capacity %d", st.Len, k)
	}
}

// TestPipelinedMixedBatch checks deep pipelining of heterogeneous ops on
// one connection.
func TestPipelinedMixedBatch(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 256, Alpha: 8, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 500
	for i := uint64(0); i < n; i++ {
		if err := c.Enqueue(wire.Request{Op: wire.OpSet, Key: i, Value: load.Payload(i, 16)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ {
		if err := c.EnqueueGet(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		resp, err := c.ReadResponse()
		if err != nil {
			t.Fatalf("SET response %d: %v", i, err)
		}
		if resp.Status != wire.StatusOK {
			t.Fatalf("SET response %d = %v", i, resp.Status)
		}
	}
	hits := 0
	for i := 0; i < n; i++ {
		resp, err := c.ReadResponse()
		if err != nil {
			t.Fatalf("GET response %d: %v", i, err)
		}
		if resp.Status == wire.StatusHit {
			if !load.VerifyPayload(uint64(i), resp.Value) {
				t.Fatalf("GET %d: wrong payload", i)
			}
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no hits in pipelined batch")
	}
}

// TestPipelinedBatchOneFlush: a 16-deep pipelined GET batch costs the
// server exactly one flush, counted as writes on a wrapped connection. The
// reader decodes each frame in place and holds it in the stream buffer
// until the next read, so this is what Buffered must get right: counting
// the held frame would withhold the batch's flush forever (the client
// times out), and undercounting what is queued behind it would flush per
// request.
func TestPipelinedBatchOneFlush(t *testing.T) {
	cache, err := concurrent.New(concurrent.Config{Capacity: 1024, Alpha: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cache)
	client, server := net.Pipe() // one client Write reaches one server Read whole
	var writes atomic.Int64
	ln := &oneConnListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
	ln.conns <- writeCountingConn{server, &writes}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c, err := wire.NewClient(client)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = uint64(i)
	}
	const batches = 50
	before := int64(-1)
	done := make(chan error, 1)
	go func() {
		if err := c.SetBatch(keys, func(i int) []byte { return load.Payload(keys[i], 64) }); err != nil {
			done <- err
			return
		}
		before = writes.Load()
		misses := 0
		for b := 0; b < batches; b++ {
			if err := c.GetBatch(keys, func(_ int, hit bool, _ []byte) {
				if !hit {
					misses++
				}
			}); err != nil {
				done <- err
				return
			}
		}
		if misses > 0 {
			done <- fmt.Errorf("%d GETs of stored keys missed", misses)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a pipelined batch never got its flush")
	}
	if got := writes.Load() - before; got != batches {
		t.Errorf("%d 16-deep GET batches cost the server %d writes, want one flush each", batches, got)
	}
}

// oneConnListener hands Serve one prepared connection, then blocks until
// closed.
type oneConnListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *oneConnListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *oneConnListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *oneConnListener) Addr() net.Addr { return &net.TCPAddr{} }

// writeCountingConn counts the writes made on a connection.
type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// getVersion reads key with its stored version over c.
func getVersion(t *testing.T, c *wire.Client, key uint64) (uint64, []byte, bool) {
	t.Helper()
	var (
		ver uint64
		val []byte
		hit bool
	)
	if err := c.GetBatchVersions([]uint64{key}, func(_ int, h bool, v uint64, b []byte) {
		hit = h
		ver = v
		val = append([]byte(nil), b...)
	}); err != nil {
		t.Fatal(err)
	}
	return ver, val, hit
}

// TestVersionedSetLifecycle pins the v4 value-version semantics end to
// end: user SETs assign strictly increasing versions, HITs report them,
// a VERSIONED write below-or-at the stored version is rejected with
// VERSION_STALE (and counted), and one strictly above applies verbatim.
func TestVersionedSetLifecycle(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Set(1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	ver1, _, hit := getVersion(t, c, 1)
	if !hit || ver1 == 0 {
		t.Fatalf("first SET stored version %d (hit %v); want a nonzero version", ver1, hit)
	}
	if _, err := c.Set(1, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	ver2, val, _ := getVersion(t, c, 1)
	if ver2 <= ver1 {
		t.Fatalf("second SET version %d not above first %d; per-key versions must increase", ver2, ver1)
	}
	if string(val) != "v2" {
		t.Fatalf("value = %q, want v2", val)
	}

	// A conditional write at the observed-old version must lose.
	applied, stored, err := c.Put(wire.Request{Key: 1, Version: ver1, Value: []byte("stale")})
	if err != nil {
		t.Fatal(err)
	}
	if applied || stored != ver2 {
		t.Fatalf("stale VERSIONED SET: applied=%v stored=%d, want rejected with stored=%d", applied, stored, ver2)
	}
	if _, val, _ := getVersion(t, c, 1); string(val) != "v2" {
		t.Fatalf("value after rejected write = %q, want v2", val)
	}

	// Equal version must lose too (strictly newer only).
	if applied, _, err = c.Put(wire.Request{Key: 1, Version: ver2, Value: []byte("equal")}); err != nil || applied {
		t.Fatalf("equal-version SET applied=%v, err=%v; want rejected", applied, err)
	}

	// Strictly newer applies and stores the carried version verbatim.
	if applied, stored, err = c.Put(wire.Request{Key: 1, Version: ver2 + 50, Value: []byte("newer")}); err != nil || !applied || stored != ver2+50 {
		t.Fatalf("newer VERSIONED SET = (%v, %d, %v), want applied at %d", applied, stored, err, ver2+50)
	}
	ver3, val, _ := getVersion(t, c, 1)
	if ver3 != ver2+50 || string(val) != "newer" {
		t.Fatalf("after newer write: (%d, %q), want (%d, newer)", ver3, val, ver2+50)
	}

	// A VERSIONED write to an absent key populates it (warm-up's case).
	if applied, _, err = c.Put(wire.Request{Key: 2, Version: 123, Value: []byte("seeded")}); err != nil || !applied {
		t.Fatalf("VERSIONED SET on absent key = (%v, %v), want applied", applied, err)
	}
	if ver, _, _ := getVersion(t, c, 2); ver != 123 {
		t.Fatalf("seeded version = %d, want 123", ver)
	}

	st, err := c.Stats(false)
	if err != nil {
		t.Fatal(err)
	}
	if st.StaleRepairs != 2 {
		t.Errorf("StaleRepairs = %d, want 2 (one stale, one equal rejection)", st.StaleRepairs)
	}
}

// TestLostUpdateRaceDelayedRepair is the e2e acceptance for the v4
// bugfix: a read repair of an older value that reaches the server *after*
// a user SET of the same key — the router observed (old, ver), queued the
// repair, and its worker sent the PUT late — must be rejected, not
// reinstate the old value. Under v3 semantics this exact interleaving
// stored the old value (the documented lost-update caveat); the
// VERSION_STALE answer carrying the winning version, and the StaleRepairs
// bump, are the proof the write would have applied and was refused by
// the version check alone.
func TestLostUpdateRaceDelayedRepair(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A maintenance actor observes (old, ver) — a fallback read, a warm-up
	// chunk, a migration drain, all look like this.
	if _, err := c.Set(9, []byte("old")); err != nil {
		t.Fatal(err)
	}
	verOld, _, _ := getVersion(t, c, 9)

	// The user SET lands first...
	if _, err := c.Set(9, []byte("new")); err != nil {
		t.Fatal(err)
	}
	verNew, _, _ := getVersion(t, c, 9)
	// ...then the delayed maintenance write of the old value arrives.
	applied, stored, err := c.Put(wire.Request{Key: 9, Version: verOld, Value: []byte("old")})
	if err != nil {
		t.Fatal(err)
	}
	if applied || stored != verNew {
		t.Fatalf("delayed repair: applied=%v stored=%d, want VERSION_STALE naming the user SET's version %d", applied, stored, verNew)
	}
	st, err := c.Stats(false)
	if err != nil {
		t.Fatal(err)
	}
	if st.StaleRepairs != 1 {
		t.Errorf("StaleRepairs = %d, want 1", st.StaleRepairs)
	}
	if _, val, _ := getVersion(t, c, 9); string(val) != "new" {
		t.Fatalf("value after delayed repair = %q; the user SET was overwritten by the older value", val)
	}
}

// TestVersionedRepairStress races a user writer against a maintenance
// loop that perpetually re-writes whatever it observed — the generalized
// lost-update scenario, run under -race in CI. Half the replays go out at
// once; the other half are held back and sent one observation late, the
// way a read repair waits in the router's queue while newer writes land,
// and the last held one is sent after the final user write. Whatever the
// interleaving, the final user write must survive every replay of older
// state, and the versions the maintenance loop observes must never go
// backwards.
func TestVersionedRepairStress(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 256, Alpha: 8, Seed: 1})
	user, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer user.Close()
	maint, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer maint.Close()

	const key = 5
	stop := make(chan struct{})
	done := make(chan error, 1)
	var held *wire.Request // the delayed replay; read after done is received
	go func() {
		var lastVer uint64
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			var ver uint64
			var val []byte
			var hit bool
			if err := maint.GetBatchVersions([]uint64{key}, func(_ int, h bool, v uint64, b []byte) {
				hit, ver, val = h, v, append([]byte(nil), b...)
			}); err != nil {
				done <- err
				return
			}
			if !hit {
				continue
			}
			if ver < lastVer {
				done <- fmt.Errorf("observed version went backwards: %d after %d", ver, lastVer)
				return
			}
			lastVer = ver
			replay := &wire.Request{Key: key, Version: ver, Value: val}
			if i%2 == 1 {
				replay, held = held, replay
				if replay == nil {
					continue
				}
			}
			if _, _, err := maint.Put(*replay); err != nil {
				done <- err
				return
			}
		}
	}()

	for i := 0; i < 3000; i++ {
		if _, err := user.Set(key, []byte(fmt.Sprintf("user-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The final write: every maintenance observation precedes it, so no
	// replay — the held one included — may ever displace it.
	if _, err := user.Set(key, []byte("final")); err != nil {
		t.Fatal(err)
	}
	if held != nil {
		if applied, _, err := maint.Put(*held); err != nil || applied {
			t.Fatalf("held replay after the final SET: applied=%v, err=%v; want VERSION_STALE", applied, err)
		}
	}
	_, val, hit := getVersion(t, user, key)
	if !hit {
		t.Fatal("key vanished under stress")
	}
	if string(val) != "final" {
		t.Fatalf("value = %q; an older maintenance replay displaced the final user SET", val)
	}
	st, err := user.Stats(false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stress: %d repair sets, %d rejected as stale", st.RepairSets, st.StaleRepairs)
}

// TestServerCloseLeavesNothingBehind counts goroutines, the server-side
// twin of the router's TestCloseLeavesNothingBehind: with client
// connections still open, a tombstone resident and a hint parked for an
// unreachable target (the replayer is running and redialing), Close must
// take the process back to its pre-New goroutine count — every connection
// handler, the background worker and the accept loop.
func TestServerCloseLeavesNothingBehind(t *testing.T) {
	// An address nothing listens on, so the replayer keeps its hint.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	baseline := runtime.NumGoroutine()
	srv, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	srv.SetHintReplayInterval(time.Millisecond)
	for i := 0; i < 4; i++ {
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close() // after srv.Close: the server must not wait for its peers
		if _, err := c.Set(uint64(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if _, _, err := c.Del(0); err != nil {
				t.Fatal(err)
			}
			if err := c.Hint(deadAddr, 9, false, 100, []byte("parked")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := srv.stats(); st.Tombstones != 1 || st.HintsQueued != 1 {
		t.Fatalf("set-up left %d tombstones and %d hints, want 1 and 1", st.Tombstones, st.HintsQueued)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Close waits for the handlers and the worker; only the accept loop
	// (started by this test's helper) may still be returning.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Close, %d before New\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestOldClientVersionError is the cross-version smoke: a client one
// revision behind (v15, which still had REHASH, against this v16 server)
// must read the documented version error on its first response — the
// ERROR frame layout is stable across revisions — rather than hanging on
// a silently closed connection.
func TestOldClientVersionError(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}

	// The previous revision's preamble, byte for byte what an old client
	// sends.
	pre := []byte(wire.Magic)
	pre = binary.LittleEndian.AppendUint32(pre, wire.Version-1)
	if _, err := conn.Write(pre); err != nil {
		t.Fatal(err)
	}

	resp, err := wire.NewReader(conn).ReadResponse()
	if err != nil {
		t.Fatalf("old client got %v instead of the documented version error", err)
	}
	if resp.Status != wire.StatusError {
		t.Fatalf("old client got %v, want ERROR", resp.Status)
	}
	want := fmt.Sprintf("unsupported protocol version %d (this end speaks %d)", wire.Version-1, wire.Version)
	if !strings.Contains(resp.Err, want) {
		t.Fatalf("error message %q does not name both revisions (want %q)", resp.Err, want)
	}
}

// TestMalformedFrameBehindPipelinedRequests: an ill-formed frame must not
// cost the valid requests pipelined ahead of it their answers, and must
// be explained. The server answers the GET, then an ERROR naming the
// decode fault in the bad frame's slot, then closes.
func TestMalformedFrameBehindPipelinedRequests(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}

	// Preamble, a valid GET and a zero-token FILL, in one segment.
	var seg bytes.Buffer
	w := wire.NewWriter(&seg)
	if err := w.WritePreamble(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRequest(wire.Request{Op: wire.OpGet, Key: 5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	fill := append([]byte{byte(wire.OpFill)}, make([]byte, 16)...) // key, token = 0
	seg.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(fill))))
	seg.Write(fill)
	if _, err := conn.Write(seg.Bytes()); err != nil {
		t.Fatal(err)
	}

	r := wire.NewReader(conn)
	resp, err := r.ReadResponse()
	if err != nil || resp.Status != wire.StatusMiss {
		t.Fatalf("the GET ahead of the malformed frame got %v/%v, want MISS", resp.Status, err)
	}
	resp, err = r.ReadResponse()
	if err != nil || resp.Status != wire.StatusError {
		t.Fatalf("the malformed frame's slot got %v/%v, want ERROR", resp.Status, err)
	}
	if !strings.Contains(resp.Err, "zero token") {
		t.Fatalf("error message %q does not name the decode fault", resp.Err)
	}
	if _, err := r.ReadResponse(); err != io.EOF {
		t.Fatalf("after the ERROR the server must close the connection; got %v", err)
	}
}
