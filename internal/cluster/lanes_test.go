package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/wire"
)

// countingDial is an Options.Dial that tallies connections per member, so
// a test can wait for contention to have opened a second lane without
// reaching into the router. wrap, when set, may substitute the n-th
// connection to addr (fault injection).
type countingDial struct {
	wrap func(addr string, n int, conn net.Conn) net.Conn

	mu    sync.Mutex
	dials map[string]int
}

func (d *countingDial) dial(addr string) (*wire.Client, error) {
	conn, err := net.DialTimeout("tcp", addr, wire.DefaultDialTimeout)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if d.dials == nil {
		d.dials = make(map[string]int)
	}
	d.dials[addr]++
	n := d.dials[addr]
	d.mu.Unlock()
	if d.wrap != nil {
		conn = d.wrap(addr, n, conn)
	}
	return wire.NewClient(conn)
}

// atLeast reports whether every one of addrs was dialed at least n times.
func (d *countingDial) atLeast(addrs []string, n int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, a := range addrs {
		if d.dials[a] < n {
			return false
		}
	}
	return true
}

// getChecked runs one GetBatch over batch and holds its delivery
// invariants: no error, every index visited exactly once, every hit carrying
// its own key's payload (a response drained into the wrong batch would
// not). hits records which indices hit. It reports through t.Errorf and
// returns false, so it is safe off the test's own goroutine.
func getChecked(t *testing.T, c *Client, who string, batch []uint64, seen []int, hits []bool) bool {
	clear(seen)
	err := c.GetBatch(batch, func(i int, hit bool, v []byte) {
		seen[i]++
		hits[i] = hit
		if hit && !load.VerifyPayload(batch[i], v) {
			t.Errorf("%s: key %d served another key's payload", who, batch[i])
		}
	})
	if err != nil {
		t.Errorf("%s: GetBatch: %v", who, err)
		return false
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("%s: index %d visited %d times", who, i, n)
			return false
		}
	}
	return true
}

// hammer runs workers goroutines of GetBatch traffic over keys (already
// resident) until stop returns true, failing the test on anything
// getChecked rejects and on any miss.
func hammer(t *testing.T, c *Client, workers int, keys []uint64, stop func() bool) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			who := fmt.Sprintf("worker %d", g)
			rng := rand.New(rand.NewSource(int64(g)))
			batch := make([]uint64, 16)
			seen := make([]int, len(batch))
			hits := make([]bool, len(batch))
			for !stop() && !t.Failed() {
				for i := range batch {
					batch[i] = keys[rng.Intn(len(keys))]
				}
				if !getChecked(t, c, who, batch, seen, hits) {
					return
				}
				for i, hit := range hits {
					if !hit {
						t.Errorf("%s: resident key %d missed", who, batch[i])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// preload stores n verifiable payloads and returns their keys.
func preload(t *testing.T, c *Client, n int) []uint64 {
	t.Helper()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	if err := c.SetBatch(keys, func(i int) []byte { return load.Payload(keys[i], 64) }); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestCloseLeavesNothingBehind counts goroutines: once concurrent batches
// have opened at least two lanes on every member, Close must close every
// one of them — the in-process servers' per-connection goroutines exit
// only when their socket really closes, so the process falling back to its
// pre-Dial goroutine count is the observable form of "no lane leaked".
func TestCloseLeavesNothingBehind(t *testing.T) {
	addrs := startCluster(t, 3, 4096, 16)
	baseline := runtime.NumGoroutine()

	var d countingDial
	c, err := Dial(addrs, Options{Replicas: 2, Dial: d.dial})
	if err != nil {
		t.Fatal(err)
	}
	keys := preload(t, c, 64)
	deadline := time.Now().Add(20 * time.Second)
	hammer(t, c, 8, keys, func() bool {
		return d.atLeast(addrs, 2) || time.Now().After(deadline)
	})
	if !d.atLeast(addrs, 2) {
		t.Fatalf("8 concurrent callers never opened a second lane on every member: dials %v", d.dials)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Close, %d before Dial (dials %v)\n%s", n, baseline, d.dials, buf[:runtime.Stack(buf, true)])
	}
}

// TestSingleCallerOpensOneLane holds the lazy half of the lane design: one
// goroutine's traffic never finds its lane busy, so each member accepts
// exactly one connection from the router, as it did when a member had only
// one.
func TestSingleCallerOpensOneLane(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", replicas), func(t *testing.T) {
			addrs := startCluster(t, 3, 4096, 16)
			// A side connection per member reads CONNS before the router
			// exists and after its traffic; it counts itself both times.
			accepted := func(cl *wire.Client) uint64 {
				m, err := cl.Metrics(wire.MetricsCounters)
				if err != nil {
					t.Fatal(err)
				}
				return m.Counter(wire.CounterConns)
			}
			side := make([]*wire.Client, len(addrs))
			before := make([]uint64, len(addrs))
			for i, a := range addrs {
				cl, err := wire.Dial(a)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cl.Close() })
				side[i], before[i] = cl, accepted(cl)
			}

			c, err := Dial(addrs, Options{Replicas: replicas})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			keys := preload(t, c, 256)
			for round := 0; round < 20; round++ {
				batch := keys[round*8 : round*8+16]
				if err := c.GetBatch(batch, func(int, bool, []byte) {}); err != nil {
					t.Fatal(err)
				}
				if err := c.SetBatch(batch, func(i int) []byte { return load.Payload(batch[i], 64) }); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Del(batch[0]); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := statsAll(c); err != nil {
				t.Fatal(err)
			}
			for i, a := range addrs {
				if got := accepted(side[i]); got != before[i]+1 {
					t.Errorf("member %s accepted %d connections from a single-caller router, want 1", a, got-before[i])
				}
			}
		})
	}
}

// TestRouterConcurrentBatches drives one router from 8 goroutines at once
// — the case lanes exist for — and holds the pipeline invariants under it:
// every batch index is visited exactly once, every hit carries its own
// key's payload (a response drained into the wrong batch would not), and a
// goroutine reads its own writes and deletes on the keys only it touches.
// Keys in the shared range are written, deleted and read by everyone, so
// batches meet at every member and on every key's owners.
func TestRouterConcurrentBatches(t *testing.T) {
	for _, tc := range []struct {
		replicas int
		edge     bool // leases + near-cache
	}{{1, false}, {2, false}, {1, true}, {2, true}} {
		t.Run(fmt.Sprintf("R=%d/edge=%v", tc.replicas, tc.edge), func(t *testing.T) {
			addrs := startCluster(t, 3, 4096, 16)
			opts := Options{Replicas: tc.replicas}
			if tc.edge {
				opts.Leases, opts.NearCache = true, NearCacheOptions{Slots: 256}
			}
			c, err := Dial(addrs, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			const workers, rounds, own, shared = 8, 40, 12, 48
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					// The first own keys of a batch are this goroutine's, the
					// rest come from the shared range.
					batch := make([]uint64, 16)
					for i := 0; i < own; i++ {
						batch[i] = uint64(1000*(g+1) + i)
					}
					seen := make([]int, len(batch))
					hits := make([]bool, len(batch))
					get := func(what string) bool {
						return getChecked(t, c, fmt.Sprintf("worker %d %s", g, what), batch, seen, hits)
					}
					for r := 0; r < rounds; r++ {
						for i := own; i < len(batch); i++ {
							batch[i] = uint64(1 + rng.Intn(shared))
						}
						if err := c.SetBatch(batch, func(i int) []byte { return load.Payload(batch[i], 64+r) }); err != nil {
							t.Errorf("worker %d: SetBatch: %v", g, err)
							return
						}
						if !get("after SET") {
							return
						}
						for i := 0; i < own; i++ {
							if !hits[i] {
								t.Errorf("worker %d: own key %d missed right after its SET", g, batch[i])
							}
						}
						victim := rng.Intn(own)
						if _, err := c.Del(batch[victim]); err != nil {
							t.Errorf("worker %d: Del: %v", g, err)
							return
						}
						if _, err := c.Del(batch[own]); err != nil {
							t.Errorf("worker %d: Del (shared): %v", g, err)
							return
						}
						if !get("after DEL") {
							return
						}
						for i := 0; i < own; i++ {
							if hits[i] == (i == victim) {
								t.Errorf("worker %d: own key %d hit=%v after DEL of key %d", g, batch[i], hits[i], batch[victim])
							}
						}
					}
				}(g)
			}
			wg.Wait()
			for addr, n := range c.Snapshot().Members {
				if n.Redials != 0 {
					t.Errorf("member %s: %d redials without a fault", addr, n.Redials)
				}
			}
		})
	}
}

// faultConn fails one Read on demand. Armed, it waits for the next Write
// and fails the Read that follows it — the first read of a round trip's
// drain, so nothing of that sub-batch was delivered yet and round's
// replay-once rule is what must recover it.
type faultConn struct {
	net.Conn
	armed, wrote, fired atomic.Bool
}

func (f *faultConn) Write(p []byte) (int, error) {
	if f.armed.Load() {
		f.wrote.Store(true)
	}
	return f.Conn.Write(p)
}

func (f *faultConn) Read(p []byte) (int, error) {
	if f.wrote.Load() && f.armed.CompareAndSwap(true, false) {
		f.fired.Store(true)
		return 0, errors.New("faultConn: injected read error")
	}
	return f.Conn.Read(p)
}

// TestRouterConcurrentBatchesLaneFault breaks one lane's connection in the
// middle of a round while other batches are in flight on the member's
// other lanes. The failed sub-batch is replayed once on a fresh connection
// in its own lane; every batch, the failed one included, still sees each
// index exactly once with the right payload, nothing falls back to a
// replica, and the router's redial count rises by exactly one.
func TestRouterConcurrentBatchesLaneFault(t *testing.T) {
	addrs := startCluster(t, 3, 4096, 16)
	var victim *faultConn // the first connection to addrs[0]: its lane 0, dialed by Dial
	d := countingDial{wrap: func(addr string, n int, conn net.Conn) net.Conn {
		fc := &faultConn{Conn: conn}
		if addr == addrs[0] && n == 1 {
			victim = fc
		}
		return fc
	}}
	c, err := Dial(addrs, Options{Replicas: 2, Dial: d.dial})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := preload(t, c, 64)

	deadline := time.Now().Add(20 * time.Second)
	var armed bool
	var stopMu sync.Mutex
	hammer(t, c, 8, keys, func() bool {
		stopMu.Lock()
		defer stopMu.Unlock()
		// Arm only once the member has a second lane open, so the fault
		// lands while other batches hold other lanes of the same member.
		if !armed && d.atLeast(addrs[:1], 2) {
			victim.armed.Store(true)
			armed = true
		}
		return victim.fired.Load() || time.Now().After(deadline)
	})
	if !victim.fired.Load() {
		t.Fatalf("the fault never fired (armed=%v, dials %v)", armed, d.dials)
	}
	var redials uint64
	for _, n := range c.Snapshot().Members {
		redials += n.Redials
	}
	if redials != 1 {
		t.Errorf("%d redials after one injected lane failure, want 1", redials)
	}
	if fb := c.Snapshot().Replication.FallbackHits; fb != 0 {
		t.Errorf("%d fallback hits: the failed sub-batch was not replayed in its own lane", fb)
	}
}

// BenchmarkRouterParallel is the convoy in Go-native form: b.RunParallel
// callers share one router over 3 nodes at R=2, each running GetBatch(16)
// and a read-through SetBatch of 4 KiB values for what missed, on a key
// set twice the cluster's capacity. Run it with -cpu 1,2,4. lanes=1 is the
// ablated control (a member is one connection and one mutex, as before
// lanes); hypotheses/H8-router-lanes.md quotes both.
func BenchmarkRouterParallel(b *testing.B) {
	const k, universe, depth, valueSize = 2048, 3 * 2048, 16, 4096
	for _, n := range []int{1, 2, maxLanes} {
		b.Run(fmt.Sprintf("lanes=%d", n), func(b *testing.B) {
			lanes = n
			defer func() { lanes = maxLanes }()
			addrs := make([]string, 3)
			for i := range addrs {
				addrs[i] = startNode(b, k, 16, uint64(i+1))
			}
			c, err := Dial(addrs, Options{Replicas: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			var worker atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(worker.Add(1)))
				keys := make([]uint64, depth)
				missed := make([]uint64, 0, depth)
				for pb.Next() {
					for i := range keys {
						keys[i] = uint64(rng.Intn(universe))
					}
					missed = missed[:0]
					err := c.GetBatch(keys, func(i int, hit bool, _ []byte) {
						if !hit {
							missed = append(missed, keys[i])
						}
					})
					if err == nil && len(missed) > 0 {
						err = c.SetBatch(missed, func(i int) []byte { return load.Payload(missed[i], valueSize) })
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.ReportMetric(float64(b.N*depth)/b.Elapsed().Seconds(), "gets/s")
		})
	}
}
