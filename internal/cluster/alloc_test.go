package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/load"
	"repro/internal/wire"
)

// TestRouterGetBatchAllocs gates the router's GetBatch fan-out at zero heap
// allocations per batch in steady state, at R = 1 and R = 2 alike: the
// replica count is a setting of the one read pipeline, not a separate
// lane, so the owner table, the sub-batches and the work lists all live in
// the pooled batchScratch, the member locks are taken without closures,
// and the wire codec underneath is allocation-free. AllocsPerRun counts
// process-global mallocs, so the member servers' request handling is
// inside the gate too.
func TestRouterGetBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates per operation; alloc gate runs without -race")
	}
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", replicas), func(t *testing.T) {
			addrs := startCluster(t, 2, 4096, 16)
			c, err := Dial(addrs, Options{Replicas: replicas})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			keys := make([]uint64, 16)
			for i := range keys {
				keys[i] = uint64(i)
				if err := c.Set(keys[i], []byte("payload-64-bytes")); err != nil {
					t.Fatal(err)
				}
			}
			var missed int
			visit := func(i int, hit bool, value []byte) {
				if !hit {
					missed++
				}
			}
			run := func() {
				if err := c.GetBatch(keys, visit); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ {
				run()
			}
			if allocs := testing.AllocsPerRun(200, run); allocs > 0.1 {
				t.Errorf("GetBatch(16 keys, 2 nodes, R=%d) allocates %.2f objects/batch, want 0", replicas, allocs)
			}
			if missed > 0 {
				t.Errorf("%d unexpected misses on resident keys", missed)
			}
		})
	}
}

// TestRouterSetBatchAllocs is the SET twin: what a SetBatch allocates does
// not grow with R beyond the member servers' own two objects per stored
// copy, because each payload is produced once per key — not once per
// owner, and not again for the repair or the near-cache. The producer here
// allocates a fresh payload per call, as a read-through caller's does, so
// a second call per key shows both in the call count and in the gate.
func TestRouterSetBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates per operation; alloc gate runs without -race")
	}
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", replicas), func(t *testing.T) {
			addrs := startCluster(t, 2, 4096, 16)
			c, err := Dial(addrs, Options{Replicas: replicas})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			keys := make([]uint64, 16)
			for i := range keys {
				keys[i] = uint64(i)
			}
			var produced int
			value := func(i int) []byte {
				produced++
				return load.Payload(keys[i], 64)
			}
			run := func() {
				if err := c.SetBatch(keys, value); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ {
				run()
			}
			produced = 0
			const runs = 200
			allocs := testing.AllocsPerRun(runs, run)
			// AllocsPerRun makes one warm-up call besides the measured ones.
			if want := (runs + 1) * len(keys); produced != want {
				t.Errorf("R=%d: %d payloads produced for %d SETs, want one per key", replicas, produced, want)
			}
			// One payload per key from the producer, two objects per stored
			// copy in the servers (TestSetRoundTripAllocs), nothing else.
			if limit := float64(len(keys)*(1+2*replicas)) + 0.5; allocs > limit {
				t.Errorf("SetBatch(16 keys, 2 nodes, R=%d) allocates %.2f objects/batch, want ≤ %.0f", replicas, allocs, limit)
			}
		})
	}
}

// TestLeaseRedialUsesConfiguredDialer pins the Options.Dial plumbing — and
// with it Options.DialTimeout, which Dial folds into the default dialer —
// on the lease replay path: when a leased batch loses its connection and
// replays through a redial, that redial must go through the configured
// dialer, not the package default.
func TestLeaseRedialUsesConfiguredDialer(t *testing.T) {
	addrs := startCluster(t, 1, 4096, 16)
	var dials atomic.Int32
	c, err := Dial(addrs, Options{
		Leases: true,
		Dial: func(addr string) (*wire.Client, error) {
			dials.Add(1)
			return wire.Dial(addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Set(1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(1); err != nil || !ok {
		t.Fatalf("seed read: ok=%v err=%v", ok, err)
	}
	n := dials.Load()
	if n == 0 {
		t.Fatal("configured dialer was never used for the initial connection")
	}
	// Kill the member connections behind the router's back; the next
	// leased read fails its flush and must replay through a redial.
	c.mu.RLock()
	for _, nc := range c.nodes {
		for i := range nc.lanes {
			ln := &nc.lanes[i]
			ln.mu.Lock()
			if ln.cl != nil {
				ln.cl.Close()
			}
			ln.mu.Unlock()
		}
	}
	c.mu.RUnlock()
	if _, ok, err := c.Get(1); err != nil || !ok {
		t.Fatalf("leased read after connection kill: ok=%v err=%v", ok, err)
	}
	if got := dials.Load(); got != n+1 {
		t.Errorf("dialer used %d times after redial, want %d — the lease replay path bypassed Options.Dial", got, n+1)
	}
}
