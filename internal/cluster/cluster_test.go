package cluster

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// startNode boots one cached node on loopback and returns its address.
func startNode(t testing.TB, k, alpha int, seed uint64) string {
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
	return ln.Addr().String()
}

func startCluster(t testing.TB, n, k, alpha int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = startNode(t, k, alpha, uint64(i+1))
	}
	return addrs
}

// TestClusterCountsMatch drives 3 nodes through the routing client via the
// load harness and asserts the client-observed hit/miss/set counts equal
// the sum of the per-node server counters exactly.
func TestClusterCountsMatch(t *testing.T) {
	const k = 4096
	addrs := startCluster(t, 3, k, 16)
	ctl, err := Dial(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	keys := workload.Zipf{Universe: 2 * k, S: 0.9, Shuffle: true}.Generate(30_000, 7)
	res, err := load.Run(load.Config{
		Dial:        func() (load.Conn, error) { return Dial(addrs, Options{}) },
		Conns:       4,
		Keys:        keys,
		Pipeline:    16,
		ValueSize:   32,
		ReadThrough: true,
		Verify:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != len(keys) {
		t.Fatalf("ops = %d, want %d", res.Ops, len(keys))
	}
	if res.Corrupt != 0 {
		t.Fatalf("%d corrupt payloads", res.Corrupt)
	}

	stats, err := ctl.StatsAll(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("STATS fan-out returned %d nodes, want 3", len(stats))
	}
	agg := AggregateStats(stats)
	if int(agg.Hits) != res.Hits || int(agg.Misses) != res.Misses {
		t.Errorf("server hits/misses = %d/%d, client observed %d/%d",
			agg.Hits, agg.Misses, res.Hits, res.Misses)
	}
	if int(agg.Capacity) != 3*k {
		t.Errorf("aggregate capacity = %d, want %d", agg.Capacity, 3*k)
	}
	// Every node should have absorbed a nontrivial share of the traffic.
	for addr, st := range stats {
		if st.Hits+st.Misses == 0 {
			t.Errorf("node %s saw no traffic", addr)
		}
	}
}

// TestRemoveNodeUnderLiveTraffic retires a member while GET traffic is
// flowing and checks the migration accounting: every key present before the
// removal is either still readable afterwards or accounted for by the
// drop count or an eviction counter.
func TestRemoveNodeUnderLiveTraffic(t *testing.T) {
	const k = 4096
	const nkeys = 3000
	addrs := startCluster(t, 3, k, 16)
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

	before, err := ctl.StatsAll(false)
	if err != nil {
		t.Fatal(err)
	}
	victim := addrs[0]
	residents := int(before[victim].Len)
	if residents == 0 {
		t.Fatalf("victim node %s holds no keys; ring is degenerate", victim)
	}

	// Live GET-only traffic through the same router while the member
	// leaves. GETs never evict, so they do not perturb the accounting.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	trafficErr := make(chan error, 4)
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
				for j := range batch {
					batch[j] = keys[(w*31+i*16+j)%nkeys]
				}
				if err := ctl.GetBatch(batch, func(int, bool, []byte) {}); err != nil {
					trafficErr <- err
					return
				}
			}
		}(w)
	}

	moved, dropped, err := ctl.RemoveNode(victim)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-trafficErr:
		t.Fatalf("live traffic failed during RemoveNode: %v", err)
	default:
	}
	if got := len(ctl.Nodes()); got != 2 {
		t.Fatalf("cluster has %d members after RemoveNode, want 2", got)
	}
	if moved+dropped < residents {
		t.Errorf("migration handled %d+%d keys, victim held %d", moved, dropped, residents)
	}

	present := 0
	if err := ctl.GetBatch(keys, func(_ int, hit bool, _ []byte) {
		if hit {
			present++
		}
	}); err != nil {
		t.Fatal(err)
	}

	after, err := ctl.StatsAll(false)
	if err != nil {
		t.Fatal(err)
	}
	// Keys can vanish only through the migration's drop count or an
	// eviction some counter accounts for: survivor evictions during the
	// re-SETs, or victim evictions before the snapshot (covered by the
	// before-stats). Victim evictions between snapshot and removal are
	// impossible under GET-only traffic.
	accounted := dropped
	for addr, st := range after {
		accounted += int(st.Evictions - before[addr].Evictions)
	}
	absent := nkeys - present
	if absent > accounted {
		t.Errorf("%d keys lost but only %d accounted for (moved=%d dropped=%d)",
			absent, accounted, moved, dropped)
	}
}

// TestRouterReconnect restarts a member on the same address and checks the
// router transparently redials it, at every point of the settings matrix
// (the shared body is memberFault, in replication_test.go).
func TestRouterReconnect(t *testing.T) {
	forEachSetting(t, func(t *testing.T, opts Options) { memberFault(t, opts, false) })
}

// stallConn freezes reads that occur inside a wall-clock window, emulating
// a server stall from the client's point of view.
type stallConn struct {
	net.Conn
	from, until time.Time
}

func (s stallConn) Read(p []byte) (int, error) {
	if now := time.Now(); now.After(s.from) && now.Before(s.until) {
		time.Sleep(time.Until(s.until))
	}
	return s.Conn.Read(p)
}

// TestOpenLoopCoordinatedOmissionSafety injects a 300ms stall into every
// cluster connection and compares closed-loop and open-loop percentiles.
// The closed loop stops offering load while stalled, records one slow
// batch, and reports a low p99 — the coordinated-omission artifact. The
// open loop keeps its arrival schedule, charges every batch intended
// during the stall with the delay it actually suffered, and reports the
// stall in its p99.
func TestOpenLoopCoordinatedOmissionSafety(t *testing.T) {
	const k = 4096
	addrs := startCluster(t, 3, k, 16)

	keys := workload.Uniform{Universe: k}.Generate(6000, 7)
	const stall = 300 * time.Millisecond

	run := func(openLoop bool) load.Result {
		t.Helper()
		from := time.Now().Add(30 * time.Millisecond)
		until := from.Add(stall)
		dial := func(addr string) (*wire.Client, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return wire.NewClient(stallConn{Conn: conn, from: from, until: until})
		}
		cfg := load.Config{
			Dial:        func() (load.Conn, error) { return Dial(addrs, Options{Dial: dial}) },
			Conns:       1,
			Keys:        keys,
			Pipeline:    8,
			ValueSize:   32,
			ReadThrough: true,
		}
		if openLoop {
			cfg.OpenLoop = true
			cfg.Rate = 10_000
		}
		res, err := load.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	closed := run(false)
	open := run(true)

	if closed.Latency.P99 >= stall/2 {
		t.Errorf("closed-loop p99 = %v; expected the stall to be hidden (< %v)",
			closed.Latency.P99, stall/2)
	}
	if open.Latency.P99 < stall/3 {
		t.Errorf("open-loop p99 = %v; expected the %v stall to surface (≥ %v)",
			open.Latency.P99, stall, stall/3)
	}
	if open.Latency.P99 < 2*closed.Latency.P99 {
		t.Errorf("open-loop p99 %v does not diverge from closed-loop p99 %v under a stall",
			open.Latency.P99, closed.Latency.P99)
	}
}
