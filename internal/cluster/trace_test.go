package cluster

import (
	"net"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TestTraceEndToEnd pins the tentpole acceptance path on a live 2-node
// replicated cluster: a traced read whose primary is stale takes the
// full route — router → primary (MISS) → fallback owner (HIT) → read
// repair PUT back at the primary — and every hop, including the repair
// the router sends after answering, records a span under the same trace ID.
// Joining the per-node METRICS on that ID reconstructs the cross-node
// path, the primary's slow-op ring joins to it too, and the sampled
// HOTKEYS section ranks the planted hot key first on every owner, with
// the merged count within its stated bound.
func TestTraceEndToEnd(t *testing.T) {
	srvs := make(map[string]*server.Server, 2)
	addrs := make([]string, 2)
	for i := range addrs {
		cache, err := concurrent.New(concurrent.Config{Capacity: 4096, Alpha: 8, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(cache)
		srv.SetSlowOpThreshold(time.Nanosecond) // every op is "slow": the join must still pick the right one
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = ln.Addr().String()
		srvs[addrs[i]] = srv
	}
	ctl, err := Dial(addrs, Options{Replicas: 2, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	// Plant the hot key: its SETs fan out to both owners, so both rank it
	// in their SET class; the noise keys get a tenth of its traffic. The
	// sketches see a 1-in-telemetry.SampleWeight sample, so the counts are
	// large enough for the ranking to stand clear of the sampling slack.
	const hotKey, hotSets = 99, 800
	for i := 0; i < hotSets; i++ {
		if err := ctl.Set(hotKey, []byte("hot")); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 10; k++ {
		for i := 0; i < hotSets/10; i++ {
			if err := ctl.Set(1000+k, []byte("cold")); err != nil {
				t.Fatal(err)
			}
		}
	}

	owners := ctl.Owners(hotKey)
	if len(owners) != 2 {
		t.Fatalf("hot key has %d owners, want 2", len(owners))
	}
	primary := owners[0]

	// Make the primary stale behind the router's back, then read: the
	// traced GET misses the primary, hits the fallback owner, and queues
	// a read repair of the primary under the same trace.
	direct, err := wire.Dial(primary)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := direct.Del(hotKey); err != nil {
		direct.Close()
		t.Fatal(err)
	}
	direct.Close()
	val, hit, err := ctl.Get(hotKey)
	if err != nil || !hit || string(val) != "hot" {
		t.Fatalf("fallback read = %q/%v/%v, want a hit on %q", val, hit, err, "hot")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		all, err := ctl.MetricsAll(wire.MetricsAll)
		if err != nil {
			t.Fatal(err)
		}
		// The repair is the only PUT the primary ever served; its span's
		// trace ID is the original GET's.
		var tid telemetry.TraceID
		for _, sp := range all[primary].Spans {
			if sp.Op == byte(wire.OpPut) {
				tid = sp.TraceID
			}
		}
		if tid.IsZero() {
			if time.Now().After(deadline) {
				t.Fatalf("the repair's PUT span never appeared on the primary (%d spans there)", len(all[primary].Spans))
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}

		// The trace joins across both nodes: the primary holds the MISS
		// and the repair, the fallback owner holds the HIT.
		for _, addr := range addrs {
			found := false
			for _, sp := range all[addr].Spans {
				if sp.TraceID == tid {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("node %s recorded no span for trace %s — the cross-node join is broken", addr, tid)
			}
		}

		// The aggregate groups the trace's spans contiguously; the full
		// path is at least MISS + HIT + repair PUT.
		agg := AggregateMetrics(all)
		var pathLen int
		for _, sp := range agg.Spans {
			if sp.TraceID == tid {
				pathLen++
			}
		}
		if pathLen < 3 {
			t.Errorf("aggregate holds %d spans for trace %s, want the full ≥3-hop path", pathLen, tid)
		}

		// The primary's slow-op ring joins to the same trace (the traced
		// MISS crossed the 1ns threshold).
		joined := false
		for _, r := range all[primary].SlowOps {
			if r.TraceID == tid {
				joined = true
				break
			}
		}
		if !joined {
			t.Error("no slow-op record on the primary joins the trace ID")
		}

		// Hot-key attribution: the planted key ranks first in the SET
		// class on every owner, and in the merged cluster view.
		wantHash := telemetry.HashKey(hotKey)
		for _, addr := range addrs {
			hs := all[addr].HotClass(wire.HotSet)
			if len(hs) == 0 || hs[0].Key != wantHash {
				t.Errorf("node %s does not rank the planted hot key first in its SET class", addr)
			}
		}
		if hs := agg.HotClass(wire.HotSet); len(hs) == 0 || hs[0].Key != wantHash {
			t.Error("the merged cluster view does not rank the planted hot key first")
		} else if n, slack := 2*hotSets, telemetry.SampleSlack(2*hotSets); float64(n) > float64(hs[0].Count)+slack ||
			float64(n) < float64(hs[0].Count)-float64(hs[0].Err)-slack {
			// Both owners took every SET: the merged estimate brackets
			// 2×hotSets within Err plus the sampling slack of the sum.
			t.Errorf("merged hot-key count = %d ± %d, true %d outside the ±%.0f sampling bound", hs[0].Count, hs[0].Err, n, slack)
		}
		return
	}
}

// TestTraceSampling pins the sampling contract: TraceSample = N stamps
// exactly every N-th batch, and TraceSample = 0 sends no trace bytes at
// all (the member span rings stay empty).
func TestTraceSampling(t *testing.T) {
	addrs := startCluster(t, 2, 1024, 8)

	ctl, err := Dial(addrs, Options{TraceSample: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := ctl.Set(uint64(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	all, err := ctl.MetricsAll(wire.MetricsTraces)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Close()
	spans := 0
	seen := make(map[telemetry.TraceID]bool)
	for _, m := range all {
		spans += len(m.Spans)
		for _, sp := range m.Spans {
			if seen[sp.TraceID] {
				t.Errorf("trace ID %s minted twice for distinct batches", sp.TraceID)
			}
			seen[sp.TraceID] = true
		}
	}
	if spans != 10 {
		t.Errorf("40 single-key batches at TraceSample=4 produced %d spans, want 10", spans)
	}

	ctl, err = Dial(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	for i := 0; i < 20; i++ {
		if _, _, err := ctl.Get(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	all, err = ctl.MetricsAll(wire.MetricsTraces)
	if err != nil {
		t.Fatal(err)
	}
	for addr, m := range all {
		for _, sp := range m.Spans {
			if seen[sp.TraceID] {
				continue // left over from the sampled client's phase
			}
			t.Errorf("untraced client produced span %s on %s", sp.TraceID, addr)
		}
	}
}
