package server

import (
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TestMetricsEndToEnd drives known traffic at a server and checks the
// METRICS response accounts for every operation: per-op histogram counts
// match the ops issued, quantiles land in a sane range, counters move,
// and unselected sections stay absent.
func TestMetricsEndToEnd(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 256, Alpha: 4, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const sets, gets, dels = 40, 100, 7
	for i := 0; i < sets; i++ {
		if _, err := c.Set(uint64(i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < gets; i++ {
		if _, _, err := c.Get(uint64(i % 50)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < dels; i++ {
		if _, _, err := c.Del(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	m, err := c.Metrics(wire.MetricsAll)
	if err != nil {
		t.Fatal(err)
	}
	if m.Flags != wire.MetricsAll {
		t.Errorf("flags = %v, want %v", m.Flags, wire.MetricsAll)
	}
	for _, want := range []struct {
		id byte
		n  uint64
	}{
		{byte(wire.OpGet), gets},
		{byte(wire.OpSet), sets},
		{byte(wire.OpDel), dels},
	} {
		h := m.Hist(want.id)
		if h == nil {
			t.Fatalf("no %s histogram", wire.HistName(want.id))
		}
		if h.Count != want.n {
			t.Errorf("%s histogram Count = %d, want %d", wire.HistName(want.id), h.Count, want.n)
		}
		// Loopback service times: above 0, below a second.
		if p99 := h.Quantile(0.99); p99 <= 0 || p99 > time.Second {
			t.Errorf("%s p99 = %v, implausible", wire.HistName(want.id), p99)
		}
	}
	if m.Counter(wire.CounterBytesIn) == 0 || m.Counter(wire.CounterBytesOut) == 0 {
		t.Error("byte counters did not move")
	}
	if m.Counter(wire.CounterConns) != 1 {
		t.Errorf("CONNS = %d, want 1", m.Counter(wire.CounterConns))
	}
	// The cache counters ride in the same section, every one of them.
	st := m.Stats()
	if st.Hits+st.Misses != gets || st.Sets != sets || st.Tombstones != dels || st.Capacity != 256 || st.Buckets != 64 {
		t.Errorf("counter view = %+v, want %d GETs, %d SETs, %d tombstones over 64 buckets", st, gets, sets, dels)
	}
	if len(m.Counters) != 23 || wire.CounterName(m.Counters[22].ID) != "MIGRATING" {
		t.Errorf("server sent %d counters, want all 23 through MIGRATING", len(m.Counters))
	}
	if len(st.Occupancy) != int(st.Buckets) {
		t.Errorf("%d occupancies for %d buckets", len(st.Occupancy), st.Buckets)
	}

	// Section selection: a counters-only request must carry no histograms
	// or slow ops.
	m, err = c.Metrics(wire.MetricsCounters)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Hists) != 0 || len(m.SlowOps) != 0 || len(m.Occupancy) != 0 || len(m.Counters) == 0 {
		t.Errorf("counters-only response carries hists=%d slowops=%d occupancies=%d counters=%d",
			len(m.Hists), len(m.SlowOps), len(m.Occupancy), len(m.Counters))
	}
}

// TestMetricsCoversEveryOpcode drives each request opcode once and then
// round-trips METRICS: whatever op the server counts a histogram for must
// be exportable (a histogram ID the METRICS codec refuses kills the
// connection), so a node that has served any mix of traffic stays
// observable.
func TestMetricsCoversEveryOpcode(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ls, err := c.GetLease(1)
	if err != nil || ls.Token == 0 {
		t.Fatalf("GETL = %+v/%v, want a grant", ls, err)
	}
	steps := map[wire.Op]func() error{
		wire.OpGetLease: func() error { return nil }, // driven above, for the token
		wire.OpFill:     func() error { _, _, err := c.Fill(1, ls.Token, []byte("fill")); return err },
		wire.OpGet:      func() error { _, _, err := c.Get(1); return err },
		wire.OpSet:      func() error { _, err := c.Set(2, []byte("set")); return err },
		wire.OpPut:      func() error { _, _, err := c.Put(wire.Request{Key: 3, Version: 9, Value: []byte("put")}); return err },
		wire.OpDel:      func() error { _, _, err := c.Del(2); return err },
		wire.OpHint:     func() error { return c.Hint("127.0.0.1:1", 4, false, 9, []byte("hint")) },
		wire.OpKeys:     func() error { _, err := c.Keys(); return err },
		wire.OpTopology: func() error { _, err := c.Topology(wire.Topology{Epoch: 1, Members: []string{addr}}); return err },
		// METRICS is observed after its response is written, so the first
		// call seeds the histogram the second one carries.
		wire.OpMetrics: func() error { _, err := c.Metrics(wire.MetricsCounters); return err },
	}
	for op := wire.OpGet; op <= wire.OpLast; op++ {
		if op == 4 || op == 5 || op == 7 {
			continue // STATS until v11, REHASH until v15 and MEMBERS until v12, never reassigned
		}
		step, ok := steps[op]
		if !ok {
			t.Fatalf("no step drives %v: extend this test with the new opcode", op)
		}
		if err := step(); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
	}
	m, err := c.Metrics(wire.MetricsHistograms)
	if err != nil {
		t.Fatalf("METRICS after every opcode was served: %v", err)
	}
	for op := range steps {
		if h := m.Hist(byte(op)); h == nil || h.Count == 0 {
			t.Errorf("no %v histogram in the METRICS response", op)
		}
	}
	if _, _, err := c.Get(1); err != nil {
		t.Fatalf("connection unusable after METRICS: %v", err)
	}
}

// TestSlowOpLog drops the threshold to zero-distance so every op is
// "slow", then checks the ring retains op, key hash, duration and
// version — and that the key never appears verbatim.
func TestSlowOpLog(t *testing.T) {
	srv, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	srv.SetSlowOpThreshold(time.Nanosecond) // everything qualifies
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const key = 777
	if _, err := c.Set(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	// The stored version (which the SET's slow-op record must carry) is
	// readable back through a versioned GET.
	var ver uint64
	if err := c.GetBatchVersions([]uint64{key}, func(_ int, hit bool, v uint64, _ []byte) {
		if hit {
			ver = v
		}
	}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(wire.MetricsSlowOps | wire.MetricsCounters)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.SlowOps) == 0 {
		t.Fatal("no slow ops recorded at a 1ns threshold")
	}
	var found bool
	for _, r := range m.SlowOps {
		if r.KeyHash == key {
			t.Error("slow-op log stores the raw key, want a scrambled hash")
		}
		if r.Op == byte(wire.OpSet) && r.KeyHash == telemetry.HashKey(key) {
			found = true
			if r.DurationNanos == 0 {
				t.Error("slow-op record lost its duration")
			}
			if r.Version != ver {
				t.Errorf("slow-op version = %d, want %d", r.Version, ver)
			}
			if r.UnixNanos == 0 {
				t.Error("slow-op record lost its timestamp")
			}
		}
	}
	if !found {
		t.Error("the SET never reached the slow-op ring")
	}
	if got := m.Counter(wire.CounterSlowOps); got != uint64(len(m.SlowOps)) {
		t.Errorf("SLOW_OPS counter = %d, ring holds %d", got, len(m.SlowOps))
	}

	// Disabling the threshold stops the ring from growing.
	srv.SetSlowOpThreshold(0)
	before := srv.slow.Total()
	if _, _, err := c.Get(key); err != nil {
		t.Fatal(err)
	}
	if srv.slow.Total() != before {
		t.Error("slow-op ring grew with the threshold disabled")
	}
}

// TestSpansAndHotKeys drives a mix of traced and untraced traffic at a
// server and checks the v6 flight-recorder additions: only traced
// requests land in the span ring (with op, status, key hash, and the
// propagated trace ID) — a maintenance PUT sent on a trace's behalf
// included — and the sampled hot-key sketches rank a planted hot key
// first in its class, with every top count within its stated bound,
// while never spelling the raw key.
func TestSpansAndHotKeys(t *testing.T) {
	_, addr := startServer(t, concurrent.Config{Capacity: 256, Alpha: 4, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const hotKey = 42
	trace := telemetry.TraceID{0xAB}
	gets, sets := make(map[uint64]uint64), make(map[uint64]uint64)

	// One traced GET, the trace's read repair (a PUT on another key), and
	// piles of untraced GETs and SETs skewed at the hot key.
	if _, err := c.Set(hotKey, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	sets[telemetry.HashKey(hotKey)]++
	if err := c.Enqueue(wire.Request{Op: wire.OpGet, Key: hotKey, Trace: trace}); err != nil {
		t.Fatal(err)
	}
	gets[telemetry.HashKey(hotKey)]++
	const repairedKey = 123
	if err := c.Enqueue(wire.Request{Op: wire.OpPut, Key: repairedKey, Version: 7, Trace: trace, Value: []byte("r")}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.ReadResponse(); err != nil {
			t.Fatal(err)
		}
	}
	skewed := func(n int, exact map[uint64]uint64, send func([]uint64) error) {
		keys := make([]uint64, 0, 16)
		for i := 0; i < n; i++ {
			k := uint64(i % 10)
			if i%2 == 0 {
				k = hotKey
			}
			exact[telemetry.HashKey(k)]++
			if keys = append(keys, k); len(keys) == cap(keys) {
				if err := send(keys); err != nil {
					t.Fatal(err)
				}
				keys = keys[:0]
			}
		}
	}
	skewed(6400, gets, func(keys []uint64) error { return c.GetBatch(keys, func(int, bool, []byte) {}) })
	skewed(1600, sets, func(keys []uint64) error {
		return c.SetBatch(keys, func(int) []byte { return []byte("v") })
	})

	m, err := c.Metrics(wire.MetricsTraces | wire.MetricsHotKeys)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Spans) != 2 {
		t.Fatalf("span ring holds %d spans, want exactly the two traced requests", len(m.Spans))
	}
	for _, sp := range m.Spans {
		if sp.TraceID != trace {
			t.Errorf("span trace ID = %s, want %s", sp.TraceID, trace)
		}
	}
	if put := m.Spans[1]; put.Op != byte(wire.OpPut) || put.Status != byte(wire.StatusOK) ||
		put.KeyHash != telemetry.HashKey(repairedKey) {
		t.Errorf("PUT span = op %d status %d key hash %d, want PUT/OK/%d",
			put.Op, put.Status, put.KeyHash, telemetry.HashKey(repairedKey))
	}
	sp := m.Spans[0]
	if sp.Op != byte(wire.OpGet) || sp.Status != byte(wire.StatusHit) {
		t.Errorf("span op/status = %d/%d, want GET/HIT", sp.Op, sp.Status)
	}
	if sp.KeyHash != telemetry.HashKey(hotKey) {
		t.Errorf("span key hash = %d, want scrambled %d", sp.KeyHash, telemetry.HashKey(hotKey))
	}
	if sp.DurationNanos == 0 || sp.UnixNanos == 0 {
		t.Error("span lost its timing")
	}

	checkHotClass(t, "GET", m.HotClass(wire.HotGet), gets)
	checkHotClass(t, "SET", m.HotClass(wire.HotSet), sets)
	for _, e := range m.HotClass(wire.HotGet) {
		if e.Key == hotKey {
			t.Error("hot-key sketch stores the raw key, want a scrambled hash")
		}
	}
}

// checkHotClass holds one class of a sampled hot-key sketch to what the
// server documents, against exact, the true occurrences per scrambled
// key: a key with the most occurrences ranks first, and each of the top
// 10 entries brackets its true count n as Count − Err − SampleSlack(n) ≤
// n ≤ Count + SampleSlack(n).
func checkHotClass(t *testing.T, class string, got telemetry.TopKSnapshot, exact map[uint64]uint64) {
	t.Helper()
	if len(got) == 0 {
		t.Fatalf("%s hot-key class is empty", class)
	}
	var hotN uint64
	for _, n := range exact {
		hotN = max(hotN, n)
	}
	if exact[got[0].Key] != hotN {
		t.Errorf("%s class ranks %x first (Count %d, %d occurrences), want a key with the most, %d", class, got[0].Key, got[0].Count, exact[got[0].Key], hotN)
	}
	for i, e := range got.Top(10) {
		n, slack := exact[e.Key], telemetry.SampleSlack(exact[e.Key])
		if float64(n) > float64(e.Count)+slack || float64(n) < float64(e.Count)-float64(e.Err)-slack {
			t.Errorf("%s class entry %d (%x): Count %d Err %d, true %d outside the bound (slack %.0f)", class, i, e.Key, e.Count, e.Err, n, slack)
		}
	}
}

// TestTracedSlowOpIsOneRecord pins that a request both traced and slow
// leaves one record: its entry in the slow ring and its entry in the span
// ring are equal field for field, wall-clock time and trace ID included.
func TestTracedSlowOpIsOneRecord(t *testing.T) {
	srv, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.SetSlowOpThreshold(0) // the untraced SET stays out of both rings
	if _, err := c.Set(3, []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv.SetSlowOpThreshold(time.Nanosecond) // everything qualifies
	trace := telemetry.TraceID{0x5A, 15: 0xA5}
	if err := c.Enqueue(wire.Request{Op: wire.OpGet, Key: 3, Trace: trace}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadResponse(); err != nil {
		t.Fatal(err)
	}
	srv.SetSlowOpThreshold(0) // the METRICS read below stays out of the ring
	m, err := c.Metrics(wire.MetricsSlowOps | wire.MetricsTraces)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.SlowOps) != 1 || len(m.Spans) != 1 {
		t.Fatalf("slow ring holds %d records and span ring %d, want 1 and 1", len(m.SlowOps), len(m.Spans))
	}
	slow, span := m.SlowOps[0], m.Spans[0]
	if slow != span {
		t.Errorf("slow-ring record %+v differs from span-ring record %+v", slow, span)
	}
	if span.TraceID != trace || span.Op != byte(wire.OpGet) || span.Status != byte(wire.StatusHit) ||
		span.KeyHash != telemetry.HashKey(3) || span.Version == 0 || span.DurationNanos == 0 || span.UnixNanos == 0 {
		t.Errorf("record = %+v, want a traced GET hit of key 3 with its version and timing", span)
	}
}

// TestSlowOpTraceJoin pins the join the debugging walkthrough relies
// on: a traced request that crosses the slow threshold leaves a slow-op
// record carrying its trace ID, while untraced slow ops carry zero.
func TestSlowOpTraceJoin(t *testing.T) {
	srv, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 1})
	srv.SetSlowOpThreshold(time.Nanosecond) // everything qualifies
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	trace := telemetry.TraceID{5: 0x77}
	if err := c.Enqueue(wire.Request{Op: wire.OpSet, Key: 9, Trace: trace, Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadResponse(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(9); err != nil { // untraced slow op
		t.Fatal(err)
	}

	m, err := c.Metrics(wire.MetricsSlowOps)
	if err != nil {
		t.Fatal(err)
	}
	var traced, untraced bool
	for _, r := range m.SlowOps {
		switch {
		case r.Op == byte(wire.OpSet) && r.TraceID == trace:
			traced = true
		case r.Op == byte(wire.OpGet) && r.TraceID.IsZero():
			untraced = true
		}
	}
	if !traced {
		t.Error("the traced SET's slow-op record lost its trace ID")
	}
	if !untraced {
		t.Error("the untraced GET's slow-op record should carry a zero trace ID")
	}
}
