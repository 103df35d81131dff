package server

import (
	"net"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/load"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/workload"
)

// benchServer boots a loopback server for the round-trip alloc gates and
// returns its address.
func benchServer(tb testing.TB) string {
	tb.Helper()
	cache, err := concurrent.New(concurrent.Config{Capacity: 1 << 12, Alpha: 16, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	srv := New(cache)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// benchClient boots a loopback server and dials one wire client at it: the
// steady-state round trip the PR 9 alloc gates measure. The value is sized
// like the harness default (64 B payload).
func benchClient(tb testing.TB) *wire.Client {
	tb.Helper()
	c, err := wire.Dial(benchServer(tb))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// TestGetRoundTripAllocs gates the steady-state GET hit round trip at zero
// heap allocations per op — across BOTH ends: AllocsPerRun counts
// process-global mallocs, so the server goroutine's decode/lookup/encode
// is inside the gate, not just the client codec. GetShared is the
// zero-copy read; plain Get adds exactly the one documented copy; a
// 16-deep GetBatch on the direct client is allocation-free per batch (the
// router's batches are TestRouterGetBatchAllocs's), also when every value
// is 4 KiB, which the server copies into its frame buffer under the set
// lock.
func TestGetRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates per operation; alloc gate runs without -race")
	}
	c := benchClient(t)
	if _, err := c.Set(42, wirePayload(64)); err != nil {
		t.Fatal(err)
	}
	// batch(base, size) stores 16 keys from base with size-byte values.
	batch := func(base uint64, size int) []uint64 {
		keys := make([]uint64, 16)
		for i := range keys {
			keys[i] = base + uint64(i)
			if _, err := c.Set(keys[i], wirePayload(size)); err != nil {
				t.Fatal(err)
			}
		}
		return keys
	}
	small, large := batch(0, 64), batch(100, 4<<10)
	hit := func(v []byte, ok bool, err error) {
		if err != nil || !ok || len(v) != 64 {
			t.Fatalf("get: ok=%v len=%d err=%v", ok, len(v), err)
		}
	}
	getBatch := func(keys []uint64, size int) func() {
		visit := func(i int, ok bool, v []byte) {
			if !ok || len(v) != size {
				t.Fatalf("get %d: ok=%v len=%d, want %d", keys[i], ok, len(v), size)
			}
		}
		return func() {
			if err := c.GetBatch(keys, visit); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, row := range []struct {
		name string
		want float64 // allocations per call
		call func()
	}{
		{"GetShared", 0, func() { hit(c.GetShared(42)) }},
		{"Get", 1, func() { hit(c.Get(42)) }},
		{"GetBatch16", 0, getBatch(small, 64)},
		{"GetBatch16/4KiB", 0, getBatch(large, 4<<10)},
	} {
		// Warm the path: the first vectored write allocates the connection's
		// iovec array, and the codec buffers grow to their steady size.
		for i := 0; i < 128; i++ {
			row.call()
		}
		if allocs := testing.AllocsPerRun(400, row.call); allocs > row.want+0.1 {
			t.Errorf("%s hit round trip allocates %.2f objects/call, want ≤%.0f", row.name, allocs, row.want)
		}
	}
}

// TestRecordShareOfGetP50 holds one histogram Record (a
// testing.Benchmark, as BenchmarkRecord in internal/telemetry) to ≤5% of
// the server's own GET service-time p50 (see shareOfGetP50).
func TestRecordShareOfGetP50(t *testing.T) {
	var h telemetry.Histogram
	shareOfGetP50(t, "histogram Record", 0.05, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Record(time.Duration(i%1_000_000) * time.Microsecond)
		}
	})
}

// observeBudget bounds the whole cost of looking at a GET as a share of
// its p50. The clock sets it: one monotonic read costs 43–54 ns on a
// 2-vCPU VM whose raw RDTSC takes 21 ns, 9–23% of a 230–490 ns GET p50 on
// its own, and a per-request service-time histogram cannot take fewer
// than one read per request. Everything else observe does costs about
// 20 ns (BenchmarkObserve minus BenchmarkMonoNow); the whole path reads
// 15–24%. The request loop before sampling paid 230–300 ns, 63–94%: an
// unsampled sketch Record (~100 ns on this stream) brought back takes the
// path past the budget at any p50 seen, time.Now plus time.Since (~75 ns
// more) at any p50 under 520 ns.
const observeBudget = 0.25

// TestObserveShareOfGetP50 prices everything a GET pays for being
// watched, not one Record of it: BenchmarkObserve — the request loop's
// clock read and Server.observe with its histogram Record, sampler,
// HashKey and weighted sketch Record — against observeBudget of the
// server's GET p50.
func TestObserveShareOfGetP50(t *testing.T) {
	shareOfGetP50(t, "request-loop observation", observeBudget, BenchmarkObserve)
}

// shareK is the cache capacity of shareOfGetP50's server.
const shareK = 1 << 15

// shareOfGetP50 fails t unless cost, priced by testing.Benchmark, is at
// most budget of the server's own GET service-time p50, read from METRICS
// over a warm single-node closed-loop pass (k = shareK, α = 16, a Zipf
// stream over 2k keys, 64 B values, 4 connections, pipeline 16).
func shareOfGetP50(t *testing.T, what string, budget float64, cost func(b *testing.B)) {
	if raceEnabled {
		t.Skip("the race runtime inflates both sides of the ratio unevenly")
	}
	if testing.Short() {
		t.Skip("drives closed-loop passes")
	}
	const attempts = 10
	cache, err := concurrent.New(concurrent.Config{Capacity: shareK, Alpha: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cache)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfg := load.Config{
		Addr:        ln.Addr().String(),
		Conns:       4,
		Keys:        workload.Zipf{Universe: 2 * shareK, S: 0.99, Shuffle: true}.Generate(40_000, 1),
		Pipeline:    16,
		ValueSize:   64,
		ReadThrough: true,
		Verify:      true,
	}
	getHist := func() telemetry.HistogramSnapshot {
		m, err := c.Metrics(wire.MetricsHistograms)
		if err != nil {
			t.Fatal(err)
		}
		if h := m.Hist(byte(wire.OpGet)); h != nil {
			return *h
		}
		return telemetry.HistogramSnapshot{}
	}
	// getP50 runs one pass and returns the GET p50 of that pass alone.
	getP50 := func() time.Duration {
		before := getHist()
		if _, err := load.Run(cfg); err != nil {
			t.Fatal(err)
		}
		run := getHist()
		run.Count -= before.Count
		for i := range run.Buckets {
			run.Buckets[i] -= before.Buckets[i]
		}
		if run.Count == 0 {
			t.Fatal("no GET service time recorded")
		}
		return run.Quantile(0.50)
	}
	costNs := func() float64 {
		rec := testing.Benchmark(cost)
		return float64(rec.T.Nanoseconds()) / float64(rec.N)
	}

	getP50() // fills the cache, so the measured passes are the steady state
	// The budget is defined for a server that has the host's CPUs. A
	// neighbour that takes one away for seconds leaves a single-core
	// server, whose GET p50 reads lower (about 150–200 ns against 210–420 ns
	// on two vCPUs: a 5–6.7% share against 2.5–4.5% for one Record). So the
	// gate passes on the first attempt within budget, and ten attempts
	// outlast a neighbour's run; a cost three times the budget's fails them
	// all.
	for attempt := 1; ; attempt++ {
		p50, ns := getP50(), costNs()
		share := ns / float64(p50.Nanoseconds())
		t.Logf("attempt %d: %s %.1f ns / GET p50 %v = %.2f%% (budget %.1f%%)", attempt, what, ns, p50, 100*share, 100*budget)
		if share <= budget {
			return
		}
		if attempt == attempts {
			t.Fatalf("%s costs %.2f%% of the server GET p50 (%.1f ns of %v) on all %d attempts, over the %.1f%% instrumentation budget",
				what, 100*share, ns, p50, attempts, 100*budget)
		}
	}
}

// TestSetRoundTripAllocs pins the SET round trip at zero allocations: the
// server copies the value into an arena record, the one the overwritten
// record released, and stores a handle to it, and the client allocates
// nothing either, also for a 4 KiB value, which it sends as its own
// zero-copy segment of a vectored write.
func TestSetRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates per operation; alloc gate runs without -race")
	}
	c := benchClient(t)
	for _, size := range []int{64, 4 << 10} {
		val := wirePayload(size)
		set := func() {
			if _, err := c.Set(42, val); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 128; i++ {
			set()
		}
		if allocs := testing.AllocsPerRun(400, set); allocs > 0.1 {
			t.Errorf("%d B SET round trip allocates %.2f objects/op, want 0", size, allocs)
		}
	}
}

// TestSharedValueAliasingRace exercises the value ownership rules under
// the race detector: one connection reads a large key through GetShared
// while another connection overwrites the same key. A stored value lives
// in its server's arena and is read only under its set's lock — the HIT
// is copied into the frame buffer there, and an overwritten value's
// buffer goes back to the arena under the same lock — so the reader must
// never observe a torn value and the race detector must stay quiet. The
// writer also re-fills its value buffer between SETs, exercising the
// client-side rule that a zero-copy SET value is released at Flush.
func TestSharedValueAliasingRace(t *testing.T) {
	addr := benchServer(t)
	rc, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	wc, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	const key, valLen, rounds = uint64(99), 8 << 10, 500
	seed := make([]byte, valLen)
	if _, err := wc.Set(key, seed); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		val := make([]byte, valLen)
		for i := 0; i < rounds; i++ {
			for j := range val {
				val[j] = byte(i)
			}
			if _, err := wc.Set(key, val); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < rounds; i++ {
		v, ok, err := rc.GetShared(key)
		if err != nil || !ok || len(v) != valLen {
			t.Fatalf("read %d: ok=%v len=%d err=%v", i, ok, len(v), err)
		}
		b := v[0]
		for j, got := range v {
			if got != b {
				t.Fatalf("torn value on read %d: v[%d]=%d, v[0]=%d", i, j, got, b)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// BenchmarkGetRoundTrip measures one unpipelined GET hit over loopback:
// client encode + flush + server decode/lookup/encode + client decode +
// value copy. The allocs/op column is the number the tentpole drives to
// zero (via GetInto/GetShared; plain Get keeps its one copy alloc).
func BenchmarkGetRoundTrip(b *testing.B) {
	c := benchClient(b)
	if _, err := c.Set(42, wirePayload(64)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := c.Get(42); err != nil || !ok {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkSetRoundTrip measures one unpipelined SET over loopback. The
// server copies the value into an arena record, so neither side
// allocates.
func BenchmarkSetRoundTrip(b *testing.B) {
	c := benchClient(b)
	val := wirePayload(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Set(42, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetBatchRoundTrip measures a 16-deep pipelined GET batch —
// the shape the load harness drives — priced per key, not per batch.
func BenchmarkGetBatchRoundTrip(b *testing.B) {
	c := benchClient(b)
	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = uint64(i)
		if _, err := c.Set(keys[i], wirePayload(64)); err != nil {
			b.Fatal(err)
		}
	}
	visit := func(i int, hit bool, value []byte) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.GetBatch(keys, visit); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	opsPerIter := float64(len(keys))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*opsPerIter), "ns/key")
}

func wirePayload(n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(i)
	}
	return v
}
