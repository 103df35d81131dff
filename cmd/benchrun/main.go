// Command benchrun produces the repo's standing benchmark trajectory: one
// fixed-seed pass over the telemetry microbenchmarks and a small matrix of
// end-to-end load scenarios (one node and a 3-node cluster, closed- and
// open-loop, the cluster again with 1/64 request tracing so the
// tracing price tag is a standing column, and the cluster again with the
// v7 lease/near-cache miss path on so herd suppression has one too),
// emitted as a single JSON document. Every scenario is preceded by an unmeasured warm-up pass over
// the same key stream, so the numbers are steady state and the -short
// sizing is comparable to the full one. The committed BENCH_*.json files
// at the repo root are its output, one per PR that moved performance, so
// regressions are visible in review as a diff rather than a feeling.
//
// Usage:
//
//	benchrun -o BENCH_7.json
//	benchrun -short -baseline BENCH_7.json   # CI smoke: seconds, not minutes
//
// The alloc columns are a gate, not a report: if any hot-path telemetry
// operation (histogram Record, counter Add, slow-op Append, hot-key
// sketch Record, span-ring Append) allocates, benchrun
// exits nonzero. The same discipline covers the wire hot path itself: a
// round_trip section prices one steady-state loopback GET/SET round trip
// with testing.AllocsPerRun — which counts process-global mallocs, so
// both the client codec and the server goroutine are inside the gate —
// and benchrun exits nonzero if the zero-copy GET (GetShared) or the
// 16-deep GET batch allocates at all, or plain Get/Set exceed their
// documented copy counts (1 and 2). Each scenario also reports
// allocs/op and total GC pause over the measured pass. So is the
// overhead column: if histogram Record costs
// more than 5% of the server-side GET median in any scenario, benchrun
// exits nonzero rather than printing a number over budget. With
// -baseline it also diffs this run's throughput against a committed
// BENCH_*.json and fails on a >15% GET throughput regression — unless
// the baseline came from a different Go version or GOMAXPROCS, in which
// case the diff is skipped with a notice, because cross-machine numbers
// are labels, not gates. CI runs the -short mode with -baseline on every
// push, so an alloc or throughput regression fails the build before it
// can reach a committed trajectory.
//
// Throughput and latency numbers are machine-dependent; the JSON carries
// GOMAXPROCS and the Go version so a trajectory diff across commits from
// the same machine is meaningful and one across machines is labelled. The
// document deliberately contains no wall-clock timestamp: reruns on the
// same tree should diff only where performance moved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/concurrent"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/workload"
)

type report struct {
	Bench       string     `json:"bench"`
	WireVersion int        `json:"wire_version"`
	GoVersion   string     `json:"go_version"`
	GOMAXPROCS  int        `json:"gomaxprocs"`
	Seed        uint64     `json:"seed"`
	Short       bool       `json:"short"`
	Telemetry   telemetryR `json:"telemetry"`
	RoundTrip   roundTripR `json:"round_trip"`
	Scenarios   []scenario `json:"scenarios"`
}

// roundTripR prices one steady-state loopback round trip end to end, via
// testing.AllocsPerRun over an in-process server — process-global malloc
// counting puts both the client codec and the server goroutine inside the
// number. GetShared is the zero-copy read (the contract is 0); plain Get
// adds exactly its one documented copy; Set carries the server's two
// inherent allocations (copy-to-retain + entry header); the 16-deep GET
// batch is priced per batch and must be allocation-free.
type roundTripR struct {
	GetSharedAllocsPerOp float64 `json:"get_shared_allocs_per_op"`
	GetAllocsPerOp       float64 `json:"get_allocs_per_op"`
	SetAllocsPerOp       float64 `json:"set_allocs_per_op"`
	GetBatchAllocsPerOp  float64 `json:"get_batch16_allocs_per_batch"`
	GetNsPerOp           float64 `json:"get_ns_per_op"`
	GetBatchNsPerKey     float64 `json:"get_batch16_ns_per_key"`
}

// telemetryR is the microbenchmark row for the instrumentation itself:
// what one sample costs on the hot path, and the proof it never allocates.
type telemetryR struct {
	RecordNsPerOp      float64 `json:"record_ns_per_op"`
	RecordAllocsPerOp  float64 `json:"record_allocs_per_op"`
	CounterAllocsPerOp float64 `json:"counter_allocs_per_op"`
	SlowLogAllocs      float64 `json:"slowlog_allocs_per_op"`
	TopKRecordNsPerOp  float64 `json:"topk_record_ns_per_op"`
	TopKAllocsPerOp    float64 `json:"topk_allocs_per_op"`
	SpanAppendNsPerOp  float64 `json:"span_append_ns_per_op"`
	SpanAllocsPerOp    float64 `json:"span_allocs_per_op"`
	SnapshotNsPerOp    float64 `json:"snapshot_ns_per_op"`
}

type scenario struct {
	Name       string  `json:"name"`
	Nodes      int     `json:"nodes"`
	OpenLoop   bool    `json:"open_loop"`
	RateOpsSec float64 `json:"rate_ops_per_sec,omitempty"`
	Ops        int     `json:"ops"`
	Conns      int     `json:"conns"`
	Pipeline   int     `json:"pipeline"`
	Throughput float64 `json:"throughput_gets_per_sec"`
	MissRatio  float64 `json:"miss_ratio"`
	Client     latNs   `json:"client_latency_per_batch_ns"`
	Server     svrSide `json:"server"`
	// Lease columns, present on the leased row only: how the v7 miss path
	// split the same storm — near-cache absorption, fill leases won, and
	// misses absorbed by waiting or stale hints instead of origin loads.
	NearHits    int `json:"near_hits,omitempty"`
	LeaseGrants int `json:"lease_grants,omitempty"`
	StaleHints  int `json:"stale_hints,omitempty"`
	LeaseWaits  int `json:"lease_waits,omitempty"`
	// RecordOverheadPctOfGetP50 prices the instrumentation against the
	// work it measures: one histogram Record per op, as a percentage of the
	// server-side GET median. The <5%% budget from the issue is judged on
	// this column.
	RecordOverheadPctOfGetP50 float64 `json:"record_overhead_pct_of_get_p50"`
	// AllocsPerOp and GCPauseNs are the harness process's allocation rate
	// and total stop-the-world pause over the measured pass (see
	// load.Result); in-process servers and routers are inside the number.
	AllocsPerOp float64 `json:"allocs_per_op"`
	GCPauseNs   int64   `json:"gc_pause_ns"`
}

type latNs struct {
	P50 int64 `json:"p50"`
	P90 int64 `json:"p90"`
	P99 int64 `json:"p99"`
	Max int64 `json:"max"`
}

// svrSide is the flight recorder's view of the same run, read back over
// the wire with METRICS: service time per op (request decoded → response
// encoded), not round-trip.
type svrSide struct {
	Get      histNs `json:"get"`
	Set      histNs `json:"set"`
	BytesIn  uint64 `json:"bytes_in"`
	BytesOut uint64 `json:"bytes_out"`
}

type histNs struct {
	Count  uint64 `json:"count"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P99Ns  int64  `json:"p99_ns"`
}

func main() {
	var (
		short    = flag.Bool("short", false, "CI smoke sizing: a few seconds total")
		out      = flag.String("o", "", "write the JSON report here (default stdout)")
		seed     = flag.Uint64("seed", 1, "hash/workload seed (fixed for reproducible key streams)")
		baseline = flag.String("baseline", "", "committed BENCH_*.json to diff against: fail on a >15% GET throughput regression")
	)
	flag.Parse()

	rep := report{
		Bench:       "benchrun",
		WireVersion: wire.Version,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        *seed,
		Short:       *short,
	}
	rep.Telemetry = benchTelemetry()
	if rep.Telemetry.RecordAllocsPerOp != 0 || rep.Telemetry.CounterAllocsPerOp != 0 ||
		rep.Telemetry.SlowLogAllocs != 0 ||
		rep.Telemetry.TopKAllocsPerOp != 0 || rep.Telemetry.SpanAllocsPerOp != 0 {
		emit(rep, *out)
		fatal(fmt.Errorf("telemetry hot path allocates (record=%.1f counter=%.1f slowlog=%.1f topk=%.1f span=%.1f allocs/op); the flight recorder must be allocation-free",
			rep.Telemetry.RecordAllocsPerOp, rep.Telemetry.CounterAllocsPerOp,
			rep.Telemetry.SlowLogAllocs,
			rep.Telemetry.TopKAllocsPerOp, rep.Telemetry.SpanAllocsPerOp))
	}

	rt, err := benchRoundTrip(*seed)
	if err != nil {
		fatal(err)
	}
	rep.RoundTrip = rt
	fmt.Fprintf(os.Stderr, "benchrun: round trip GET %.0fns/op, batch16 %.0fns/key; allocs/op get_shared=%.2f get=%.2f set=%.2f batch16=%.2f\n",
		rt.GetNsPerOp, rt.GetBatchNsPerKey,
		rt.GetSharedAllocsPerOp, rt.GetAllocsPerOp, rt.SetAllocsPerOp, rt.GetBatchAllocsPerOp)
	if rt.GetSharedAllocsPerOp > 0.1 || rt.GetBatchAllocsPerOp > 0.1 ||
		rt.GetAllocsPerOp > 1.1 || rt.SetAllocsPerOp > 2.1 {
		emit(rep, *out)
		fatal(fmt.Errorf("wire round trip allocates (get_shared=%.2f get=%.2f set=%.2f batch16=%.2f allocs/op); the steady-state hot path must stay allocation-free (0 / ≤1 / ≤2 / 0)",
			rt.GetSharedAllocsPerOp, rt.GetAllocsPerOp, rt.SetAllocsPerOp, rt.GetBatchAllocsPerOp))
	}

	ops, conns, pipeline := 400_000, 4, 16
	openRate := 150_000.0
	if *short {
		ops, openRate = 40_000, 40_000
	}
	runs := []struct {
		name        string
		nodes       int
		open        bool
		traceSample int
		leased      bool
	}{
		{"single-node closed-loop", 1, false, 0, false},
		{"single-node open-loop", 1, true, 0, false},
		{"3-node cluster closed-loop", 3, false, 0, false},
		{"3-node cluster open-loop", 3, true, 0, false},
		// The tracing price tag at the recommended production sampling
		// rate, read against the untraced cluster row above it.
		{"3-node cluster closed-loop traced 1/64", 3, false, 64, false},
		// The lease storm: the same closed-loop cluster run with the v7
		// miss path on (leases + near cache), read against the plain
		// cluster row — the standing price/benefit of herd suppression.
		{"3-node cluster closed-loop leased", 3, false, 0, true},
	}
	const overheadBudgetPct = 5.0
	for _, r := range runs {
		s, err := runScenario(r.name, r.nodes, r.open, openRate, ops, conns, pipeline, *seed,
			r.traceSample, r.leased, rep.Telemetry.RecordNsPerOp)
		if err != nil {
			fatal(err)
		}
		rep.Scenarios = append(rep.Scenarios, s)
		fmt.Fprintf(os.Stderr, "benchrun: %-38s %10.0f GET/s  %5.2f allocs/op  gc %-8s server GET p50=%s p99=%s\n",
			s.Name, s.Throughput, s.AllocsPerOp, time.Duration(s.GCPauseNs),
			time.Duration(s.Server.Get.P50Ns), time.Duration(s.Server.Get.P99Ns))
		if s.RecordOverheadPctOfGetP50 > overheadBudgetPct {
			emit(rep, *out)
			fatal(fmt.Errorf("scenario %q: histogram Record costs %.2f%% of the server GET p50, over the %.0f%% instrumentation budget",
				s.Name, s.RecordOverheadPctOfGetP50, overheadBudgetPct))
		}
	}
	emit(rep, *out)
	if *baseline != "" {
		if err := diffBaseline(rep, *baseline); err != nil {
			fatal(err)
		}
	}
}

// diffBaseline gates this run's throughput against a committed
// trajectory file. The gate only fires for scenarios present in both
// documents under the same name, and only when the baseline came from
// the same Go version and GOMAXPROCS — a trajectory from another machine
// or toolchain labels the numbers but cannot judge them.
func diffBaseline(rep report, path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if base.GoVersion != rep.GoVersion || base.GOMAXPROCS != rep.GOMAXPROCS {
		fmt.Fprintf(os.Stderr, "benchrun: baseline %s is %s/GOMAXPROCS=%d, this run is %s/GOMAXPROCS=%d; skipping the regression gate (cross-machine numbers are labels, not budgets)\n",
			path, base.GoVersion, base.GOMAXPROCS, rep.GoVersion, rep.GOMAXPROCS)
		return nil
	}
	const tolerance = 0.15
	for _, s := range rep.Scenarios {
		if s.OpenLoop {
			// Open-loop throughput is the intended rate, a configuration,
			// not a capability — and the -short rate differs from the full
			// one. The closed-loop rows are the capability gate.
			continue
		}
		for _, b := range base.Scenarios {
			if b.Name != s.Name || b.Throughput == 0 {
				continue
			}
			if s.Throughput < b.Throughput*(1-tolerance) {
				return fmt.Errorf("scenario %q: %.0f GET/s is %.1f%% below the committed %.0f in %s (budget %.0f%%)",
					s.Name, s.Throughput, 100*(1-s.Throughput/b.Throughput), b.Throughput, path, 100*tolerance)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "benchrun: throughput within %.0f%% of %s on every shared scenario\n", 100*tolerance, path)
	return nil
}

// benchRoundTrip boots one in-process node on loopback and prices the
// steady-state wire round trips for the round_trip gate. The warm-up
// loops absorb the one-time costs (first-writev iovec array, codec buffer
// growth) so the measured runs see the steady state.
func benchRoundTrip(seed uint64) (roundTripR, error) {
	cache, err := concurrent.New(concurrent.Config{Capacity: 1 << 12, Alpha: 16, Seed: seed})
	if err != nil {
		return roundTripR{}, err
	}
	srv := server.New(cache)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return roundTripR{}, err
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		return roundTripR{}, err
	}
	defer c.Close()

	val := load.Payload(42, 64)
	batch := make([]uint64, 16)
	for i := range batch {
		batch[i] = uint64(i)
		if _, err := c.Set(batch[i], load.Payload(batch[i], 64)); err != nil {
			return roundTripR{}, err
		}
	}
	if _, err := c.Set(42, val); err != nil {
		return roundTripR{}, err
	}
	getShared := func() {
		if _, ok, err := c.GetShared(42); err != nil || !ok {
			fatal(fmt.Errorf("round trip GET: ok=%v err=%v", ok, err))
		}
	}
	get := func() {
		if _, ok, err := c.Get(42); err != nil || !ok {
			fatal(fmt.Errorf("round trip GET: ok=%v err=%v", ok, err))
		}
	}
	set := func() {
		if _, err := c.Set(42, val); err != nil {
			fatal(fmt.Errorf("round trip SET: %v", err))
		}
	}
	visit := func(i int, hit bool, value []byte) {}
	getBatch := func() {
		if err := c.GetBatch(batch, visit); err != nil {
			fatal(fmt.Errorf("round trip GetBatch: %v", err))
		}
	}
	for i := 0; i < 128; i++ {
		getShared()
		set()
		getBatch()
	}
	var rt roundTripR
	rt.GetSharedAllocsPerOp = testing.AllocsPerRun(400, getShared)
	rt.GetAllocsPerOp = testing.AllocsPerRun(400, get)
	rt.SetAllocsPerOp = testing.AllocsPerRun(400, set)
	rt.GetBatchAllocsPerOp = testing.AllocsPerRun(200, getBatch)
	getB := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			getShared()
		}
	})
	rt.GetNsPerOp = float64(getB.NsPerOp())
	batchB := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			getBatch()
		}
	})
	rt.GetBatchNsPerKey = float64(batchB.NsPerOp()) / float64(len(batch))
	return rt, nil
}

// benchTelemetry measures the instrumentation primitives themselves with
// the testing package's machinery, so the numbers match what `go test
// -bench` reports for internal/telemetry.
func benchTelemetry() telemetryR {
	var h telemetry.Histogram
	rec := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Record(time.Duration(i%1_000_000) * time.Microsecond)
		}
	})
	snap := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := h.Snapshot()
			_ = s.Count
		}
	})
	var c telemetry.Counter
	sl := telemetry.NewSlowLog(0)
	tk := telemetry.NewTopK(0)
	ring := telemetry.NewSpanRing(0)
	span := telemetry.Span{Op: 1, Status: 2, TraceID: telemetry.TraceID{1}, KeyHash: 3, DurationNanos: 4}
	var n uint64
	topk := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A zipf-ish stream: a few keys dominate, the tail churns
			// through the sketch's eviction path.
			n++
			k := n % 1024
			if k > 16 {
				k = n
			}
			tk.Record(telemetry.HashKey(k))
		}
	})
	spanB := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ring.Append(span)
		}
	})
	return telemetryR{
		RecordNsPerOp:      float64(rec.NsPerOp()),
		RecordAllocsPerOp:  testing.AllocsPerRun(1000, func() { h.Record(time.Millisecond) }),
		CounterAllocsPerOp: testing.AllocsPerRun(1000, func() { c.Add(7) }),
		SlowLogAllocs: testing.AllocsPerRun(1000, func() {
			sl.Append(telemetry.SlowOp{Op: 1, KeyHash: 2, DurationNanos: 3})
		}),
		TopKRecordNsPerOp: float64(topk.NsPerOp()),
		TopKAllocsPerOp:   testing.AllocsPerRun(1000, func() { tk.Record(42) }),
		SpanAppendNsPerOp: float64(spanB.NsPerOp()),
		SpanAllocsPerOp:   testing.AllocsPerRun(1000, func() { ring.Append(span) }),
		SnapshotNsPerOp:   float64(snap.NsPerOp()),
	}
}

// runScenario boots nodes in-process on loopback, drives a fixed-seed
// zipf read-through workload through the standard harness, and reads the
// servers' own view back over METRICS. traceSample > 0 turns request
// tracing on at that sampling interval (cluster scenarios only — the
// single-node harness speaks raw wire, which never volunteers a trace).
func runScenario(name string, nodes int, open bool, rate float64, ops, conns, pipeline int, seed uint64, traceSample int, leased bool, recordNs float64) (scenario, error) {
	const k, alpha = 1 << 15, 16
	var (
		addrs   []string
		servers []*server.Server
	)
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	for i := 0; i < nodes; i++ {
		cache, err := concurrent.New(concurrent.Config{Capacity: k, Alpha: alpha, Seed: seed + uint64(i)})
		if err != nil {
			return scenario{}, err
		}
		srv := server.New(cache)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return scenario{}, err
		}
		go srv.Serve(ln)
		servers = append(servers, srv)
		addrs = append(addrs, ln.Addr().String())
	}

	keys := workload.Zipf{Universe: nodes * 2 * k, S: 0.99, Shuffle: true}.Generate(ops, seed)
	cfg := load.Config{
		Conns:       conns,
		Keys:        keys,
		Pipeline:    pipeline,
		ValueSize:   64,
		ReadThrough: true,
		Verify:      true,
	}
	if nodes == 1 {
		cfg.Addr = addrs[0]
	} else {
		copts := cluster.Options{TraceSample: traceSample}
		if leased {
			copts.Leases = true
			copts.NearCache = cluster.NearCacheOptions{Slots: 1024}
		}
		cfg.Dial = func() (load.Conn, error) {
			return cluster.Dial(addrs, copts)
		}
	}
	// An unmeasured closed-loop pass over the same key stream first: the
	// measured pass then reports steady state, not cache fill. Without
	// this, a -short run is dominated by compulsory misses and reads ~20%
	// slower than the full sizing — which would make the -baseline gate
	// compare cold starts against warm trajectories and cry wolf.
	if _, err := load.Run(cfg); err != nil {
		return scenario{}, err
	}
	msBefore, err := snapshotMetrics(addrs)
	if err != nil {
		return scenario{}, err
	}
	if open {
		cfg.OpenLoop, cfg.Rate = true, rate
	}
	res, err := load.Run(cfg)
	if err != nil {
		return scenario{}, err
	}
	msAfter, err := snapshotMetrics(addrs)
	if err != nil {
		return scenario{}, err
	}
	sv := serverDelta(msBefore, msAfter)
	s := scenario{
		Name:       name,
		Nodes:      nodes,
		OpenLoop:   open,
		Ops:        res.Ops,
		Conns:      conns,
		Pipeline:   pipeline,
		Throughput: res.Throughput,
		MissRatio:  res.MissRatio(),
		Client: latNs{
			P50: int64(res.Latency.P50), P90: int64(res.Latency.P90),
			P99: int64(res.Latency.P99), Max: int64(res.Latency.Max),
		},
		Server: sv,
	}
	s.AllocsPerOp = res.AllocsPerOp
	s.GCPauseNs = int64(res.GCPause)
	if open {
		s.RateOpsSec = rate
	}
	if leased {
		s.NearHits, s.LeaseGrants = res.NearHits, res.LeaseGrants
		s.StaleHints, s.LeaseWaits = res.StaleHints, res.LeaseWaits
	}
	if p50 := sv.Get.P50Ns; p50 > 0 {
		s.RecordOverheadPctOfGetP50 = 100 * recordNs / float64(p50)
	}
	return s, nil
}

// snapshotMetrics reads every node's cumulative flight recorder; two
// snapshots bracketing the measured pass subtract into the run's own
// numbers (every histogram bucket and counter is monotone).
func snapshotMetrics(addrs []string) (map[string]*wire.Metrics, error) {
	per := make(map[string]*wire.Metrics, len(addrs))
	for _, addr := range addrs {
		c, err := wire.Dial(addr)
		if err != nil {
			return nil, err
		}
		m, err := c.Metrics(wire.MetricsHistograms | wire.MetricsCounters)
		c.Close()
		if err != nil {
			return nil, err
		}
		per[addr] = m
	}
	return per, nil
}

// serverDelta merges each bracket across the nodes and subtracts,
// yielding the measured pass's server-side row with the warm-up
// excluded.
func serverDelta(before, after map[string]*wire.Metrics) svrSide {
	aggB, aggA := cluster.AggregateMetrics(before), cluster.AggregateMetrics(after)
	sv := svrSide{
		BytesIn:  aggA.Counter(wire.CounterBytesIn) - aggB.Counter(wire.CounterBytesIn),
		BytesOut: aggA.Counter(wire.CounterBytesOut) - aggB.Counter(wire.CounterBytesOut),
	}
	// Reads travel as GET or, on the leased row, GETL, and that row's
	// writes as FILL instead of SET; each pair of service-time histograms
	// merges bucket-wise into one column.
	column := func(ops ...wire.Op) histNs {
		var h telemetry.HistogramSnapshot
		for _, op := range ops {
			if d := histDelta(aggA.Hist(byte(op)), aggB.Hist(byte(op))); d != nil {
				h.Merge(d)
			}
		}
		if h.Count == 0 {
			return histNs{}
		}
		return histNs{Count: h.Count, MeanNs: int64(h.Mean()), P50Ns: int64(h.Quantile(0.50)), P99Ns: int64(h.Quantile(0.99))}
	}
	sv.Get = column(wire.OpGet, wire.OpGetLease)
	sv.Set = column(wire.OpSet, wire.OpFill)
	return sv
}

// histDelta subtracts one cumulative histogram snapshot from a later one
// of the same histogram.
func histDelta(a, b *telemetry.HistogramSnapshot) *telemetry.HistogramSnapshot {
	if a == nil {
		return nil
	}
	d := *a
	if b != nil {
		d.Count -= b.Count
		d.Sum -= b.Sum
		for i := range d.Buckets {
			d.Buckets[i] -= b.Buckets[i]
		}
	}
	return &d
}

func emit(rep report, out string) {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchrun: wrote %s\n", out)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
	os.Exit(1)
}
