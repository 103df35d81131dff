// Command cachecluster is the load driver for cached: keys route to member
// nodes through a consistent-hash ring (internal/cluster) and each node is
// an independent α-way set-associative cache, so the paper's intra-node α
// tradeoff composes with inter-node balance. One member is simply a 1-node
// ring, which is how a single daemon is driven.
//
// It either spawns N in-process nodes on loopback (-spawn, the zero-setup
// path) or points at already-running cached daemons (-addrs), drives them
// with the library's workload generators (uniform, zipf, scan, the Theorem
// 4 adversarial cycler) or a recorded .satr trace through the routing
// client, and reports aggregate throughput/latency plus a per-node table:
// replica-set ownership share, each node's own counter deltas and its
// repair-write count — the direct check that consistent hashing spreads
// both keys and load, and, for one member, that the server's Δhits/Δmisses
// equal the client's hits/misses. A "server:" line merges every member's
// METRICS histograms (wire v5) into run-only GET/SET service-time p50/p99,
// printed next to the client-observed latency so transport cost and cache
// cost can be told apart, and a "shards:" line per member gives its bucket
// occupancy spread. The "client:" line's hits, misses, sets and corrupt
// count are the harness's own; its repairs, stale and refreshes, and the
// "leases:" and "near:" lines, sum cluster.Client.Snapshot over the
// workers' routers, read after the run has closed every one of them.
//
// Usage:
//
//	cachecluster -spawn 3 -k 65536 -alpha 16 -workload zipf -ops 1000000
//	cachecluster -addrs h1:7070,h2:7070,h3:7070 -workload uniform -conns 8
//	cachecluster -addrs :7070 -workload zipf -universe 200000 -ops 1000000 -conns 8
//	cachecluster -addrs :7070 -workload adversarial -ops 500000 -conns 4
//	cachecluster -addrs :7070 -trace workload.satr -ops 1000000
//	cachecluster -addrs :7070 -rehash            # online rehash, migrating under the run
//	cachecluster -spawn 4 -open -rate 200000 -duration 30s
//	cachecluster -spawn 3 -replicas 2 -write-quorum 1 -workload zipf
//	cachecluster -addrs h1:7070 -bootstrap -workload zipf
//	cachecluster -spawn 3 -workload zipf -zipf-s 1.4 -leases -near-slots 1024
//
// The adversarial workload reads the members' capacities (the METRICS
// CAPACITY counter) and
// builds the Theorem 4 cyclic sequence for their sum k: s disjoint sets of
// (1−δ)k items, each replayed t times. Against a small-α server this
// manufactures conflict misses on every cycle; watch the conflict counter
// in the aggregate line.
//
// With -bootstrap the -addrs list is treated as seeds only: the actual
// membership is discovered from the highest-epoch view any seed reports
// to a TOPOLOGY read, so pointing at a single member of an established
// cluster is enough to drive all of it. The balance table is stamped with
// the topology epoch the run ended at, and the client line reports how many
// topology refreshes the routers performed mid-run (nonzero means the
// membership changed underneath the run and the routers converged on
// their own).
//
// With -replicas R each key lives on R distinct owners: SETs fan out to
// all R (W of them, -write-quorum, must acknowledge), GETs fall back
// through the replica set on a miss or node failure, and stale replicas
// are repaired in the background. Per-node residency then sums to R× the
// distinct keys, which is why the balance table reports each node's share
// of replica-set slots (summing to 100%) rather than a per-key share.
//
// With -leases every worker's GETs go out as GETL (wire v7): a miss hands
// exactly one caller cluster-wide a fill lease and concurrent missers
// briefly wait for that fill or are served the key's last known value
// flagged stale, so a cold or invalidated hot key costs O(1) origin
// loads instead of one per storming client. -near-slots N adds a bounded
// per-worker near-cache, version-invalidated by the piggybacked per-key
// versions, which absorbs a hot key's repeat reads before they reach the
// wire at all; -near-ttl bounds its staleness budget. The run report adds
// a "leases:" line (client-side tallies), a "near:" line (what the
// workers' near-caches hold, summed: lookups that found an entry past its
// deadline, evictions, resident entries) and a "srv leases:" line
// (the members' grant/expiry/stale-serve counters).
//
// The default mode is closed-loop (offered load adapts to server latency;
// right for "how fast can it go"). With -open -rate R the harness uses the
// open-loop rate-paced schedule with coordinated-omission-safe percentiles
// (right for "what is p99 at R ops/s"; see internal/load). -rehash fans an
// online REHASH out to every member before the run.
//
// With -trace-sample N every worker stamps every N-th of its batches
// with a sampled trace context (wire v6): each member records a span per
// hop it served, and after the run the harness joins the slowest traced
// slow op's spans across nodes — the cross-node path of one sampled
// request. Independently of sampling, every run ends with the cluster-wide
// hot-key table: the merged top-K key sketch per op class
// (GET/SET/DEL/EVICT), which is where a hot-key storm or a
// conflict-pressure key shows up by name (well, by key hash).
//
// Invalid flags are rejected before any node is spawned, and a run that
// read a hit carrying another key's payload (corrupt > 0) exits nonzero.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/cluster"
	"repro/internal/concurrent"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

// config is the parsed command line.
type config struct {
	spawn, vnodes, replicas, quorum, k, alpha    int
	addrs, wl, traceIn                           string
	boot, readThru, verify, rehash, open, leases bool
	seed                                         uint64
	conns, ops, pipeline, valSize, universe      int
	zipfS, advDelta, rate                        float64
	advSets, advReps, traceSample, nearSlots     int
	duration, nearTTL, antiEntropy               time.Duration
}

// defineFlags registers every flag on fs and returns the config they fill.
func defineFlags(fs *flag.FlagSet) *config {
	c := &config{}
	fs.IntVar(&c.spawn, "spawn", 0, "spawn this many in-process nodes on loopback")
	fs.StringVar(&c.addrs, "addrs", "", "comma-separated addresses of running cached nodes (alternative to -spawn)")
	fs.BoolVar(&c.boot, "bootstrap", false, "treat -addrs as seeds: discover the membership via TOPOLOGY reads")
	fs.IntVar(&c.vnodes, "vnodes", 0, "virtual nodes per member on the ring (0 = default)")
	fs.IntVar(&c.replicas, "replicas", 0, "owners per key R (0 or 1 = unreplicated)")
	fs.IntVar(&c.quorum, "write-quorum", 0, "owners that must ack a SET, W of R (0 = all R)")
	fs.IntVar(&c.k, "k", 1<<16, "per-node cache capacity (spawned nodes)")
	fs.IntVar(&c.alpha, "alpha", 16, "per-node set size α (spawned nodes)")
	fs.Uint64Var(&c.seed, "seed", 1, "hash/workload seed")
	fs.IntVar(&c.conns, "conns", 4, "concurrent router clients (workers)")
	fs.IntVar(&c.ops, "ops", 1_000_000, "total GET operations")
	fs.IntVar(&c.pipeline, "pipeline", 16, "requests per round trip")
	fs.IntVar(&c.valSize, "valsize", 64, "value payload bytes for read-through SETs")
	fs.StringVar(&c.wl, "workload", "zipf", "uniform|zipf|scan|adversarial")
	fs.IntVar(&c.universe, "universe", 1<<18, "workload universe size")
	fs.Float64Var(&c.zipfS, "zipf-s", 0.99, "zipf skew exponent")
	fs.Float64Var(&c.advDelta, "adv-delta", 0.1, "adversarial capacity gap δ")
	fs.IntVar(&c.advSets, "adv-sets", 4, "adversarial disjoint set count s")
	fs.IntVar(&c.advReps, "adv-reps", 8, "adversarial replays per set t")
	fs.StringVar(&c.traceIn, "trace", "", "replay a .satr trace instead of a generator")
	fs.BoolVar(&c.readThru, "readthrough", true, "SET every missed key (read-through)")
	fs.BoolVar(&c.verify, "verify", true, "verify hit payloads carry their key")
	fs.BoolVar(&c.rehash, "rehash", false, "fan REHASH out to all members before the run")
	fs.BoolVar(&c.open, "open", false, "open-loop mode: rate-paced arrivals, coordinated-omission-safe percentiles")
	fs.Float64Var(&c.rate, "rate", 0, "intended aggregate GET rate in ops/sec (open-loop mode, required)")
	fs.DurationVar(&c.duration, "duration", 0, "stop issuing after this long (open-loop mode; 0 = when ops are exhausted)")
	fs.IntVar(&c.traceSample, "trace-sample", 0, "stamp every Nth batch per worker with a sampled trace context (0 = tracing off)")
	fs.BoolVar(&c.leases, "leases", false, "lease/singleflight misses (wire v7 GETL): one fill per cold key cluster-wide, concurrent missers wait for it")
	fs.IntVar(&c.nearSlots, "near-slots", 0, "per-worker near-cache slots (0 = off): serve repeat reads in-process, version-invalidated")
	fs.DurationVar(&c.nearTTL, "near-ttl", 0, "near-cache entry TTL (0 = default); the staleness budget granted to the client edge")
	fs.DurationVar(&c.antiEntropy, "anti-entropy", 0, "background anti-entropy sweep period (wire v8, 0 = off): compare replica record sets and repair divergence, tombstones included")
	return c
}

func main() {
	c := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := validateFlags(c); err != nil {
		fatal(err)
	}

	members, cleanup, err := buildMembers(c.spawn, c.addrs, c.k, c.alpha, c.seed)
	if err != nil {
		fatal(err)
	}
	defer cleanup()

	// The replication configuration was validated against the member count
	// up front (validateFlags); under -bootstrap the membership is only
	// known after discovery, so cluster.Dial re-checks it there.
	opts := cluster.Options{
		VNodes: c.vnodes, Replicas: c.replicas, WriteQuorum: c.quorum, Bootstrap: c.boot,
		TraceSample: c.traceSample, Leases: c.leases,
		NearCache:   cluster.NearCacheOptions{Slots: c.nearSlots, TTL: c.nearTTL},
		AntiEntropy: c.antiEntropy,
	}
	ctl, err := cluster.Dial(members, opts)
	if err != nil {
		fatal(err)
	}
	defer ctl.Close()
	if c.rehash {
		if err := ctl.RehashAll(); err != nil {
			fatal(err)
		}
		fmt.Println("online rehash requested on all members")
	}
	// Baseline, so the balance table and the server-side percentiles
	// printed below cover this run only, not whatever the daemons served
	// before (counters and histogram buckets are monotone, so before/after
	// subtracts exactly).
	before, err := ctl.MetricsAll(wire.MetricsHistograms | wire.MetricsCounters)
	if err != nil {
		fatal(err)
	}

	gen, err := generator(c, int(cluster.AggregateMetrics(before).Stats().Capacity))
	if err != nil {
		fatal(err)
	}
	keys := gen.Generate(c.ops, c.seed)

	// The workers' routers are kept for their counters: once Run returns
	// every one is closed, so the sums below are final.
	var (
		routersMu sync.Mutex
		routers   []*cluster.Client
	)
	dial := func() (load.Conn, error) {
		r, err := cluster.Dial(members, opts)
		if err == nil {
			routersMu.Lock()
			routers = append(routers, r)
			routersMu.Unlock()
		}
		return r, err
	}
	res, err := load.Run(load.Config{
		Dial:        dial,
		Conns:       c.conns,
		Keys:        keys,
		Pipeline:    c.pipeline,
		ValueSize:   c.valSize,
		ReadThrough: c.readThru,
		Verify:      c.verify,
		OpenLoop:    c.open,
		Rate:        c.rate,
		Duration:    c.duration,
	})
	if err != nil {
		fatal(err)
	}

	mode := "closed-loop"
	if res.OpenLoop {
		mode = fmt.Sprintf("open-loop @ %.0f ops/s intended", res.IntendedRate)
	}
	if c.replicas > 1 {
		w := c.quorum
		if w == 0 {
			w = c.replicas
		}
		mode += fmt.Sprintf(", R=%d W=%d", c.replicas, w)
	}
	if c.leases {
		mode += ", leases"
	}
	if c.nearSlots > 0 {
		mode += fmt.Sprintf(", near=%d", c.nearSlots)
	}
	fmt.Printf("cluster of %d nodes, workload %s: %d ops over %d conns (pipeline %d, %s) in %v\n",
		len(members), gen.Name(), res.Ops, c.conns, c.pipeline, mode, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("  throughput: %12.0f GET/s\n", res.Throughput)
	lat := ""
	if res.OpenLoop {
		lat = ", from intended send time"
	}
	fmt.Printf("  latency:    p50=%v p90=%v p99=%v max=%v (per %d-deep batch%s)\n",
		res.Latency.P50, res.Latency.P90, res.Latency.P99, res.Latency.Max, c.pipeline, lat)
	var sum cluster.Snapshot
	for _, r := range routers {
		s := r.Snapshot()
		sum.Refreshes += s.Refreshes
		sum.Replication.RepairsApplied += s.Replication.RepairsApplied
		sum.Replication.RepairsStale += s.Replication.RepairsStale
		sum.LeaseGrants += s.LeaseGrants
		sum.LeaseLost += s.LeaseLost
		sum.LeaseWaits += s.LeaseWaits
		sum.Near.Hits += s.Near.Hits
		sum.Near.Expired += s.Near.Expired
		sum.Near.Evicts += s.Near.Evicts
		sum.Near.Len += s.Near.Len
	}
	fmt.Printf("  client:     hits=%d misses=%d (miss ratio %.4f) sets=%d repairs=%d stale=%d refreshes=%d corrupt=%d\n",
		res.Hits, res.Misses, res.MissRatio(), res.Sets, sum.Replication.RepairsApplied, sum.Replication.RepairsStale, sum.Refreshes, res.Corrupt)
	fmt.Printf("  memory:     %.2f allocs/op, gc-pause %v (harness process)\n",
		res.AllocsPerOp, res.GCPause.Round(time.Microsecond))
	if c.leases || c.nearSlots > 0 {
		fmt.Printf("  leases:     nearhits=%d grants=%d lost=%d waits=%d\n",
			sum.Near.Hits, sum.LeaseGrants, sum.LeaseLost, sum.LeaseWaits)
	}
	if c.nearSlots > 0 {
		// Hits are the leases: line's nearhits; print what it lacks.
		fmt.Printf("  near:       expired=%d evicts=%d resident=%d (summed over %d routers)\n",
			sum.Near.Expired, sum.Near.Evicts, sum.Near.Len, len(routers))
	}

	// Hot keys are recorded regardless of sampling; spans and the trace
	// join exist only when -trace-sample stamped some batches.
	after, err := ctl.MetricsAll(wire.MetricsAll)
	if err != nil {
		fatal(err)
	}
	printServerLatency(before, after)
	printBalance(ctl, before, after)
	printShards(ctl.Nodes(), after)

	aggM := cluster.AggregateMetrics(after)
	agg := aggM.Stats()
	fmt.Printf("  aggregate:  len=%d/%d evictions=%d conflict=%d flush=%d sets=%d repairs=%d stale=%d rehashes=%d migrating=%v pending=%d\n",
		agg.Len, agg.Capacity, agg.Evictions, agg.ConflictEvictions, agg.FlushEvictions,
		agg.Sets, agg.RepairSets, agg.StaleRepairs, agg.Rehashes, agg.Migrating, agg.Pending)
	if agg.LeasesGranted+agg.LeasesExpired > 0 {
		fmt.Printf("  srv leases: granted=%d expired=%d (summed over cluster)\n",
			agg.LeasesGranted, agg.LeasesExpired)
	}
	printHotKeys(aggM)
	if c.traceSample > 0 {
		printTraceJoin(after, aggM)
	}
	if res.Corrupt > 0 {
		fatal(fmt.Errorf("%d hits carried another key's payload", res.Corrupt))
	}
}

// generator builds the key stream's source: a replayed .satr trace, the
// Theorem 4 cycler sized to capacity (the members' summed k), or one of
// the synthetic generators.
func generator(c *config, capacity int) (workload.Generator, error) {
	if c.traceIn != "" {
		f, err := os.Open(c.traceIn)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		seq, err := trace.Read(f)
		if err != nil {
			return nil, err
		}
		return workload.Fixed{Label: fmt.Sprintf("trace(%s)", c.traceIn), Seq: seq}, nil
	}
	switch c.wl {
	case "uniform":
		return workload.Uniform{Universe: c.universe}, nil
	case "zipf":
		return workload.Zipf{Universe: c.universe, S: c.zipfS, Shuffle: true}, nil
	case "scan":
		return workload.Scan{Universe: c.universe}, nil
	case "adversarial":
		adv := adversary.Theorem4{K: capacity, Delta: c.advDelta, Sets: c.advSets, Reps: c.advReps}
		if err := adv.Validate(); err != nil {
			return nil, err
		}
		return workload.Fixed{
			Label: fmt.Sprintf("theorem4(k=%d,δ=%.2f,s=%d,t=%d)", adv.K, c.advDelta, c.advSets, c.advReps),
			Seq:   adv.Build(),
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", c.wl)
}

// printHotKeys tabulates the merged space-saving sketch per op class: the
// cluster-wide top keys by GET/SET/DEL traffic and by conflict-eviction
// pressure. Counts are union-and-sum over the members, so a key that is
// hot on every replica ranks by its total cluster traffic; Err is the
// sketch's per-key overestimate bound (true count ≥ Count − Err). Keys
// print as the scrambled 64-bit hashes the servers store — the sketch
// never sees raw keys.
func printHotKeys(agg *wire.Metrics) {
	if len(agg.HotKeys) == 0 {
		return
	}
	fmt.Printf("  hot keys (top 5 per class, merged over cluster; keyhash×count, ±err):\n")
	for _, hc := range agg.HotKeys {
		top := hc.Keys.Top(5)
		parts := make([]string, len(top))
		for i, e := range top {
			parts[i] = fmt.Sprintf("%016x×%d±%d", e.Key, e.Count, e.Err)
		}
		fmt.Printf("    %-5s %s\n", wire.HotClassName(hc.Class), strings.Join(parts, "  "))
	}
}

// printTraceJoin reconstructs one sampled request's cross-node path: it
// picks the slowest slow op that carries a trace ID, collects every span
// recorded under that ID on any member, and prints them in time order
// with the node that served each hop. Nothing prints if no traced op
// crossed the slow-op threshold and no spans were sampled.
func printTraceJoin(all map[string]*wire.Metrics, agg *wire.Metrics) {
	var tid telemetry.TraceID
	var worst uint64
	for _, r := range agg.SlowOps {
		if !r.TraceID.IsZero() && r.DurationNanos > worst {
			worst = r.DurationNanos
			tid = r.TraceID
		}
	}
	if tid.IsZero() && len(agg.Spans) > 0 {
		// No traced slow op: fall back to the trace with the most hops,
		// which the aggregate keeps contiguous.
		var bestLen, runLen int
		var run telemetry.TraceID
		for _, sp := range agg.Spans {
			if sp.TraceID != run {
				run, runLen = sp.TraceID, 0
			}
			runLen++
			if runLen > bestLen {
				bestLen, tid = runLen, run
			}
		}
	}
	if tid.IsZero() {
		return
	}
	type hop struct {
		node string
		sp   telemetry.Span
	}
	var hops []hop
	for addr, m := range all {
		for _, sp := range m.Spans {
			if sp.TraceID == tid {
				hops = append(hops, hop{addr, sp})
			}
		}
	}
	sort.Slice(hops, func(i, j int) bool { return hops[i].sp.UnixNanos < hops[j].sp.UnixNanos })
	fmt.Printf("  trace %s joined across the cluster (%d hops):\n", tid, len(hops))
	const maxHops = 10 // a traced batch is one trace, so a deep pipeline means many hops
	if len(hops) > maxHops {
		fmt.Printf("    (first %d of %d — the whole batch shares the trace)\n", maxHops, len(hops))
		hops = hops[:maxHops]
	}
	for _, h := range hops {
		fmt.Printf("    %-22s %-4s %-13s %10v\n", h.node,
			wire.Op(h.sp.Op), wire.Status(h.sp.Status), time.Duration(h.sp.DurationNanos))
	}
}

// printServerLatency merges every member's METRICS histograms and prints
// the run's server-side service-time percentiles per data-path op — what
// the servers spent per op between decoding a request and encoding its
// response. Read next to the client latency line: the client numbers are
// per pipelined batch and include the network and any queueing, so the gap
// between the two is transport and batching, not cache work.
func printServerLatency(before, after map[string]*wire.Metrics) {
	aggB, aggA := cluster.AggregateMetrics(before), cluster.AggregateMetrics(after)
	parts := []string{}
	for _, op := range []wire.Op{wire.OpGet, wire.OpGetLease, wire.OpSet, wire.OpFill, wire.OpPut} {
		d := histDelta(aggA.Hist(byte(op)), aggB.Hist(byte(op)))
		if d == nil || d.Count == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s p50=%v p99=%v", op, d.Quantile(0.50), d.Quantile(0.99)))
	}
	if len(parts) == 0 {
		return
	}
	fmt.Printf("  server:     %s (service time per op, merged over %d nodes)\n",
		strings.Join(parts, " | "), len(after))
}

// histDelta subtracts one cumulative histogram snapshot from a later one
// of the same histogram; every field is a monotone counter, so the
// difference is exactly the samples recorded in between.
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

// printBalance tabulates, per member, its share of replica-set slots over a
// key sample against the traffic the servers actually absorbed during the
// run. Shares are per replica-set slot — divided by samples × R, not by
// samples — so they sum to 100% even when every key resides on R members;
// a per-key denominator would report R× the true residency share.
// The table header carries the topology epoch the view was sampled at, and the
// members come from the router's current view (which under -bootstrap, or
// after a mid-run membership change, is the discovered one rather than the
// command line's).
func printBalance(ctl *cluster.Client, before, after map[string]*wire.Metrics) {
	const samples = 1 << 16
	share, replicas := ctl.OwnerSample(samples, 42)
	fmt.Printf("  balance at topology epoch %d:\n", ctl.Snapshot().Epoch)
	fmt.Printf("  %-22s %7s %12s %12s %10s %8s %10s\n", "node", "share%", "Δhits", "Δmisses", "Δrepairs", "Δstale", "len")
	for _, m := range ctl.Nodes() {
		if before[m] == nil || after[m] == nil {
			fmt.Printf("  %-22s %6.1f%%  (joined mid-run; no stats delta)\n",
				m, 100*float64(share[m])/float64(samples*replicas))
			continue
		}
		b, a := before[m].Stats(), after[m].Stats()
		fmt.Printf("  %-22s %6.1f%% %12d %12d %10d %8d %10d\n",
			m, 100*float64(share[m])/float64(samples*replicas),
			a.Hits-b.Hits, a.Misses-b.Misses, a.RepairSets-b.RepairSets,
			a.StaleRepairs-b.StaleRepairs, a.Len)
	}
}

// printShards prints, per member, how evenly its indexing hash filled its
// k/α buckets: the occupancy spread behind the node's conflict evictions.
func printShards(nodes []string, ms map[string]*wire.Metrics) {
	for _, m := range nodes {
		if ms[m] == nil || len(ms[m].Occupancy) == 0 {
			continue
		}
		occ := ms[m].Occupancy
		fmt.Printf("  shards:     %-22s %d buckets, occupancy min=%d max=%d\n", m, len(occ), slices.Min(occ), slices.Max(occ))
	}
}

// buildMembers spawns in-process nodes or parses -addrs.
func buildMembers(spawn int, addrs string, k, alpha int, seed uint64) ([]string, func(), error) {
	if addrs != "" {
		return strings.Split(addrs, ","), func() {}, nil
	}
	var members []string
	var servers []*server.Server
	cleanup := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	for i := 0; i < spawn; i++ {
		cache, err := concurrent.New(concurrent.Config{
			Capacity: k,
			Alpha:    alpha,
			Seed:     seed + uint64(i),
		})
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		srv := server.New(cache)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		go srv.Serve(ln)
		servers = append(servers, srv)
		members = append(members, ln.Addr().String())
	}
	fmt.Printf("spawned %d in-process nodes (k=%d α=%d each): %s\n",
		spawn, k, alpha, strings.Join(members, " "))
	return members, cleanup, nil
}

// validateFlags rejects nonsensical parameters with a clear error before
// any node is spawned — including the replication configuration against
// the member count. load.Config.Validate re-checks the subset of the
// harness flags that reaches load.Run.
func validateFlags(c *config) error {
	switch {
	case c.spawn < 0:
		return fmt.Errorf("-spawn %d: node count must not be negative", c.spawn)
	case c.spawn == 0 && c.addrs == "":
		return fmt.Errorf("need members: -spawn N or -addrs a,b,c")
	case c.spawn > 0 && c.addrs != "":
		return fmt.Errorf("-spawn and -addrs are mutually exclusive")
	case c.boot && c.addrs == "":
		return fmt.Errorf("-bootstrap needs seed addresses: -addrs a[,b,...]")
	case c.vnodes < 0:
		return fmt.Errorf("-vnodes %d: virtual node count must not be negative", c.vnodes)
	case c.traceSample < 0:
		return fmt.Errorf("-trace-sample %d: sampling interval must not be negative", c.traceSample)
	case c.nearSlots < 0:
		return fmt.Errorf("-near-slots %d: slot count must not be negative", c.nearSlots)
	case c.nearTTL < 0:
		return fmt.Errorf("-near-ttl %v: TTL must not be negative", c.nearTTL)
	case c.antiEntropy < 0:
		return fmt.Errorf("-anti-entropy %v: sweep period must not be negative", c.antiEntropy)
	case c.wl != "uniform" && c.wl != "zipf" && c.wl != "scan" && c.wl != "adversarial":
		return fmt.Errorf("-workload %q: want uniform, zipf, scan or adversarial", c.wl)
	case c.advDelta <= 0 || c.advDelta >= 1:
		return fmt.Errorf("-adv-delta %v: capacity gap must be in (0, 1)", c.advDelta)
	case c.advSets <= 0:
		return fmt.Errorf("-adv-sets %d: set count must be positive", c.advSets)
	case c.advReps <= 0:
		return fmt.Errorf("-adv-reps %d: replay count must be positive", c.advReps)
	}
	if !c.boot {
		// Under -bootstrap the membership is discovered, not declared, so
		// only cluster.Dial can check R/W against it.
		n := c.spawn
		if c.addrs != "" {
			n = len(strings.Split(c.addrs, ","))
		}
		if err := cluster.ValidateReplication(c.replicas, c.quorum, n); err != nil {
			return err
		}
	}
	switch {
	case c.conns <= 0:
		return fmt.Errorf("-conns %d: connection count must be positive", c.conns)
	case c.ops <= 0:
		return fmt.Errorf("-ops %d: operation count must be positive", c.ops)
	case c.pipeline < 0:
		return fmt.Errorf("-pipeline %d: batch depth must not be negative", c.pipeline)
	case c.valSize < 8:
		return fmt.Errorf("-valsize %d: payloads carry an 8-byte key prefix; need at least 8", c.valSize)
	case c.universe <= 0:
		return fmt.Errorf("-universe %d: universe size must be positive", c.universe)
	case c.duration < 0:
		return fmt.Errorf("-duration %v: duration must not be negative", c.duration)
	case c.open && c.rate <= 0:
		return fmt.Errorf("-open requires -rate > 0 (got %g)", c.rate)
	case !c.open && c.rate != 0:
		return fmt.Errorf("-rate is only meaningful with -open")
	case !c.open && c.duration != 0:
		return fmt.Errorf("-duration is only meaningful with -open")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cachecluster: %v\n", err)
	os.Exit(1)
}
