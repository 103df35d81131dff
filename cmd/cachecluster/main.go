// Command cachecluster runs cached as a horizontally scaled cluster: keys
// route to member nodes through a consistent-hash ring (internal/cluster)
// and each node is an independent α-way set-associative cache, so the
// paper's intra-node α tradeoff composes with inter-node balance.
//
// It either spawns N in-process nodes on loopback (-spawn, the zero-setup
// path) or points at already-running cached daemons (-addrs), drives them
// with the library's workload generators through the routing client, and
// reports aggregate throughput/latency plus a per-node table: replica-set
// ownership share, each node's own STATS deltas and its repair-write
// count — the direct check that consistent hashing spreads both keys and
// load. A "server:" line merges every member's METRICS histograms (wire
// v5) into run-only GET/SET service-time p50/p99, printed next to the
// client-observed latency so transport cost and cache cost can be told
// apart.
//
// Usage:
//
//	cachecluster -spawn 3 -k 65536 -alpha 16 -workload zipf -ops 1000000
//	cachecluster -addrs h1:7070,h2:7070,h3:7070 -workload uniform -conns 8
//	cachecluster -spawn 4 -open -rate 200000 -duration 30s
//	cachecluster -spawn 3 -replicas 2 -write-quorum 1 -workload zipf
//	cachecluster -addrs h1:7070 -bootstrap -workload zipf
//	cachecluster -spawn 3 -workload zipf -zipf-s 1.4 -leases -near-slots 1024
//
// With -bootstrap the -addrs list is treated as seeds only: the actual
// membership is discovered from the highest-epoch MEMBERS view any seed
// reports, so pointing at a single member of an established cluster is
// enough to drive all of it. The balance table is stamped with the
// topology epoch the run ended at, and the client line reports how many
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
// a "leases:" line (client-side tallies) and a "srv leases:" line (the
// members' grant/expiry/stale-serve counters).
//
// With -open -rate R the harness uses the open-loop rate-paced schedule
// with coordinated-omission-safe percentiles (see internal/load). -rehash
// fans an online REHASH out to every member before the run.
//
// With -trace-sample N every worker stamps every N-th of its batches
// with a sampled trace context (wire v6): each member records a span per
// hop it served, and after the run the harness joins the slowest traced
// slow op's spans across nodes — the cross-node path of one sampled
// request, queue waits included. Independently of sampling, every run
// ends with the cluster-wide hot-key table: the merged top-K key sketch
// per op class (GET/SET/DEL/EVICT), which is where a hot-key storm or a
// conflict-pressure key shows up by name (well, by key hash).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/concurrent"
	"repro/internal/load"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	var (
		spawn    = flag.Int("spawn", 0, "spawn this many in-process nodes on loopback")
		addrs    = flag.String("addrs", "", "comma-separated addresses of running cached nodes (alternative to -spawn)")
		boot     = flag.Bool("bootstrap", false, "treat -addrs as seeds: discover the membership via MEMBERS")
		vnodes   = flag.Int("vnodes", 0, "virtual nodes per member on the ring (0 = default)")
		replicas = flag.Int("replicas", 0, "owners per key R (0 or 1 = unreplicated)")
		quorum   = flag.Int("write-quorum", 0, "owners that must ack a SET, W of R (0 = all R)")
		k        = flag.Int("k", 1<<16, "per-node cache capacity (spawned nodes)")
		alpha    = flag.Int("alpha", 16, "per-node set size α (spawned nodes)")
		polName  = flag.String("policy", defaultPolicy, "per-bucket replacement policy (spawned nodes)")
		seed     = flag.Uint64("seed", 1, "hash/workload seed")
		conns    = flag.Int("conns", 4, "concurrent router clients (workers)")
		ops      = flag.Int("ops", 1_000_000, "total GET operations")
		pipeline = flag.Int("pipeline", 16, "requests per round trip")
		valSize  = flag.Int("valsize", 64, "value payload bytes for read-through SETs")
		wl       = flag.String("workload", "zipf", "uniform|zipf|scan")
		universe = flag.Int("universe", 1<<18, "workload universe size")
		zipfS    = flag.Float64("zipf-s", 0.99, "zipf skew exponent")
		readThru = flag.Bool("readthrough", true, "SET every missed key (read-through)")
		verify   = flag.Bool("verify", true, "verify hit payloads carry their key")
		rehash   = flag.Bool("rehash", false, "fan REHASH out to all members before the run")
		open     = flag.Bool("open", false, "open-loop mode: rate-paced arrivals, coordinated-omission-safe percentiles")
		rate     = flag.Float64("rate", 0, "intended aggregate GET rate in ops/sec (open-loop mode, required)")
		duration = flag.Duration("duration", 0, "stop issuing after this long (open-loop mode; 0 = when ops are exhausted)")
		traceSm  = flag.Int("trace-sample", 0, "stamp every Nth batch per worker with a sampled trace context (0 = tracing off)")
		leases   = flag.Bool("leases", false, "lease/singleflight misses (wire v7 GETL): one fill per cold key cluster-wide, concurrent missers wait or eat a stale hint")
		nearSl   = flag.Int("near-slots", 0, "per-worker near-cache slots (0 = off): serve repeat reads in-process, version-invalidated")
		nearTTL  = flag.Duration("near-ttl", 0, "near-cache entry TTL (0 = default); the staleness budget granted to the client edge")
		antiEnt  = flag.Duration("anti-entropy", 0, "background anti-entropy sweep period (wire v8, 0 = off): compare replica record sets and repair divergence, tombstones included")
	)
	flag.Parse()

	if err := validateFlags(*spawn, *addrs, *boot, *replicas, *quorum, *vnodes, *conns, *ops, *pipeline, *valSize, *universe, *open, *rate, *duration); err != nil {
		fatal(err)
	}

	members, cleanup, err := buildMembers(*spawn, *addrs, *k, *alpha, *polName, *seed)
	if err != nil {
		fatal(err)
	}
	defer cleanup()

	// The replication configuration was validated against the member count
	// up front (validateFlags); under -bootstrap the membership is only
	// known after discovery, so cluster.Dial re-checks it there.
	if *traceSm < 0 {
		fatal(fmt.Errorf("-trace-sample %d: sampling interval must not be negative", *traceSm))
	}
	if *nearSl < 0 {
		fatal(fmt.Errorf("-near-slots %d: slot count must not be negative", *nearSl))
	}
	if *nearTTL < 0 {
		fatal(fmt.Errorf("-near-ttl %v: TTL must not be negative", *nearTTL))
	}
	if *antiEnt < 0 {
		fatal(fmt.Errorf("-anti-entropy %v: sweep period must not be negative", *antiEnt))
	}
	opts := cluster.Options{
		VNodes: *vnodes, Replicas: *replicas, WriteQuorum: *quorum, Bootstrap: *boot,
		TraceSample: *traceSm, Leases: *leases,
		NearCache:   cluster.NearCacheOptions{Slots: *nearSl, TTL: *nearTTL},
		AntiEntropy: *antiEnt,
	}
	ctl, err := cluster.Dial(members, opts)
	if err != nil {
		fatal(err)
	}
	defer ctl.Close()
	if *rehash {
		if err := ctl.RehashAll(); err != nil {
			fatal(err)
		}
		fmt.Println("online rehash requested on all members")
	}
	before, err := ctl.StatsAll(false)
	if err != nil {
		fatal(err)
	}
	// Flight-recorder baseline, so the server-side percentiles printed
	// below cover this run only, not whatever the daemons served before
	// (histogram buckets are monotone counters, so before/after subtracts
	// exactly).
	msBefore, err := ctl.MetricsAll(wire.MetricsHistograms)
	if err != nil {
		fatal(err)
	}

	var gen workload.Generator
	switch *wl {
	case "uniform":
		gen = workload.Uniform{Universe: *universe}
	case "zipf":
		gen = workload.Zipf{Universe: *universe, S: *zipfS, Shuffle: true}
	case "scan":
		gen = workload.Scan{Universe: *universe}
	default:
		fatal(fmt.Errorf("unknown workload %q", *wl))
	}
	keys := gen.Generate(*ops, *seed)

	res, err := load.Run(load.Config{
		Dial:        func() (load.Conn, error) { return cluster.Dial(members, opts) },
		Conns:       *conns,
		Keys:        keys,
		Pipeline:    *pipeline,
		ValueSize:   *valSize,
		ReadThrough: *readThru,
		Verify:      *verify,
		OpenLoop:    *open,
		Rate:        *rate,
		Duration:    *duration,
	})
	if err != nil {
		fatal(err)
	}

	mode := "closed-loop"
	if res.OpenLoop {
		mode = fmt.Sprintf("open-loop @ %.0f ops/s intended", res.IntendedRate)
	}
	if *replicas > 1 {
		w := *quorum
		if w == 0 {
			w = *replicas
		}
		mode += fmt.Sprintf(", R=%d W=%d", *replicas, w)
	}
	if *leases {
		mode += ", leases"
	}
	if *nearSl > 0 {
		mode += fmt.Sprintf(", near=%d", *nearSl)
	}
	fmt.Printf("cluster of %d nodes, workload %s: %d ops over %d conns (pipeline %d, %s) in %v\n",
		len(members), gen.Name(), res.Ops, *conns, *pipeline, mode, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("  throughput: %12.0f GET/s\n", res.Throughput)
	lat := ""
	if res.OpenLoop {
		lat = ", from intended send time"
	}
	fmt.Printf("  latency:    p50=%v p90=%v p99=%v max=%v (per %d-deep batch%s)\n",
		res.Latency.P50, res.Latency.P90, res.Latency.P99, res.Latency.Max, *pipeline, lat)
	fmt.Printf("  client:     hits=%d misses=%d (miss ratio %.4f) sets=%d repairs=%d stale=%d refreshes=%d corrupt=%d\n",
		res.Hits, res.Misses, res.MissRatio(), res.Sets, res.Repairs, res.StaleRepairs, res.Refreshes, res.Corrupt)
	fmt.Printf("  memory:     %.2f allocs/op, gc-pause %v (harness process)\n",
		res.AllocsPerOp, res.GCPause.Round(time.Microsecond))
	if *leases || *nearSl > 0 {
		fmt.Printf("  leases:     nearhits=%d stalehints=%d grants=%d lost=%d waits=%d\n",
			res.NearHits, res.StaleHints, res.LeaseGrants, res.LeaseLost, res.LeaseWaits)
	}

	msAfter, err := ctl.MetricsAll(wire.MetricsHistograms)
	if err != nil {
		fatal(err)
	}
	printServerLatency(msBefore, msAfter)

	after, err := ctl.StatsAll(false)
	if err != nil {
		fatal(err)
	}
	printBalance(ctl, before, after)

	agg := cluster.AggregateStats(after)
	fmt.Printf("  aggregate:  len=%d/%d evictions=%d conflict=%d flush=%d rehashes=%d sets=%d repairs=%d stale=%d migrating=%v\n",
		agg.Len, agg.Capacity, agg.Evictions, agg.ConflictEvictions,
		agg.FlushEvictions, agg.Rehashes, agg.Sets, agg.RepairSets, agg.StaleRepairs, agg.Migrating)
	if agg.LeasesGranted+agg.LeasesExpired+agg.StaleServes > 0 {
		fmt.Printf("  srv leases: granted=%d expired=%d staleserves=%d (summed over cluster)\n",
			agg.LeasesGranted, agg.LeasesExpired, agg.StaleServes)
	}

	// Hot keys are recorded regardless of sampling; spans and the trace
	// join exist only when -trace-sample stamped some batches.
	msHot, err := ctl.MetricsAll(wire.MetricsHotKeys | wire.MetricsTraces | wire.MetricsSlowOps)
	if err != nil {
		fatal(err)
	}
	aggHot := cluster.AggregateMetrics(msHot)
	printHotKeys(aggHot)
	if *traceSm > 0 {
		printTraceJoin(msHot, aggHot)
	}
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
func printBalance(ctl *cluster.Client, before, after map[string]*wire.Stats) {
	const samples = 1 << 16
	share, replicas := ctl.OwnerSample(samples, 42)
	fmt.Printf("  balance at topology epoch %d:\n", ctl.Epoch())
	fmt.Printf("  %-22s %7s %12s %12s %10s %8s %10s\n", "node", "share%", "Δhits", "Δmisses", "Δrepairs", "Δstale", "len")
	for _, m := range ctl.Nodes() {
		b, a := before[m], after[m]
		if b == nil || a == nil {
			fmt.Printf("  %-22s %6.1f%%  (joined mid-run; no stats delta)\n",
				m, 100*float64(share[m])/float64(samples*replicas))
			continue
		}
		fmt.Printf("  %-22s %6.1f%% %12d %12d %10d %8d %10d\n",
			m, 100*float64(share[m])/float64(samples*replicas),
			a.Hits-b.Hits, a.Misses-b.Misses, a.RepairSets-b.RepairSets,
			a.StaleRepairs-b.StaleRepairs, a.Len)
	}
}

// defaultPolicy is the -policy default.
const defaultPolicy = "lru"

// buildMembers spawns in-process nodes or parses -addrs.
func buildMembers(spawn int, addrs string, k, alpha int, polName string, seed uint64) ([]string, func(), error) {
	if addrs != "" {
		return strings.Split(addrs, ","), func() {}, nil
	}
	kind, err := policy.ParseKind(polName)
	if err != nil {
		return nil, nil, err
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
			Policy:   policy.BucketFactory(kind, seed+uint64(i)),
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
	fmt.Printf("spawned %d in-process nodes (k=%d α=%d policy=%s each): %s\n",
		spawn, k, alpha, kind, strings.Join(members, " "))
	return members, cleanup, nil
}

// validateFlags rejects nonsensical parameters up front with a clear
// error — including the replication configuration against the member
// count, which used to surface only as a late cluster.Dial error after the
// nodes had already been spawned; the harness flags shared with cacheload
// are checked by load.ValidateHarnessFlags.
func validateFlags(spawn int, addrs string, boot bool, replicas, quorum, vnodes, conns, ops, pipeline, valSize, universe int, open bool, rate float64, duration time.Duration) error {
	switch {
	case spawn < 0:
		return fmt.Errorf("-spawn %d: node count must not be negative", spawn)
	case spawn == 0 && addrs == "":
		return fmt.Errorf("need members: -spawn N or -addrs a,b,c")
	case spawn > 0 && addrs != "":
		return fmt.Errorf("-spawn and -addrs are mutually exclusive")
	case boot && addrs == "":
		return fmt.Errorf("-bootstrap needs seed addresses: -addrs a[,b,...]")
	case vnodes < 0:
		return fmt.Errorf("-vnodes %d: virtual node count must not be negative", vnodes)
	}
	if !boot {
		// Under -bootstrap the membership is discovered, not declared, so
		// only cluster.Dial can check R/W against it.
		n := spawn
		if addrs != "" {
			n = len(strings.Split(addrs, ","))
		}
		if err := cluster.ValidateReplication(replicas, quorum, n); err != nil {
			return err
		}
	}
	return load.ValidateHarnessFlags(conns, ops, pipeline, valSize, universe, open, rate, duration)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cachecluster: %v\n", err)
	os.Exit(1)
}
