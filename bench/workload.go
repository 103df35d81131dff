package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/concurrent"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// snapshot is every cumulative counter the program under test exports,
// read once before and once after the timed repetitions; the differences
// are the run's own numbers, warm-up excluded.
type snapshot struct {
	metrics *wire.Metrics // servers' flight recorders, merged
	stats   wire.Stats    // servers' STATS, merged
	lib     concurrent.Snapshot
	repl    cluster.ReplicationCounters
	members map[string]cluster.NodeCounters
	near    uint64 // LeaseCounters: GETs served by the near-cache
	stale   uint64
	grants  uint64
	waits   uint64
}

// wlRun is one workload of one set (A, or A′ under -aa) in flight, alone in
// its process.
type wlRun struct {
	spec   spec
	set    string
	world  *world
	setupS []float64 // seconds each set-up took
	genNs  []float64

	before, after snapshot
	reps          []rep
	traced        *rep                     // the traced repetition, with -trace 1
	self          map[string]time.Duration // its self time per span name
	violations    []string
	violated      int
}

// Set-up is repeated so that setup_s is a median: at least setupMin
// times, and on — up to setupMax — while the set-ups so far took less
// than setupFloor together, because a sub-second set-up is too short for
// three samples to pin down.
const (
	setupMin   = 3
	setupMax   = 7
	setupFloor = 4 * time.Second
)

// needsSetup reports whether another set-up should run: always a first,
// and, when the run reports setup_s (repeat), more until the count and the
// floor above are met.
func (r *wlRun) needsSetup(repeat bool) bool {
	n, total := len(r.setupS), 0.0
	for _, s := range r.setupS {
		total += s
	}
	if n == 0 {
		return true
	}
	return repeat && n < setupMax && (n < setupMin || total < setupFloor.Seconds())
}

// setupOnce tears down the world built before, if any, and builds the
// workload's world again; the last one built is the one the repetitions
// run against.
func (r *wlRun) setupOnce(seed uint64) error {
	if r.world != nil {
		r.world.close()
		r.world = nil
	}
	t0 := time.Now()
	w, err := setup(r.spec, seed)
	if err != nil {
		return err
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	r.genNs = append(r.genNs, w.genNsPerKey)
	r.world = w
	return nil
}

func (r *wlRun) violate(n int, what string) {
	r.violated += n
	r.violations = append(r.violations, what)
}

func (r *wlRun) bracket(s *snapshot) error {
	w := r.world
	if w.cache != nil {
		s.lib = w.cache.Snapshot()
	}
	if len(w.servers) > 0 {
		ms := make(map[string]*wire.Metrics, len(w.servers))
		ss := make(map[string]*wire.Stats, len(w.servers))
		for i, srv := range w.servers {
			ms[w.names[i]] = srv.MetricsSnapshot(wire.MetricsHistograms | wire.MetricsCounters)
			st, err := w.ctl[i].Stats(false)
			if err != nil {
				return fmt.Errorf("STATS %s: %w", w.names[i], err)
			}
			ss[w.names[i]] = st
		}
		s.metrics = cluster.AggregateMetrics(ms)
		s.stats = cluster.AggregateStats(ss)
	}
	if w.router != nil {
		s.repl = w.router.Replication()
		s.members = w.router.Counters()
		s.near, s.stale, s.grants, _, s.waits = w.router.LeaseCounters()
	}
	return nil
}

func (r *wlRun) rep(d time.Duration, traced bool) (rep, error) {
	if r.spec.open {
		return r.world.openRep(d/time.Duration(len(ladder)+1), traced)
	}
	return r.world.closedRep(d, 0, traced)
}

// workloadResult is one workload's reported numbers.
type workloadResult struct {
	Name       string             `json:"name"`
	Set        string             `json:"set"`
	Why        string             `json:"why"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Violations []string           `json:"violations,omitempty"`
	P99Samples int                `json:"batch_p99_samples_per_rep"`
	EndToEnd   map[string]summary `json:"end_to_end"`
	// RepValues are the per-repetition values behind each end-to-end
	// median, in the order the repetitions ran.
	RepValues map[string][]float64 `json:"end_to_end_reps"`
	PerLayer  map[string]summary   `json:"per_layer"`
	Rungs     []string             `json:"rungs,omitempty"`
	SelfNs    map[string]float64   `json:"trace_self_ns_per_get,omitempty"`
}

// layerValue is a per-layer metric's value for the contract line: the
// workload's own figure if it has one, else the isolated one, else 0.
func (w *workloadResult) layerValue(name string, isolated map[string]summary) float64 {
	if s, ok := w.PerLayer[name]; ok {
		return s.Median
	}
	return isolated[name].Median
}

func histDelta(a, b *wire.Metrics, ids ...wire.Op) *telemetry.HistogramSnapshot {
	var d telemetry.HistogramSnapshot
	for _, id := range ids {
		ha, hb := a.Hist(byte(id)), b.Hist(byte(id))
		if ha == nil {
			continue
		}
		d.Count += ha.Count
		d.Sum += ha.Sum
		for i := range d.Buckets {
			d.Buckets[i] += ha.Buckets[i]
		}
		if hb == nil {
			continue
		}
		d.Count -= hb.Count
		d.Sum -= hb.Sum
		for i := range d.Buckets {
			d.Buckets[i] -= hb.Buckets[i]
		}
	}
	return &d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finish turns the raw repetitions and brackets into the reported
// metrics and runs the output checks. rssMB is the process's peak RSS when
// the timed repetitions ended.
func (r *wlRun) finish(isolated map[string]summary, rssMB float64) *workloadResult {
	s := r.spec
	res := &workloadResult{
		Name: s.Name, Set: r.set, Why: s.Why,
		EndToEnd: make(map[string]summary), PerLayer: make(map[string]summary),
		RepValues: make(map[string][]float64),
	}
	var total counts
	per := func(f func(rp *rep) float64) summary {
		xs := make([]float64, len(r.reps))
		for i := range r.reps {
			xs[i] = f(&r.reps[i])
		}
		return summarize(xs)
	}
	for i := range r.reps {
		total.add(r.reps[i].counts)
	}
	gets := float64(total.gets)

	// End to end.
	e := res.EndToEnd
	perE := func(name string, f func(rp *rep) float64) {
		for i := range r.reps {
			res.RepValues[name] = append(res.RepValues[name], f(&r.reps[i]))
		}
		e[name] = summarize(res.RepValues[name])
	}
	if s.open {
		// A paced rung completes what it is offered; the rate worth watching
		// is the one the unpaced rung reached.
		perE("gets_per_s", func(rp *rep) float64 { return rp.unpaced })
	} else {
		perE("gets_per_s", func(rp *rep) float64 { return float64(rp.gets) / rp.elapsed.Seconds() })
	}
	perE("batch_p50_us", func(rp *rep) float64 { return rp.p50 })
	perE("cpu_us_per_get", func(rp *rep) float64 { return float64(rp.cpu) / 1e3 / float64(rp.gets) })
	perE("hit_ratio", func(rp *rep) float64 { return float64(rp.hits) / float64(rp.gets) })
	e["rss_mb"] = one(rssMB)
	e["setup_s"] = summarize(r.setupS)
	if len(r.reps) > 0 {
		res.P99Samples = r.reps[0].samples
	}

	// Per layer, from this workload's own repetitions and brackets.
	l := res.PerLayer
	l["workload.gen_ns_per_key"] = summarize(r.genNs)
	l["load.batch_p99_us"] = per(func(rp *rep) float64 { return rp.p99 })
	l["load.miss_ratio"] = per(func(rp *rep) float64 { return float64(rp.misses) / float64(rp.gets) })
	l["load.allocs_per_get"] = per(func(rp *rep) float64 { return float64(rp.mallocs) / float64(rp.gets) })
	l["runtime.gc_pause_us_per_s"] = per(func(rp *rep) float64 { return float64(rp.gcPause) / 1e3 / rp.elapsed.Seconds() })
	l["runtime.gc_cycles"] = per(func(rp *rep) float64 { return float64(rp.gcCycles) })
	l["runtime.goroutines_peak"] = one(per(func(rp *rep) float64 { return float64(rp.goroutines) }).Max)

	if s.open {
		r.openLayers(res)
	}
	b, a := &r.before, &r.after
	if a.metrics != nil {
		bytes := a.metrics.Counter(wire.CounterBytesIn) + a.metrics.Counter(wire.CounterBytesOut) -
			b.metrics.Counter(wire.CounterBytesIn) - b.metrics.Counter(wire.CounterBytesOut)
		l["wire.bytes_per_get"] = one(float64(bytes) / gets)
		get := histDelta(a.metrics, b.metrics, wire.OpGet, wire.OpGetLease)
		set := histDelta(a.metrics, b.metrics, wire.OpSet)
		del := histDelta(a.metrics, b.metrics, wire.OpDel)
		l["server.get_svc_p50_ns"] = one(float64(get.Quantile(0.50)))
		l["server.get_svc_p99_ns"] = one(float64(get.Quantile(0.99)))
		l["server.set_svc_p50_ns"] = one(float64(set.Quantile(0.50)))
		l["server.del_svc_p50_ns"] = one(float64(del.Quantile(0.50)))
		l["server.tombstones"] = one(float64(a.stats.Tombstones))
		l["server.evictions"] = one(float64(a.stats.Evictions - b.stats.Evictions))
		l["server.hints_queued"] = one(float64(a.stats.HintsQueued - b.stats.HintsQueued))
		inserts := float64(a.stats.Sets + a.stats.RepairSets - b.stats.Sets - b.stats.RepairSets)
		ev := float64(a.stats.Evictions - b.stats.Evictions)
		l["concurrent.evictions_per_insert"] = one(ratio(ev, inserts))
		l["concurrent.conflict_evict_share"] = one(ratio(float64(a.stats.ConflictEvictions-b.stats.ConflictEvictions), ev))
		if rec, ok := isolated["telemetry.record_ns"]; ok {
			l["telemetry.record_share_of_get_p50"] = one(ratio(rec.Median, float64(get.Quantile(0.50))))
		}
		if s.kind == kindNode && get.Count != uint64(total.gets) {
			r.violate(abs(int(get.Count)-total.gets), fmt.Sprintf("server GET histogram counted %d, client sent %d", get.Count, total.gets))
		}
		if s.kind == kindNode && s.Name == "node-hit" && r.traced != nil {
			r.budget(res, isolated, get)
		}
	}
	if s.kind == kindLib {
		ev := float64(a.lib.Evictions - b.lib.Evictions)
		l["concurrent.evictions_per_insert"] = one(ratio(ev, float64(total.sets)))
		l["concurrent.conflict_evict_share"] = one(ratio(float64(a.lib.ConflictEvictions-b.lib.ConflictEvictions), ev))
		if h, m := int(a.lib.Hits-b.lib.Hits), int(a.lib.Misses-b.lib.Misses); h != total.hits || m != total.misses {
			r.violate(abs(h-total.hits)+abs(m-total.misses), "cache's own hit/miss counters disagree with the callers'")
		}
	}
	if r.world.router != nil {
		l["cluster.fallback_share"] = one(float64(a.repl.FallbackHits-b.repl.FallbackHits) / gets)
		l["cluster.repairs_per_kget"] = one(float64(a.repl.RepairsApplied-b.repl.RepairsApplied) * 1000 / gets)
		var redials, hits, most uint64
		for name, ac := range a.members {
			bc := b.members[name]
			redials += ac.Redials - bc.Redials
			h := ac.Hits - bc.Hits
			hits += h
			most = max(most, h)
		}
		l["cluster.redials"] = one(float64(redials))
		l["cluster.owner_share_max"] = one(ratio(float64(most), float64(hits)))
		l["cluster.near_hit_share"] = one(float64(a.near-b.near) / gets)
		l["cluster.lease_grants"] = one(float64(a.grants - b.grants))
		l["cluster.lease_waits"] = one(float64(a.waits - b.waits))
		l["cluster.stale_hints"] = one(float64(a.stale - b.stale))
		if !s.leases {
			if n := int(a.grants - b.grants + a.near - b.near + a.waits - b.waits + a.stale - b.stale); n != 0 {
				r.violate(n, "lease/near-cache counters moved on a workload that has them off")
			}
		}
	}
	if r.traced != nil {
		r.traceLayers(res)
	}

	// The output checks every workload shares.
	if s.fill && total.sets != total.misses {
		r.violate(abs(total.sets-total.misses), fmt.Sprintf("%d misses but %d read-through SETs", total.misses, total.sets))
	}
	res.Attempted = total.attempted()
	res.Failed = total.failed() + r.violated
	res.Violations = r.violations
	l["load.failed_share"] = one(float64(res.Failed) / float64(max(res.Attempted, 1)))
	return res
}

// openLayers reports the ladder: per rung, the median over repetitions.
func (r *wlRun) openLayers(res *workloadResult) {
	l := res.PerLayer
	rungOf := func(i int, f func(g rung) float64) summary {
		xs := make([]float64, len(r.reps))
		for j := range r.reps {
			xs[j] = f(r.reps[j].rungs[i])
		}
		return summarize(xs)
	}
	suffix := []string{"_25k", "", "_100k"}
	for i := range ladder {
		l["load.gen_late_p99_us"+suffix[i]] = rungOf(i, func(g rung) float64 { return g.lateP99 })
		l["load.achieved_share"+suffix[i]] = rungOf(i, func(g rung) float64 { return g.achieved })
		if i != latencyAt {
			l["load.batch_p99_us"+suffix[i]] = rungOf(i, func(g rung) float64 { return g.p99 })
		}
	}
	l["load.gen_late_p50_us"] = rungOf(latencyAt, func(g rung) float64 { return g.lateP50 })
	// The highest rung inside the limit, per repetition; 0 if none.
	xs := make([]float64, len(r.reps))
	for j, rp := range r.reps {
		for _, g := range rp.rungs {
			if g.ok() {
				xs[j] = g.rate
			}
		}
	}
	l["load.rate_ok_gets_per_s"] = summarize(xs)
	// One line per rung for the reader, from the middle repetition.
	mid := r.reps[len(r.reps)/2]
	for _, g := range mid.rungs {
		res.Rungs = append(res.Rungs, g.String())
	}
}

// traceSpanMetric maps a span name to the per-layer metric that carries
// its self time per GET.
var traceSpanMetric = map[string]string{
	"load.batch":       "trace.load_batch_self_ns_per_get",
	"load.verify":      "trace.load_verify_ns_per_get",
	"load.fill":        "trace.load_fill_self_ns_per_get",
	"load.del":         "trace.load_del_ns_per_get",
	"wire.enqueue":     "trace.wire_enqueue_ns_per_get",
	"wire.flush":       "trace.wire_flush_ns_per_get",
	"wire.read":        "trace.wire_read_ns_per_get",
	"wire.SetBatch":    "trace.wire_setbatch_ns_per_get",
	"cluster.GetBatch": "trace.cluster_getbatch_ns_per_get",
	"cluster.SetBatch": "trace.cluster_setbatch_ns_per_get",
	"concurrent.ops":   "trace.concurrent_ops_ns_per_get",
}

// traceLayers reports the traced repetition: self time per GET for every
// span name, the harness's own share, and what tracing cost.
func (r *wlRun) traceLayers(res *workloadResult) {
	t := r.traced
	l := res.PerLayer
	res.SelfNs = make(map[string]float64)
	for name, d := range r.self {
		v := ratio(float64(d), float64(t.tracedGets))
		res.SelfNs[name] = v
		if m, ok := traceSpanMetric[name]; ok {
			l[m] = one(v)
		}
	}
	// The harness's own time per GET: batch assembly and bookkeeping,
	// verification, and building the read-through payloads.
	l["load.self_ns_per_get"] = one(res.SelfNs["load.batch"] + res.SelfNs["load.verify"] + res.SelfNs["load.fill"])
	// The share of a traced batch's time that is tracing. Closed loop, time
	// per batch is the inverse of the rate; open loop only the latencyAt
	// rung is traced, and there it is that rung's median batch.
	untraced, traced := 1/res.EndToEnd["gets_per_s"].Median, t.elapsed.Seconds()/float64(t.gets)
	if r.spec.open {
		untraced, traced = res.EndToEnd["batch_p50_us"].Median, t.p50
	}
	l["trace.overhead_share"] = one(1 - ratio(untraced, traced))
}

// budget adds up node-hit's layers along one worker's request chain and
// names what is left. The chain of one batch is serial — the worker waits
// for the server — so the parts sum against one worker's wall time per
// GET, which is the worker count over the process's GET rate.
func (r *wlRun) budget(res *workloadResult, isolated map[string]summary, get *telemetry.HistogramSnapshot) {
	harness := ratio(float64(r.self["load.batch"]+r.self["load.verify"]), float64(r.traced.tracedGets))
	sum := harness +
		isolated["wire.enc_get_ns"].Median + isolated["wire.dec_get_ns"].Median +
		isolated["wire.dec_hit64_ns"].Median +
		float64(get.Mean()) + // service time: store lookup and response encode
		isolated["server.syscall_ns_per_batch"].Median/depth
	wall := workers * 1e9 / res.EndToEnd["gets_per_s"].Median
	res.PerLayer["budget.sum_ns_per_get"] = one(sum)
	res.PerLayer["budget.residual_share"] = one(1 - sum/wall)
}

func (d *document) print(out io.Writer) {
	fmt.Fprintf(out, "environment: nproc=%d GOMAXPROCS=%d %s kernel=%s loadavg=%q keep_awake=%s steal=%.2f%% seed=%d reps=%d seconds=%g\n",
		d.Env.NProc, d.Env.GOMAXPROCS, d.Env.GoVersion, d.Env.Kernel, d.Env.LoadAvg, d.Env.KeepAwake, 100*d.Env.StealShare, d.Seed, d.Reps, d.Seconds)
	row := func(scope, name, unit string, s summary) {
		fmt.Fprintf(out, "%-18s %-36s %14.6g %-6s [min %.6g max %.6g n=%d]\n", scope, name, s.Median, unit, s.Min, s.Max, s.N)
	}
	for _, w := range d.Workloads {
		fmt.Fprintf(out, "\n== %s (set %s): %s\n", w.Name, w.Set, w.Why)
		for _, def := range endToEnd {
			row(w.Name, def.Name, def.Unit, w.EndToEnd[def.Name])
		}
		fmt.Fprintf(out, "%-18s load.batch_p99_us is the median of per-repetition p99s over %d batches each\n", w.Name, w.P99Samples)
		for _, def := range perLayer {
			if s, ok := w.PerLayer[def.Name]; ok {
				row(w.Name, def.Name, def.Unit, s)
			}
		}
		for _, g := range w.Rungs {
			fmt.Fprintf(out, "%-18s rung %s\n", w.Name, g)
		}
		names := make([]string, 0, len(w.SelfNs))
		for n := range w.SelfNs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "%-18s trace self time %-20s %10.1f ns/GET\n", w.Name, n, w.SelfNs[n])
		}
		fmt.Fprintf(out, "%-18s attempted=%d failed=%d\n", w.Name, w.Attempted, w.Failed)
		for _, v := range w.Violations {
			fmt.Fprintf(out, "%-18s CHECK FAILED: %s\n", w.Name, v)
		}
	}
	if len(d.Isolated) > 0 {
		fmt.Fprintf(out, "\n== isolated per-layer timings\n")
		for _, def := range perLayer {
			if s, ok := d.Isolated[def.Name]; ok {
				row("isolated", def.Name, def.Unit, s)
			}
		}
	}
	if len(d.AA) > 0 {
		fmt.Fprintf(out, "\n== A/A: the same commit against itself\n")
		for _, r := range d.AA {
			verdict := "within"
			if !r.Within {
				verdict = "EXCEEDS"
			}
			fmt.Fprintf(out, "%-18s %-16s A %14.6g  A' %14.6g  worse by %+7.2f%%  bound %5.2f%%  %s\n",
				r.Workload, r.Metric, r.A, r.APrime, 100*r.Worse, 100*r.Bound, verdict)
		}
	}
}
