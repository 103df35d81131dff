// The cluster example is the walkthrough of the cluster-level rehash
// analogy and its replicated sequel: cached nodes behind a rendezvous-hashed
// ring, live zipf traffic flowing through one routing client, and
// membership changes — including an outright node crash — happening
// underneath it.
//
// Act one (unreplicated) demonstrates the two halves of the analogy:
//
//   - AddNode under live traffic: the ring reassigns ~1/(n+1) of the key
//     space to the newcomer — the cluster's version of the misses a fresh
//     intra-node hash pays during an incremental rehash — and the
//     background warm-up copies that share into the newcomer while
//     traffic flows, so only the reads that beat the copy miss and refill
//     through the read-through path.
//   - RemoveNode under live traffic: the departing node's residents are
//     drained and PUT on their new owners before its connection closes,
//     so the hit ratio barely moves — bounded key movement with no silent
//     loss, every key moved or accounted for by an eviction counter.
//
// Act two (replicas=2) demonstrates what replication buys: a member is
// killed mid-traffic — no drain, no goodbye — and not a single read is
// lost, because every key's surviving owner serves it through the client's
// fallback path while background read repair regenerates lost copies. The
// price appears alongside: double the resident memory and write fan-out.
//
// Act three (replicas=2 again) shows warm-up where replicas make it
// matter most: AddNode streams the newcomer's share out of the existing
// owners (chunked KEYS + PUTs, each key's newest record once) on dedicated
// connections while live traffic flows, and once the warm-up completes a
// full sweep reads every key without fallbacks — the newcomer serves its
// share from the first request.
//
// Act four is the observability sequel: one member is secretly stuck in
// back-to-back rehashes (the paper's own slow path: every one flushes the
// last migration's stragglers and marks the whole cache awaiting remap, so
// that member's requests queue behind it and miss), the client's blended
// latency can only say *something* is wrong, and the per-node METRICS
// fan-out (wire v5) localizes the hot member from its own service-time
// histogram — with its slow-op ring naming the ops that paid — without a
// shell on any box.
//
// Run with: go run ./examples/cluster
package main

import (
	"fmt"
	"log"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/concurrent"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

const (
	kPerNode = 1 << 12
	universe = 9000
	depth    = 32
)

func startNode(seed uint64) (string, *server.Server) {
	cache, err := concurrent.New(concurrent.Config{Capacity: kPerNode, Alpha: 16, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(cache)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), srv
}

// traffic drives a background zipf GET loop with read-through refills
// through ctl until stop is closed, tallying gets/hits/misses.
type traffic struct {
	gets, hits, misses atomic.Uint64
	stop, done         chan struct{}
}

func startTraffic(ctl *cluster.Client, keys trace.Sequence) *traffic {
	tr := &traffic{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(tr.done)
		batch := make([]uint64, depth)
		var missed []uint64
		for pos := 0; ; pos += depth {
			select {
			case <-tr.stop:
				return
			default:
			}
			for j := range batch {
				batch[j] = uint64(keys[(pos+j)%len(keys)])
			}
			missed = missed[:0]
			if err := ctl.GetBatch(batch, func(i int, hit bool, _ []byte) {
				tr.gets.Add(1)
				if hit {
					tr.hits.Add(1)
				} else {
					tr.misses.Add(1)
					missed = append(missed, batch[i])
				}
			}); err != nil {
				log.Fatalf("read failed under live traffic: %v", err)
			}
			if len(missed) > 0 {
				m := missed
				if err := ctl.SetBatch(m, func(i int) []byte { return load.Payload(m[i], 32) }); err != nil {
					log.Fatalf("read-through refill failed: %v", err)
				}
			}
		}
	}()
	return tr
}

// window measures the live hit ratio over the next d of traffic.
func (tr *traffic) window(d time.Duration) (ratio float64, qps float64) {
	h0, g0 := tr.hits.Load(), tr.gets.Load()
	time.Sleep(d)
	dh, dg := tr.hits.Load()-h0, tr.gets.Load()-g0
	if dg == 0 {
		return 0, 0
	}
	return float64(dh) / float64(dg), float64(dg) / d.Seconds()
}

func shares(ctl *cluster.Client) {
	sample, replicas := ctl.OwnerSample(1<<14, 42)
	for _, n := range ctl.Nodes() {
		fmt.Printf("    %-22s replica-set share %5.1f%%\n",
			n, 100*float64(sample[n])/float64((1<<14)*replicas))
	}
}

func main() {
	actOne()
	actTwo()
	actThree()
	actFour()
}

// actOne is the original unreplicated membership walkthrough: a warmed
// join, then a drained removal.
func actOne() {
	var servers []*server.Server
	var addrs []string
	for i := 0; i < 3; i++ {
		addr, srv := startNode(uint64(i + 1))
		addrs = append(addrs, addr)
		servers = append(servers, srv)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	ctl, err := cluster.Dial(addrs, cluster.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Close()
	fmt.Printf("act one — cluster of %d nodes (k=%d each), zipf live traffic, universe %d\n\n",
		len(addrs), kPerNode, universe)

	keys := workload.Zipf{Universe: universe, S: 0.9, Shuffle: true}.Generate(1<<20, 7)
	tr := startTraffic(ctl, keys)

	ratio, qps := tr.window(700 * time.Millisecond)
	fmt.Printf("steady state:       hit ratio %.3f at %.0f GET/s\n", ratio, qps)
	shares(ctl)

	addr4, srv4 := startNode(4)
	servers = append(servers, srv4)
	w, err := ctl.AddNode(addr4)
	if err != nil {
		log.Fatal(err)
	}
	ratio, qps = tr.window(250 * time.Millisecond)
	fmt.Printf("\nAddNode(%s) under live traffic:\n", addr4)
	fmt.Printf("  just after:       hit ratio %.3f at %.0f GET/s  (warm-up copies the reassigned keys; reads that beat it miss and refill)\n", ratio, qps)
	ws := w.Wait()
	fmt.Printf("  warm-up done:     %d copied in, %d superseded by newer writes (err=%v)\n", ws.Copied, ws.Stale, ws.Err)
	ratio, qps = tr.window(700 * time.Millisecond)
	fmt.Printf("  after:            hit ratio %.3f at %.0f GET/s\n", ratio, qps)
	shares(ctl)

	moved, dropped, err := ctl.RemoveNode(addrs[0])
	if err != nil {
		log.Fatal(err)
	}
	ratio, qps = tr.window(700 * time.Millisecond)
	fmt.Printf("\nRemoveNode(%s) under live traffic:\n", addrs[0])
	fmt.Printf("  migrated %d residents to their new owners (%d dropped)\n", moved, dropped)
	fmt.Printf("  just after:       hit ratio %.3f at %.0f GET/s  (no refill dip: entries moved, not lost)\n", ratio, qps)
	shares(ctl)

	close(tr.stop)
	<-tr.done

	ms, err := ctl.MetricsAll(wire.MetricsCounters)
	if err != nil {
		log.Fatal(err)
	}
	agg := cluster.AggregateMetrics(ms).Stats()
	fmt.Printf("\naggregate: len=%d/%d hits=%d misses=%d evictions=%d (conflict %d)\n",
		agg.Len, agg.Capacity, agg.Hits, agg.Misses, agg.Evictions, agg.ConflictEvictions)
}

// actTwo replays the node-loss story with R=2 replication: a member is
// crashed mid-traffic and zero reads are lost.
func actTwo() {
	var servers []*server.Server
	var addrs []string
	for i := 0; i < 3; i++ {
		addr, srv := startNode(uint64(i + 10))
		addrs = append(addrs, addr)
		servers = append(servers, srv)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	// W=1 keeps writes available through a single node loss; the second
	// copy of each write lands on the other owner whenever it is alive.
	ctl, err := cluster.Dial(addrs, cluster.Options{Replicas: 2, WriteQuorum: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Close()
	fmt.Printf("\nact two — same cluster, replicas=2 write-quorum=1: every key on two owners\n\n")

	keys := workload.Zipf{Universe: universe, S: 0.9, Shuffle: true}.Generate(1<<20, 11)
	tr := startTraffic(ctl, keys)

	ratio, qps := tr.window(700 * time.Millisecond)
	fmt.Printf("steady state:       hit ratio %.3f at %.0f GET/s  (write fan-out ×2 buys the safety below)\n", ratio, qps)
	shares(ctl)

	// Kill a member outright: no drain, no RemoveNode, connections die
	// mid-pipeline. Every key it held also lives on its other owner, so the
	// fallback path keeps serving and not one read is lost — the traffic
	// loop log.Fatals on any read error.
	victim := addrs[0]
	m0 := tr.misses.Load()
	if err := servers[0].Close(); err != nil {
		log.Fatal(err)
	}
	ratio, qps = tr.window(400 * time.Millisecond)
	fmt.Printf("\nkill -9 %s under live traffic:\n", victim)
	fmt.Printf("  just after:       hit ratio %.3f at %.0f GET/s  (fallback reads, slower but nothing lost)\n", ratio, qps)
	fmt.Printf("  misses added:     %d (read repair refills the survivor-set gaps)\n", tr.misses.Load()-m0)

	// Retire the corpse: with replicas the router never contacts it, so
	// removing a dead member is instant and the ring stops routing to it.
	if _, _, err := ctl.RemoveNode(victim); err != nil {
		log.Fatal(err)
	}
	ratio, qps = tr.window(700 * time.Millisecond)
	fmt.Printf("\nRemoveNode(%s) — no drain needed, survivors already hold the data:\n", victim)
	fmt.Printf("  after:            hit ratio %.3f at %.0f GET/s\n", ratio, qps)
	shares(ctl)

	close(tr.stop)
	<-tr.done

	rep := ctl.Snapshot().Replication
	fmt.Printf("\nreplication: fallback hits=%d, repairs scheduled=%d applied=%d dropped=%d\n",
		rep.FallbackHits, rep.RepairsScheduled, rep.RepairsApplied, rep.RepairsDropped)
	ms, err := ctl.MetricsAll(wire.MetricsCounters)
	if err != nil {
		log.Fatal(err)
	}
	agg := cluster.AggregateMetrics(ms).Stats()
	fmt.Printf("aggregate: len=%d/%d hits=%d misses=%d user sets=%d repair sets=%d\n",
		agg.Len, agg.Capacity, agg.Hits, agg.Misses, agg.Sets, agg.RepairSets)
	fmt.Println("\nzero reads lost to a node crash: that is what R=2 buys for 2× memory and write fan-out.")
}

// actThree replays act one's join with warm-up on: the newcomer's share is
// streamed into it before user reads ever ask for it, so the post-join dip
// all but disappears and a sweep after Wait() needs no replica fallbacks.
func actThree() {
	var servers []*server.Server
	var addrs []string
	for i := 0; i < 3; i++ {
		addr, srv := startNode(uint64(i + 20))
		addrs = append(addrs, addr)
		servers = append(servers, srv)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	ctl, err := cluster.Dial(addrs, cluster.Options{Replicas: 2, WriteQuorum: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Close()
	fmt.Printf("\nact three — same cluster, replicas=2, this time with proactive warm-up on AddNode\n\n")

	keys := workload.Zipf{Universe: universe, S: 0.9, Shuffle: true}.Generate(1<<20, 13)
	tr := startTraffic(ctl, keys)

	ratio, qps := tr.window(700 * time.Millisecond)
	fmt.Printf("steady state:       hit ratio %.3f at %.0f GET/s  (epoch %d)\n", ratio, qps, ctl.Snapshot().Epoch)

	addr4, srv4 := startNode(24)
	servers = append(servers, srv4)
	rep0 := ctl.Snapshot().Replication
	w, err := ctl.AddNode(addr4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAddNode(%s) — warm-up streaming the newcomer's share in the background:\n", addr4)
	ratio, qps = tr.window(250 * time.Millisecond)
	fmt.Printf("  during warm-up:   hit ratio %.3f at %.0f GET/s\n", ratio, qps)
	ws := w.Wait()
	fmt.Printf("  warm-up done:     %d keys streamed, %d copied in, %d vanished mid-copy, %d superseded by newer writes (err=%v)\n",
		ws.Streamed, ws.Copied, ws.Vanished, ws.Stale, ws.Err)
	ratio, qps = tr.window(700 * time.Millisecond)
	fmt.Printf("  after:            hit ratio %.3f at %.0f GET/s  (epoch %d)\n", ratio, qps, ctl.Snapshot().Epoch)
	shares(ctl)

	close(tr.stop)
	<-tr.done

	// The proof: a full sweep of the hot set after warm-up needs (almost)
	// no replica fallbacks — the newcomer answers for its share directly.
	sweep := make([]uint64, universe)
	for i := range sweep {
		sweep[i] = uint64(keys[i%len(keys)])
	}
	fb0 := ctl.Snapshot().Replication.FallbackHits - rep0.FallbackHits
	misses := 0
	if err := ctl.GetBatch(sweep, func(_ int, hit bool, _ []byte) {
		if !hit {
			misses++
		}
	}); err != nil {
		log.Fatal(err)
	}
	fb := ctl.Snapshot().Replication.FallbackHits - rep0.FallbackHits - fb0
	fmt.Printf("\npost-warm-up sweep of %d reads: %d misses, %d replica fallbacks — the join cost user reads ≈ nothing.\n",
		len(sweep), misses, fb)
}

// actFour is the observability act: one of three members is secretly slow,
// and the client's blended numbers cannot say which. The per-node METRICS
// fan-out can — each member's flight recorder holds its own service-time
// histogram, so the hot node is the row whose tail is orders of magnitude
// off, and its slow-op ring names the ops that paid for it.
func actFour() {
	const slowOp = 10 * time.Microsecond
	var servers []*server.Server
	var addrs []string
	for i := 0; i < 3; i++ {
		addr, srv := startNode(uint64(i + 30))
		// Drop the flight recorder's slow-op threshold to a few healthy
		// GET p99s, so the victim's ring fills; a healthy ring holds only
		// the odd scheduler hiccup.
		srv.SetSlowOpThreshold(slowOp)
		addrs = append(addrs, addr)
		servers = append(servers, srv)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	culprit := addrs[2]

	// The culprit rehashes back to back until the act ends: nothing about
	// the wire, the client or the other members is touched.
	stopRehash, rehashDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(rehashDone)
		cache := servers[2].Cache()
		for {
			select {
			case <-stopRehash:
				return
			default:
				cache.Rehash()
			}
		}
	}()
	defer func() {
		close(stopRehash)
		<-rehashDone
	}()

	ctl, err := cluster.Dial(addrs, cluster.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Close()
	fmt.Printf("\nact four — same cluster, but one member is secretly slow (stuck in back-to-back rehashes)\n\n")

	keys := workload.Zipf{Universe: universe, S: 0.9, Shuffle: true}.Generate(1<<20, 17)
	tr := startTraffic(ctl, keys)
	ratio, qps := tr.window(900 * time.Millisecond)
	fmt.Printf("client view:        hit ratio %.3f at %.0f GET/s — something is slow, but every batch blends all three nodes\n", ratio, qps)
	close(tr.stop)
	<-tr.done

	per, err := ctl.MetricsAll(wire.MetricsAll)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nper-node flight recorders (METRICS fan-out):\n")
	var hot string
	var hotP99 time.Duration
	for _, n := range ctl.Nodes() {
		h := per[n].Hist(byte(wire.OpGet))
		if h == nil || h.Count == 0 {
			log.Fatalf("node %s returned no GET histogram", n)
		}
		p99 := h.Quantile(0.99)
		fmt.Printf("    %-22s GET p50=%-10v p99=%-10v (%d ops, %d in the slow-op ring)\n",
			n, h.Quantile(0.50), p99, h.Count, len(per[n].SlowOps))
		if p99 > hotP99 {
			hot, hotP99 = n, p99
		}
	}
	agg := cluster.AggregateMetrics(per)
	cg := agg.Hist(byte(wire.OpGet))
	fmt.Printf("    %-22s GET p50=%-10v p99=%-10v (the merged view shows the tail, not the culprit)\n",
		"cluster (merged)", cg.Quantile(0.50), cg.Quantile(0.99))

	if hot != culprit {
		log.Fatalf("diagnosis picked %s, but the rehash loop ran on %s", hot, culprit)
	}
	ring := per[hot].SlowOps
	fmt.Printf("\ndiagnosis: %s is the hot member — and its slow-op ring has the receipts: %d ops over the %v threshold",
		hot, len(ring), slowOp)
	if len(ring) > 0 {
		last := ring[len(ring)-1]
		fmt.Printf(", e.g. %s of key-hash %016x taking %v",
			wire.Op(last.Op), last.KeyHash, last.Duration().Round(time.Microsecond))
	}
	fmt.Printf("\nno shell on the box, no guesswork: the wire op that serves the cache also serves its own diagnosis.\n")
}
