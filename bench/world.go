package main

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/concurrent"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The fixed shape every workload shares, sized for a 2-core host.
const (
	workers  = 2     // client connections, one worker goroutine each
	depth    = 16    // pipelined GETs per batch
	capacity = 32768 // k per node (and for the in-process cache)
	alpha    = 16    // α per node
	delEvery = 100   // one DEL after every delEvery-th batch (1% of batches)
)

// ladder is the fixed set of open-loop offered rates in GET/s; latencyAt
// names the rung whose percentiles are the workload's batch_p*_us.
var ladder = []float64{25_000, 50_000, 100_000}

const (
	latencyAt    = 1    // index of the 50k rung
	latencyLimit = 1000 // batch_p99_us a rung must stay under to be "ok"
	lateLimit    = 50   // generator lateness p99 (µs) above which a rung is invalid
)

type kind int

const (
	kindNode kind = iota
	kindCluster
	kindLib
)

// spec is one named workload. Nothing in it reaches the program under
// test except through the keys, values and calls it causes.
type spec struct {
	Name string
	Why  string

	kind      kind
	nodes     int
	replicas  int
	leases    bool
	nearSlots int
	open      bool

	universe  int
	zipfS     float64
	valueSize int
	fill      bool // read-through SET on every miss
	dels      bool // 1% of batches followed by one DEL
	prefill   int  // distinct stream keys SET, in large batches, before warm-up

	streamLen int // keys generated; workers replay their halves cyclically
	warmOps   int // GETs of the unmeasured warm-up pass
}

var specs = []spec{
	{
		Name: "node-hit",
		Why:  "one node, GET-only, 64 B values, keys fit the cache: per-frame cost (wire codec, syscalls, loopback) is nearly all the work",
		kind: kindNode, nodes: 1, universe: 16384, zipfS: 0.99, valueSize: 64,
		prefill: 16384, streamLen: 1 << 20, warmOps: 1 << 16,
	},
	{
		Name: "node-churn",
		Why:  "one node, key set 8x the cache, 1 KiB read-through SETs and 1% DELs: eviction, the versioned record and SET copy cost beside reads",
		kind: kindNode, nodes: 1, universe: 262144, zipfS: 0.99, valueSize: 1024,
		fill: true, dels: true, prefill: capacity, streamLen: 1 << 22, warmOps: 1 << 17,
	},
	{
		Name: "cluster-r2",
		Why:  "3 nodes behind the router at R=2, 4 KiB read-through SETs, 1% DELs: ring lookup, partition, fan-out and replica writes do most of the work",
		kind: kindCluster, nodes: 3, replicas: 2, universe: 196608, zipfS: 0.99, valueSize: 4096,
		fill: true, dels: true, prefill: 3 * capacity / 2, streamLen: 1 << 20, warmOps: 1 << 16,
	},
	{
		Name: "cluster-hot-open",
		Why:  "same cluster with leases and near-cache on, open loop at 25k/50k/100k GET/s over a hot-headed key set: latency at a caller's own cadence",
		kind: kindCluster, nodes: 3, replicas: 2, leases: true, nearSlots: 1024, open: true,
		universe: 196608, zipfS: 1.2, valueSize: 64,
		fill: true, prefill: 3 * capacity / 2, streamLen: 1 << 20, warmOps: 1 << 16,
	},
	{
		Name: "lib-inproc",
		Why:  "no server, no wire: 2 goroutines call concurrent.Cache directly on the node-churn key stream, so store work and bucket-lock contention are all of it",
		kind: kindLib, universe: 262144, zipfS: 0.99, valueSize: 1024,
		fill: true, dels: true, prefill: capacity, streamLen: 1 << 22, warmOps: 1 << 19,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks the generated stream and warm-up for smoke tests; the
// key universe and cache sizes stay, so behaviour per key is unchanged.
func (s spec) scaled(size float64) spec {
	if size >= 1 {
		return s
	}
	s.streamLen = max(int(float64(s.streamLen)*size), workers*depth*4)
	s.warmOps = max(int(float64(s.warmOps)*size), workers*depth*4)
	return s
}

// conn is what a worker drives: one wire.Client against one node, or the
// shared cluster.Client. sp is nil with tracing off.
type conn interface {
	getBatch(keys []uint64, visit func(i int, hit bool, v []byte), sp *spanBuf, parent, batch int) error
	setBatch(keys []uint64, value func(i int) []byte, sp *spanBuf, parent, batch int) error
	del(key uint64) error
}

// wireConn drives the single-node workloads through the explicit
// enqueue / flush / read calls, so a traced run can time each apart.
type wireConn struct{ c *wire.Client }

func (w wireConn) getBatch(keys []uint64, visit func(int, bool, []byte), sp *spanBuf, parent, batch int) error {
	var t0, t1, t2 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	for _, k := range keys {
		if err := w.c.EnqueueGet(k); err != nil {
			return err
		}
	}
	if sp != nil {
		t1 = time.Now()
		sp.add("wire.enqueue", t0, t1, parent, batch)
	}
	if err := w.c.Flush(); err != nil {
		return err
	}
	if sp != nil {
		t2 = time.Now()
		sp.add("wire.flush", t1, t2, parent, batch)
	}
	var inVisit time.Duration
	for i := range keys {
		resp, err := w.c.ReadResponse()
		if err != nil {
			return err
		}
		var v0 time.Time
		if sp != nil {
			v0 = time.Now()
		}
		switch resp.Status {
		case wire.StatusHit:
			visit(i, true, resp.Value)
		case wire.StatusMiss:
			visit(i, false, nil)
		default:
			return fmt.Errorf("bench: unexpected GET response %v", resp.Status)
		}
		if sp != nil {
			inVisit += time.Since(v0)
		}
	}
	if sp != nil {
		// The visit callback is the harness's own work (verify, miss
		// list); it is carved out of wire.read and recorded as its sibling.
		end := time.Now()
		sp.add("wire.read", t2, end.Add(-inVisit), parent, batch)
		sp.addDur("load.verify", end.Add(-inVisit), inVisit, parent, batch)
	}
	return nil
}

func (w wireConn) setBatch(keys []uint64, value func(int) []byte, sp *spanBuf, parent, batch int) error {
	if sp == nil {
		return w.c.SetBatch(keys, value)
	}
	t0 := time.Now()
	err := w.c.SetBatch(keys, value)
	sp.add("wire.SetBatch", t0, time.Now(), parent, batch)
	return err
}

func (w wireConn) del(key uint64) error {
	_, _, err := w.c.Del(key)
	return err
}

// clusterConn drives the routed workloads; both workers share one
// cluster.Client and so contend for its per-member connections.
type clusterConn struct{ c *cluster.Client }

func (w clusterConn) getBatch(keys []uint64, visit func(int, bool, []byte), sp *spanBuf, parent, batch int) error {
	if sp == nil {
		return w.c.GetBatch(keys, visit)
	}
	var inVisit time.Duration
	t0 := time.Now()
	err := w.c.GetBatch(keys, func(i int, hit bool, v []byte) {
		v0 := time.Now()
		visit(i, hit, v)
		inVisit += time.Since(v0)
	})
	end := time.Now()
	sp.add("cluster.GetBatch", t0, end.Add(-inVisit), parent, batch)
	sp.addDur("load.verify", end.Add(-inVisit), inVisit, parent, batch)
	return err
}

func (w clusterConn) setBatch(keys []uint64, value func(int) []byte, sp *spanBuf, parent, batch int) error {
	if sp == nil {
		return w.c.SetBatch(keys, value)
	}
	t0 := time.Now()
	err := w.c.SetBatch(keys, value)
	sp.add("cluster.SetBatch", t0, time.Now(), parent, batch)
	return err
}

func (w clusterConn) del(key uint64) error {
	_, err := w.c.Del(key)
	return err
}

// world is one workload, set up and warm: its key stream, the program
// under test (servers, router or bare cache) and the workers' cursors.
type world struct {
	spec    spec
	keys    trace.Sequence
	servers []*server.Server
	addrs   map[string]string // member name → loopback address
	names   []string
	wires   []*wire.Client  // node workloads: one per worker
	router  *cluster.Client // cluster workloads: shared by the workers
	ctl     []*wire.Client  // one control connection per node, for STATS
	cache   *concurrent.Cache
	conns   []conn
	pos     [workers]int // each worker's cursor into its half of keys
	batches [workers]int // batches issued so far, which places the DELs

	genNsPerKey float64
	warm        counts // what the warm-up pass did, kept out of the measured counts
}

// chunk is worker id's contiguous share of the stream, replayed in order.
func (w *world) chunk(id int) trace.Sequence {
	per := len(w.keys) / workers
	return w.keys[id*per : (id+1)*per]
}

// genKeys is the workload's key stream, a function of the spec and the
// seed alone.
func genKeys(s spec, seed uint64) trace.Sequence {
	return workload.Zipf{Universe: s.universe, S: s.zipfS, Shuffle: true}.Generate(s.streamLen, seed)
}

// setup builds a world from nothing: key generation, node boot, dial,
// preload and the warm-up pass. Its wall time is the setup_s metric.
func setup(s spec, seed uint64) (*world, error) {
	w := &world{spec: s, addrs: make(map[string]string)}
	t0 := time.Now()
	w.keys = genKeys(s, seed)
	w.genNsPerKey = float64(time.Since(t0)) / float64(s.streamLen)

	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()

	if s.kind == kindLib {
		c, err := concurrent.New(concurrent.Config{Capacity: capacity, Alpha: alpha, Seed: seed})
		if err != nil {
			return nil, err
		}
		w.cache = c
	}
	for i := 0; i < s.nodes; i++ {
		c, err := concurrent.New(concurrent.Config{Capacity: capacity, Alpha: alpha, Seed: seed + uint64(i)})
		if err != nil {
			return nil, err
		}
		srv := server.New(c)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		w.servers = append(w.servers, srv)
		w.names = append(w.names, memberName(i))
		w.addrs[memberName(i)] = ln.Addr().String()
		go srv.Serve(ln) // returns when srv.Close closes ln; close() waits for that
		ctl, err := wire.Dial(ln.Addr().String())
		if err != nil {
			return nil, err
		}
		w.ctl = append(w.ctl, ctl)
	}
	switch s.kind {
	case kindNode:
		for i := 0; i < workers; i++ {
			c, err := wire.Dial(w.addrs[w.names[0]])
			if err != nil {
				return nil, err
			}
			w.wires = append(w.wires, c)
			w.conns = append(w.conns, wireConn{c})
		}
	case kindCluster:
		r, err := cluster.Dial(w.names, cluster.Options{
			Dial:      func(name string) (*wire.Client, error) { return wire.Dial(w.addrs[name]) },
			Replicas:  s.replicas,
			Leases:    s.leases,
			NearCache: cluster.NearCacheOptions{Slots: s.nearSlots},
		})
		if err != nil {
			return nil, err
		}
		w.router = r
		for i := 0; i < workers; i++ {
			w.conns = append(w.conns, clusterConn{r})
		}
	}

	if err := w.prefill(); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	warm, err := w.closedRep(0, s.warmOps, false)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if warm.failed() > 0 {
		return nil, fmt.Errorf("warm-up: %d failed operations", warm.failed())
	}
	w.warm = warm.counts
	ok = true
	return w, nil
}

// prefill stores the first spec.prefill distinct keys of the stream in
// batches far larger than a request batch, so that the warm-up pass starts
// from full caches instead of paying a round trip per handful of cold
// misses. Keys go in coldest first — the reverse of their first appearance
// — so that where a bucket overflows it is a cold key the LRU gives up.
func (w *world) prefill() error {
	s := &w.spec
	seen := make(map[uint64]struct{}, s.prefill)
	distinct := make([]uint64, 0, s.prefill)
	for _, k := range w.keys {
		if len(distinct) == s.prefill {
			break
		}
		if _, dup := seen[uint64(k)]; !dup {
			seen[uint64(k)] = struct{}{}
			distinct = append(distinct, uint64(k))
		}
	}
	slices.Reverse(distinct)
	const chunk = 64
	for len(distinct) > 0 {
		keys := distinct[:min(chunk, len(distinct))]
		distinct = distinct[len(keys):]
		if w.cache != nil {
			for _, k := range keys {
				p := load.Payload(k, s.valueSize)
				w.cache.Update(k, func(interface{}, bool) (interface{}, bool) { return p, true })
			}
			continue
		}
		err := w.conns[0].setBatch(keys, func(i int) []byte { return load.Payload(keys[i], s.valueSize) }, nil, -1, 0)
		if err != nil {
			return err
		}
	}
	return nil
}

// close stops everything setup started and waits for it to end.
func (w *world) close() {
	for _, c := range w.wires {
		c.Close()
	}
	for _, c := range w.ctl {
		c.Close()
	}
	if w.router != nil {
		w.router.Close()
	}
	for _, s := range w.servers {
		s.Close()
	}
	w.keys = nil
	// Return a torn-down world's memory before the next set-up runs, so
	// peak RSS is one world's, not a pile of collected ones.
	runtime.GC()
}
