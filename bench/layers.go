package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/concurrent"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The isolated per-layer timings: tight loops from the benchmark over one
// layer's public calls, with the key distribution and value sizes of the
// workloads they are read against (64 B for node-hit, 1 KiB for
// node-churn and lib-inproc, 4 KiB for cluster-r2).

const (
	microRounds = 5                     // timed rounds per figure; the median is reported
	microRound  = 15 * time.Millisecond // target length of one round
)

// perOp times body(n) — n calls of the operation — and returns ns per
// call as the median over microRounds rounds. A pilot round sizes n.
func perOp(body func(n int)) summary {
	n := 64
	for {
		t0 := time.Now()
		body(n)
		if d := time.Since(t0); d >= microRound/8 || n >= 1<<22 {
			n = int(float64(n) * float64(microRound) / float64(d+1))
			break
		}
		n *= 4
	}
	n = max(n, 16)
	xs := make([]float64, microRounds)
	for i := range xs {
		t0 := time.Now()
		body(n)
		xs[i] = float64(time.Since(t0)) / float64(n)
	}
	return summarize(xs)
}

// diff is a − b on medians, with the extremes taken the pessimistic way.
func diff(a, b summary) summary {
	return summary{Median: a.Median - b.Median, Min: a.Min - b.Max, Max: a.Max - b.Min, N: a.N}
}

func scale(s summary, f float64) summary {
	return summary{Median: s.Median * f, Min: s.Min * f, Max: s.Max * f, N: s.N}
}

func one(v float64) summary { return summary{Median: v, Min: v, Max: v, N: 1} }

// allocsPer is heap allocations per call of body(n)'s operation.
func allocsPer(n int, body func(n int)) float64 {
	body(n) // warm: grow buffers once
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	body(n)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// isolated runs every isolated figure. mismatches counts threshold
// replays that did not repeat or did not fall as α rose — checks a correct
// program cannot fail; they are added to the run's failed operations.
func isolated(seed uint64) (out map[string]summary, mismatches int, err error) {
	out = make(map[string]summary)
	wireLayer(out)
	if mismatches, err = concurrentLayer(out, seed); err != nil {
		return nil, 0, err
	}
	if err = serverAndClusterLayers(out, seed); err != nil {
		return nil, 0, err
	}
	var h telemetry.Histogram
	out["telemetry.record_ns"] = perOp(func(n int) {
		for i := 0; i < n; i++ {
			h.Record(time.Duration(i%1_000_000) * time.Nanosecond)
		}
	})
	return out, mismatches, nil
}

// wireLayer prices the codec alone: frames encoded into a discarding
// writer, and decoded from a buffer filled beforehand.
func wireLayer(out map[string]summary) {
	v64, v1k, v4k := load.Payload(7, 64), load.Payload(7, 1024), load.Payload(7, 4096)
	get := wire.Request{Op: wire.OpGet, Key: 7}
	set1k := wire.Request{Op: wire.OpSet, Key: 7, Value: v1k}
	set4k := wire.Request{Op: wire.OpSet, Key: 7, Value: v4k}
	hit := wire.Response{Status: wire.StatusHit, Epoch: 1, Version: 3, Value: v64}

	encReq := func(req wire.Request) func(int) {
		w := wire.NewWriter(io.Discard)
		return func(n int) {
			for i := 0; i < n; i++ {
				w.WriteRequest(req) // a discarding writer cannot fail
				if i%depth == depth-1 {
					w.Flush()
				}
			}
			w.Flush()
		}
	}
	encResp := func(n int) {
		w := wire.NewWriter(io.Discard)
		for i := 0; i < n; i++ {
			w.WriteResponse(hit)
			if i%depth == depth-1 {
				w.Flush()
			}
		}
		w.Flush()
	}
	// A decode round reads the same pre-encoded block of frames again and
	// again through one Reader, as a connection would.
	const block = 1024
	filled := func(write func(w *wire.Writer)) []byte {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		for i := 0; i < block; i++ {
			write(w)
		}
		w.Flush()
		return buf.Bytes()
	}
	decode := func(frames []byte, read func(r *wire.Reader) error) func(int) {
		src := &repeatReader{data: frames}
		r := wire.NewReader(src)
		return func(n int) {
			for i := 0; i < n; i++ {
				if err := read(r); err != nil {
					panic("bench: decoding a frame this program encoded: " + err.Error())
				}
			}
		}
	}
	readReq := func(r *wire.Reader) error { _, err := r.ReadRequest(); return err }
	readResp := func(r *wire.Reader) error { _, err := r.ReadResponse(); return err }

	out["wire.enc_get_ns"] = perOp(encReq(get))
	out["wire.enc_set1k_ns"] = perOp(encReq(set1k))
	out["wire.enc_set4k_ns"] = perOp(encReq(set4k))
	out["wire.enc_hit64_ns"] = perOp(encResp)
	getFrames := filled(func(w *wire.Writer) { w.WriteRequest(get) })
	hitFrames := filled(func(w *wire.Writer) { w.WriteResponse(hit) })
	out["wire.dec_get_ns"] = perOp(decode(getFrames, readReq))
	out["wire.dec_set1k_ns"] = perOp(decode(filled(func(w *wire.Writer) { w.WriteRequest(set1k) }), readReq))
	out["wire.dec_hit64_ns"] = perOp(decode(hitFrames, readResp))

	// One GET's four codec steps: request out, request in, response out,
	// response in. The steady state of all four is allocation-free.
	enc, encR := encReq(get), encResp
	decQ, decP := decode(getFrames, readReq), decode(hitFrames, readResp)
	out["wire.allocs_per_frame"] = one(allocsPer(4096, func(n int) {
		enc(n)
		decQ(n)
		encR(n)
		decP(n)
	}) / 4)
}

// repeatReader serves data over and over, never ending.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	if r.off += n; r.off == len(r.data) {
		r.off = 0
	}
	return n, nil
}

// churnStream is a prefix of the node-churn key stream for seed.
func churnStream(n int, seed uint64) []uint64 {
	s, _ := findSpec("node-churn")
	s.streamLen = n
	seq := genKeys(s, seed)
	keys := make([]uint64, n)
	for i, k := range seq {
		keys[i] = uint64(k)
	}
	return keys
}

func newCache(k, a int, seed uint64) (*concurrent.Cache, error) {
	return concurrent.New(concurrent.Config{Capacity: k, Alpha: a, Seed: seed})
}

// replayMisses replays keys single-threaded through a fresh cache of the
// given α with read-through inserts and returns the exact miss count.
func replayMisses(keys []uint64, a int, seed uint64) (int, error) {
	c, err := newCache(capacity, a, seed)
	if err != nil {
		return 0, err
	}
	misses := 0
	for _, k := range keys {
		if _, ok := c.Get(k); !ok {
			misses++
			c.Put(k, struct{}{})
		}
	}
	return misses, nil
}

// thresholdReplays is how many times each α's replay runs; all must agree
// to the last miss.
const thresholdReplays = 3

func concurrentLayer(out map[string]summary, seed uint64) (mismatches int, err error) {
	keys := churnStream(1<<18, seed)
	val := load.Payload(7, 1024)
	insert := func(interface{}, bool) (interface{}, bool) { return val, true }

	// The threshold row: the paper's paging cost against α on this stream,
	// as exact counts that must repeat bit for bit.
	prev := -1
	for _, a := range []struct {
		name  string
		alpha int
	}{{"afull", capacity}, {"a64", 64}, {"a16", 16}, {"a4", 4}} {
		first := 0
		for i := 0; i < thresholdReplays; i++ {
			m, err := replayMisses(keys, a.alpha, seed)
			if err != nil {
				return 0, err
			}
			if i == 0 {
				first = m
			} else if m != first {
				mismatches++
			}
		}
		// Walking α downwards, misses may only rise: the order the paper
		// predicts and the acceptance check a4 ≥ a16 ≥ a64 ≥ afull.
		if first < prev {
			mismatches++
		}
		prev = first
		out["concurrent.miss_ratio_"+a.name] = one(float64(first) / float64(len(keys)))
	}

	c, err := newCache(capacity, alpha, seed)
	if err != nil {
		return 0, err
	}
	for _, k := range keys { // fill to steady state
		if _, ok := c.Get(k); !ok {
			c.Update(k, insert)
		}
	}
	resident := c.Keys()
	i := 0
	out["concurrent.get_hit_ns"] = perOp(func(n int) {
		for ; n > 0; n-- {
			c.Get(resident[i])
			if i++; i == len(resident) {
				i = 0
			}
		}
	})
	absent := uint64(1) << 40 // far outside every workload's universe
	out["concurrent.get_miss_ns"] = perOp(func(n int) {
		for ; n > 0; n-- {
			c.Get(absent)
			absent++
		}
	})
	fresh := uint64(1) << 41
	out["concurrent.update_insert_ns"] = perOp(func(n int) {
		for ; n > 0; n-- {
			c.Update(fresh, insert)
			fresh++
		}
	})
	// Delete needs a resident key each call: insert a run untimed, then
	// time deleting exactly that run.
	xs := make([]float64, microRounds)
	for r := range xs {
		const run = 4096
		base := fresh
		for j := uint64(0); j < run; j++ {
			c.Update(base+j, insert)
		}
		fresh += run
		t0 := time.Now()
		for j := uint64(0); j < run; j++ {
			c.Delete(base + j)
		}
		xs[r] = float64(time.Since(t0)) / run
	}
	out["concurrent.delete_ns"] = summarize(xs)

	// Two goroutines against one over the same stream: how much of a
	// second core the bucket locks let through.
	ratios := make([]float64, microRounds)
	for r := range ratios {
		one, err := libThroughput(keys, 1, seed)
		if err != nil {
			return 0, err
		}
		two, err := libThroughput(keys, 2, seed)
		if err != nil {
			return 0, err
		}
		ratios[r] = two / one
	}
	out["concurrent.scale_2p"] = summarize(ratios)
	return mismatches, nil
}

// libThroughput replays keys through a warm cache from g goroutines, each
// on its own contiguous share, and returns operations per second.
func libThroughput(keys []uint64, g int, seed uint64) (float64, error) {
	c, err := newCache(capacity, alpha, seed)
	if err != nil {
		return 0, err
	}
	val := load.Payload(7, 1024)
	insert := func(interface{}, bool) (interface{}, bool) { return val, true }
	replay := func(ks []uint64) {
		for _, k := range ks {
			if _, ok := c.Get(k); !ok {
				c.Update(k, insert)
			}
		}
	}
	replay(keys) // warm
	var wg sync.WaitGroup
	per := len(keys) / g
	t0 := time.Now()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replay(keys[i*per : (i+1)*per])
		}()
	}
	wg.Wait()
	return float64(per*g) / time.Since(t0).Seconds(), nil
}

// pipeListener is a net.Listener whose connections are net.Pipe pairs:
// the same server and client code, with no socket and no syscall between
// them.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, errors.New("pipe listener closed")
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() (net.Conn, error) {
	client, srv := net.Pipe()
	select {
	case l.conns <- srv:
		return client, nil
	case <-l.done:
		return nil, errors.New("pipe listener closed")
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// lab is the small fixture the server and cluster figures share: three
// nodes on TCP loopback and one behind an in-memory pipe, all preloaded
// with the same 64 B values.
type lab struct {
	servers []*server.Server
	addrs   map[string]string // stable member name → loopback address
	names   []string
	pipe    *pipeListener
	closers []io.Closer
}

func (l *lab) close() {
	for _, c := range l.closers {
		c.Close()
	}
	for _, s := range l.servers {
		s.Close()
	}
}

func (l *lab) dialMember(name string) (*wire.Client, error) { return wire.Dial(l.addrs[name]) }

func (l *lab) router(members []string, replicas int) (*cluster.Client, error) {
	r, err := cluster.Dial(members, cluster.Options{Replicas: replicas, Dial: l.dialMember})
	if err == nil {
		l.closers = append(l.closers, r)
	}
	return r, err
}

func newLab(seed uint64) (*lab, error) {
	l := &lab{addrs: make(map[string]string)}
	boot := func(ln net.Listener, i int) error {
		c, err := newCache(capacity, alpha, seed+uint64(i))
		if err != nil {
			return err
		}
		srv := server.New(c)
		l.servers = append(l.servers, srv)
		go srv.Serve(ln) // ends when srv.Close closes ln; lab.close waits for it
		return nil
	}
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			l.close()
			return nil, err
		}
		if err := boot(ln, i); err != nil {
			l.close()
			return nil, err
		}
		name := memberName(i)
		l.names = append(l.names, name)
		l.addrs[name] = ln.Addr().String()
	}
	l.pipe = newPipeListener()
	if err := boot(l.pipe, 3); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// memberName is the ring identity of node i. Members are named, not
// addressed by their ephemeral ports, so that key placement on the ring —
// and with it balance and hit ratio — is the same on every run.
func memberName(i int) string { return fmt.Sprintf("node-%d", i) }

// getter is the call both wire.Client and cluster.Client offer.
type getter interface {
	GetBatch(keys []uint64, visit func(i int, hit bool, value []byte)) error
}

// batchNs times 16-key GET batches over hot keys and returns ns per key.
func batchNs(g getter, keys []uint64, bad *int) summary {
	visit := func(i int, hit bool, v []byte) {
		if !hit {
			*bad++
		}
	}
	off := 0
	return scale(perOp(func(n int) {
		for ; n > 0; n-- {
			if err := g.GetBatch(keys[off:off+depth], visit); err != nil {
				*bad++
			}
			if off += depth; off+depth > len(keys) {
				off = 0
			}
		}
	}), 1.0/depth)
}

func rttNs(c *wire.Client, keys []uint64, bad *int) summary {
	i := 0
	return perOp(func(n int) {
		for ; n > 0; n-- {
			if _, ok, err := c.GetShared(keys[i]); err != nil || !ok {
				*bad++
			}
			if i++; i == len(keys) {
				i = 0
			}
		}
	})
}

func serverAndClusterLayers(out map[string]summary, seed uint64) error {
	l, err := newLab(seed)
	if err != nil {
		return err
	}
	defer l.close()

	// 4096 hot keys, present on every node of the lab.
	hot := make([]uint64, 4096)
	for i := range hot {
		hot[i] = uint64(i)
	}
	value64 := func(i int) []byte { return load.Payload(hot[i], 64) }
	direct := make([]*wire.Client, 0, 4)
	for _, name := range l.names {
		c, err := l.dialMember(name)
		if err != nil {
			return err
		}
		l.closers = append(l.closers, c)
		direct = append(direct, c)
	}
	pc, err := l.pipe.dial()
	if err != nil {
		return err
	}
	piped, err := wire.NewClient(pc)
	if err != nil {
		return err
	}
	l.closers = append(l.closers, piped)
	for _, c := range append(direct, piped) {
		if err := c.SetBatch(hot, value64); err != nil {
			return err
		}
	}

	bad := 0
	out["server.pipe_rtt_ns"] = rttNs(piped, hot, &bad)
	out["server.tcp_rtt_ns"] = rttNs(direct[0], hot, &bad)
	pipeB := batchNs(piped, hot, &bad)
	tcpB := batchNs(direct[0], hot, &bad)
	out["server.pipe_batch16_ns_per_key"] = pipeB
	out["server.tcp_batch16_ns_per_key"] = tcpB
	out["server.syscall_ns_per_batch"] = scale(diff(tcpB, pipeB), depth)

	ring := cluster.NewRing(0, l.names...)
	k := uint64(0)
	out["cluster.ring_owners_ns"] = perOp(func(n int) {
		for ; n > 0; n-- {
			ring.OwnersFor(k, 2)
			k += 0x9e3779b97f4a7c15
		}
	})

	over1, err := l.router(l.names[:1], 1)
	if err != nil {
		return err
	}
	over3, err := l.router(l.names, 1)
	if err != nil {
		return err
	}
	over3r2, err := l.router(l.names, 2)
	if err != nil {
		return err
	}
	r1 := batchNs(over1, hot, &bad)
	out["cluster.router_tax_ns_per_key"] = diff(r1, tcpB)
	out["cluster.fanout_tax_ns_per_key"] = diff(batchNs(over3, hot, &bad), r1)

	v4k := load.Payload(7, 4096)
	setNs := func(r *cluster.Client) summary {
		off := 0
		return scale(perOp(func(n int) {
			for ; n > 0; n-- {
				if err := r.SetBatch(hot[off:off+depth], func(int) []byte { return v4k }); err != nil {
					bad++
				}
				if off += depth; off+depth > len(hot) {
					off = 0
				}
			}
		}), 1.0/depth)
	}
	out["cluster.r2_set_tax_ns_per_set"] = diff(setNs(over3r2), setNs(over3))
	if bad > 0 {
		return fmt.Errorf("bench: %d isolated server/cluster calls failed or missed a preloaded key", bad)
	}
	return nil
}
