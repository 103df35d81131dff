// Package load is the load harness for the cached server and its clustered
// form: N connections, each driven by one worker goroutine, replay a key
// stream against the service and measure throughput, latency percentiles
// and the client-observed miss ratio. It measures the traffic it drives
// and nothing else; a router's own counters are the router's to report.
// It has two modes.
//
// Closed loop (the default): each worker keeps at most one batch in flight —
// it sends a pipeline of GETs, waits for all responses, issues read-through
// SETs for the misses, then moves on. Offered load therefore adapts to
// server latency instead of overrunning it, which is the right harness for
// comparing α configurations: the measured QPS difference is the lock
// contention + miss cost difference, not queueing collapse.
//
// Open loop: arrivals follow a fixed rate-paced schedule that does not slow
// down when the server does, and each batch's latency is measured from its
// *intended* send time, not from when the worker got around to sending it.
// This makes the reported percentiles coordinated-omission-safe: a server
// stall inflates the latency of every request that was scheduled during the
// stall, exactly as real clients arriving at their own cadence would have
// experienced it. A closed-loop harness instead stops offering load while
// stalled and records only one slow sample — the classic way tail latency
// gets underreported. Open loop is the right harness for questions like
// "what is p99 at 100k ops/s", closed loop for "how fast can it go".
package load

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Conn is one harness connection. Both wire.Client (one node) and
// cluster.Client (consistent-hash routed, optionally replicated) satisfy
// it. The harness reads nothing from a Conn but its responses: a caller
// that wants a router's counters keeps the routers its Dial hands out and
// reads their Snapshot after Run returns, when every worker has closed
// its connection.
type Conn interface {
	// GetBatch pipelines one GET per key and reports each response through
	// visit; the value passed to visit may alias a connection buffer valid
	// only for the duration of the call.
	GetBatch(keys []uint64, visit func(i int, hit bool, value []byte)) error
	// SetBatch pipelines one SET per key with value(i) producing payloads.
	SetBatch(keys []uint64, value func(i int) []byte) error
	Close() error
}

// Config describes one load run.
type Config struct {
	// Addr is the server address, dialed with wire.Dial when Dial is nil.
	Addr string
	// Dial overrides connection establishment, e.g. to route through a
	// cluster.Client or to inject faults. Called once per worker.
	Dial func() (Conn, error)
	// Conns is the number of concurrent connections (workers). Must be ≥1.
	Conns int
	// Keys is the request key stream. It is split into contiguous
	// per-worker chunks, preserving each chunk's order (which adversarial
	// cyclic workloads depend on).
	Keys trace.Sequence
	// Pipeline is the batch depth per round trip; 0 or 1 means one request
	// per round trip. A whole batch is written before any response is read,
	// so keep Pipeline × (frame + ValueSize) comfortably below the kernel's
	// socket buffering (tens of KB): a batch larger than both send and
	// receive buffers can deadlock writer against writer. Typical depths
	// (≤256) are nowhere near the limit.
	Pipeline int
	// ValueSize is the payload size for read-through SETs. Minimum 8: the
	// first 8 bytes encode the key so readers can verify integrity.
	ValueSize int
	// ReadThrough, when true, SETs every missed key (emulating a cache in
	// front of a backing store). When false the run is GET-only.
	ReadThrough bool
	// Verify checks that every GET hit carries the value Payload would have
	// written for that key; mismatches are counted in Result.Corrupt.
	Verify bool

	// OpenLoop switches to the rate-paced arrival schedule described in the
	// package comment. Requires Rate > 0.
	OpenLoop bool
	// Rate is the intended aggregate arrival rate in GET operations per
	// second, divided evenly across workers. Open loop only.
	Rate float64
	// Duration, when positive, stops issuing batches whose intended send
	// time falls after Duration; zero means the run ends when the key
	// stream is exhausted. Open loop only.
	Duration time.Duration
}

// Result aggregates one load run.
type Result struct {
	Ops     int
	Hits    int
	Misses  int
	Sets    int
	Corrupt int
	Elapsed time.Duration
	// Throughput is GET operations per second.
	Throughput float64
	// AllocsPerOp is the process-wide heap allocation count per GET during
	// the run (runtime.MemStats.Mallocs delta over Ops). It covers every
	// goroutine in the process — harness workers, router internals, and
	// any in-process server — which is the point: the PR 9 hot path is
	// gated end to end, and a regression anywhere in the round trip shows
	// up here. External-process servers contribute only their client side.
	AllocsPerOp float64
	// GCPause is the total stop-the-world GC pause accumulated during the
	// run (runtime.MemStats.PauseTotalNs delta) — the latency tax the
	// allocation rate actually charged.
	GCPause time.Duration
	// Latency summarizes per-round-trip latencies (one sample per pipelined
	// batch). In open-loop mode each sample is measured from the batch's
	// intended send time, so schedule slip counts as latency.
	Latency LatencySummary
	// OpenLoop and IntendedRate echo the configuration so reports can label
	// percentiles as coordinated-omission-safe (or not).
	OpenLoop     bool
	IntendedRate float64
}

// MissRatio returns the client-observed GET miss ratio.
func (r Result) MissRatio() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Ops)
}

// LatencySummary holds percentiles over round-trip latency samples.
type LatencySummary struct {
	P50, P90, P99, Max time.Duration
}

func summarize(samples []time.Duration) LatencySummary {
	if len(samples) == 0 {
		return LatencySummary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	at := func(p float64) time.Duration {
		i := int(p * float64(len(samples)-1))
		return samples[i]
	}
	return LatencySummary{
		P50: at(0.50), P90: at(0.90), P99: at(0.99), Max: samples[len(samples)-1],
	}
}

// Payload builds the deterministic value stored for key: the key in
// little-endian followed by a repeating fill byte, size bytes total
// (minimum 8). The fill is written once and then doubled by copy, so a
// 4 KiB payload costs a dozen memmoves, not 4088 byte stores.
func Payload(key uint64, size int) []byte {
	if size < 8 {
		size = 8
	}
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v, key)
	if fill := v[8:]; len(fill) > 0 {
		fill[0] = payloadFill(key)
		for n := 1; n < len(fill); n *= 2 {
			copy(fill[n:], fill[:n])
		}
	}
	return v
}

// VerifyPayload reports whether v is a payload Payload could have written
// for key: correct key prefix and correct fill bytes. The length is not
// checked against any particular size, so runs with different ValueSize
// against the same server still verify each other's entries.
func VerifyPayload(key uint64, v []byte) bool {
	if len(v) < 8 || binary.LittleEndian.Uint64(v) != key {
		return false
	}
	// Every fill byte equals the first one exactly when each equals its
	// predecessor: one memequal of the fill against itself shifted a byte.
	return len(v) == 8 || v[8] == payloadFill(key) && bytes.Equal(v[9:], v[8:len(v)-1])
}

// payloadFill is the byte Payload repeats after key's prefix.
func payloadFill(key uint64) byte { return byte(key>>3) | 1 }

type workerResult struct {
	ops, hits, misses, sets, corrupt int
	latencies                        []time.Duration
	err                              error
}

// Validate checks the configuration without running it.
func (cfg Config) Validate() error {
	if cfg.Conns <= 0 {
		return fmt.Errorf("load: conns %d must be positive", cfg.Conns)
	}
	if len(cfg.Keys) == 0 {
		return fmt.Errorf("load: empty key stream")
	}
	if cfg.Pipeline < 0 {
		return fmt.Errorf("load: pipeline depth %d must not be negative", cfg.Pipeline)
	}
	if cfg.Duration < 0 {
		return fmt.Errorf("load: duration %v must not be negative", cfg.Duration)
	}
	if cfg.OpenLoop && cfg.Rate <= 0 {
		return fmt.Errorf("load: open-loop rate %g must be positive", cfg.Rate)
	}
	if !cfg.OpenLoop && cfg.Rate != 0 {
		return fmt.Errorf("load: rate is only meaningful in open-loop mode")
	}
	return nil
}

// Run executes the configured load and reports aggregate results.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	depth := cfg.Pipeline
	if depth <= 0 {
		depth = 1
	}
	dial := cfg.Dial
	if dial == nil {
		dial = func() (Conn, error) { return wire.Dial(cfg.Addr) }
	}

	// Contiguous chunks: worker i replays its slice in order.
	chunks := make([]trace.Sequence, 0, cfg.Conns)
	per := (len(cfg.Keys) + cfg.Conns - 1) / cfg.Conns
	for off := 0; off < len(cfg.Keys); off += per {
		end := off + per
		if end > len(cfg.Keys) {
			end = len(cfg.Keys)
		}
		chunks = append(chunks, cfg.Keys[off:end])
	}

	results := make([]workerResult, len(chunks))
	var wg sync.WaitGroup
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i, chunk := range chunks {
		wg.Add(1)
		go func(i int, keys trace.Sequence) {
			defer wg.Done()
			results[i] = runWorker(cfg, dial, keys, depth, len(chunks), start)
		}(i, chunk)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	agg := Result{OpenLoop: cfg.OpenLoop, IntendedRate: cfg.Rate}
	var samples []time.Duration
	for _, r := range results {
		if r.err != nil {
			return Result{}, r.err
		}
		agg.Ops += r.ops
		agg.Hits += r.hits
		agg.Misses += r.misses
		agg.Sets += r.sets
		agg.Corrupt += r.corrupt
		samples = append(samples, r.latencies...)
	}
	agg.Elapsed = elapsed
	if elapsed > 0 {
		agg.Throughput = float64(agg.Ops) / elapsed.Seconds()
	}
	if agg.Ops > 0 {
		agg.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(agg.Ops)
	}
	agg.GCPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	agg.Latency = summarize(samples)
	return agg, nil
}

func runWorker(cfg Config, dial func() (Conn, error), keys trace.Sequence, depth, workers int, start time.Time) (res workerResult) {
	conn, err := dial()
	if err != nil {
		res.err = fmt.Errorf("load: dial: %w", err)
		return res
	}
	defer conn.Close()

	// Open-loop pacing: this worker owes one batch every interval, on a
	// fixed schedule anchored at the shared start time. The schedule never
	// resets — if the server stalls, the worker falls behind and every
	// subsequent batch's latency includes the backlog it inherited.
	var interval time.Duration
	if cfg.OpenLoop {
		perWorker := cfg.Rate / float64(workers)
		interval = time.Duration(float64(depth) / perWorker * float64(time.Second))
	}

	res.latencies = make([]time.Duration, 0, len(keys)/depth+1)
	batchKeys := make([]uint64, 0, depth)
	missed := make([]uint64, 0, depth)
	batchIdx := 0
	for off := 0; off < len(keys); off += depth {
		end := off + depth
		if end > len(keys) {
			end = len(keys)
		}
		batchKeys = batchKeys[:0]
		for _, k := range keys[off:end] {
			batchKeys = append(batchKeys, uint64(k))
		}

		t0 := time.Now()
		if cfg.OpenLoop {
			intended := start.Add(time.Duration(batchIdx) * interval)
			batchIdx++
			if cfg.Duration > 0 && intended.Sub(start) > cfg.Duration {
				break
			}
			if d := time.Until(intended); d > 0 {
				time.Sleep(d)
			}
			t0 = intended
		}

		missed = missed[:0]
		err := conn.GetBatch(batchKeys, func(i int, hit bool, value []byte) {
			res.ops++
			if hit {
				res.hits++
				if cfg.Verify && !VerifyPayload(batchKeys[i], value) {
					res.corrupt++
				}
			} else {
				res.misses++
				missed = append(missed, batchKeys[i])
			}
		})
		if err != nil {
			res.err = err
			return res
		}
		res.latencies = append(res.latencies, time.Since(t0))

		if cfg.ReadThrough && len(missed) > 0 {
			m := missed
			if err := conn.SetBatch(m, func(i int) []byte {
				return Payload(m[i], cfg.ValueSize)
			}); err != nil {
				res.err = err
				return res
			}
			res.sets += len(m)
		}
	}
	return res
}
