package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/load"
)

// counts is what one repetition (or one worker of it) did and got back.
type counts struct {
	gets, hits, misses int
	sets, dels         int
	corrupt            int // hits whose payload failed load.VerifyPayload
}

func (c *counts) add(o counts) {
	c.gets += o.gets
	c.hits += o.hits
	c.misses += o.misses
	c.sets += o.sets
	c.dels += o.dels
	c.corrupt += o.corrupt
}

func (c counts) attempted() int { return c.gets + c.sets + c.dels }

// failed counts the operations whose result was wrong: corrupt payloads
// and GETs answered neither hit nor miss. A call that returns an error
// ends the whole run instead, with no result; the checks that compare
// counters across layers are added by wlRun.finish.
func (c counts) failed() int { return c.corrupt + abs(c.gets-c.hits-c.misses) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// rung is one open-loop rate of one repetition.
type rung struct {
	rate        float64
	p50, p99    float64 // µs, from intended send time
	samples     int
	lateP50     float64 // µs the generator itself sent late
	lateP99     float64
	achieved    float64 // completed GET/s over offered GET/s
	getsPerS    float64
	backlogGrew bool
}

// valid: the generator kept its own schedule, so the rung's latencies
// are the service's and not the pacing loop's.
func (r rung) valid() bool { return r.lateP99 <= lateLimit }

// ok: the rung is inside the limit — valid, p99 under the latency limit,
// at least 99% of the offered rate achieved, and no growing backlog.
func (r rung) ok() bool {
	return r.valid() && r.p99 <= latencyLimit && r.achieved >= 0.99 && !r.backlogGrew
}

// rep is one repetition's raw result.
type rep struct {
	counts
	elapsed    time.Duration
	cpu        time.Duration
	mallocs    uint64
	gcPause    time.Duration
	gcCycles   uint32
	goroutines int
	p50, p99   float64 // µs per batch
	samples    int
	rungs      []rung  // open loop only: the paced rungs of the ladder
	unpaced    float64 // open loop only: GET/s completed on the unpaced rung
	spans      []span  // traced repetition only
	tracedGets int     // GETs the spans cover
}

type workerOut struct {
	counts
	lat        []float64     // µs
	late       []float64     // µs, open loop
	backlog    []float64     // µs behind schedule when the worker came free, open loop
	spin       time.Duration // busy-waited for a due time, open loop
	lastDone   time.Time
	sp         *spanBuf
	tracedGets int
	err        error
}

// measured wraps a repetition body with the process-wide meters.
func measured(body func() ([]workerOut, time.Duration)) (rep, []workerOut) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	outs, elapsed := body()
	c1 := cpuTime()
	g := runtime.NumGoroutine()
	runtime.ReadMemStats(&m1)
	r := rep{
		elapsed:    elapsed,
		cpu:        c1 - c0,
		mallocs:    m1.Mallocs - m0.Mallocs,
		gcPause:    time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		gcCycles:   m1.NumGC - m0.NumGC,
		goroutines: g,
	}
	var bufs []*spanBuf
	for i := range outs {
		r.counts.add(outs[i].counts)
		r.tracedGets += outs[i].tracedGets
		bufs = append(bufs, outs[i].sp)
	}
	r.spans = mergeSpans(bufs)
	return r, outs
}

func firstErr(outs []workerOut) error {
	for _, o := range outs {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

// closedPass runs the workers closed-loop: every worker keeps one batch in
// flight and stops at the deadline (dur > 0) or after its share of maxGets
// (maxGets > 0, the warm-up pass).
func (w *world) closedPass(dur time.Duration, maxGets int, traced bool) ([]workerOut, time.Duration) {
	outs := make([]workerOut, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for id := 0; id < workers; id++ {
		var sp *spanBuf
		if traced {
			sp = newSpanBuf(start, id)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.spec.kind == kindLib {
				outs[id] = w.libWorker(id, start, dur, maxGets/workers, sp)
			} else {
				outs[id] = w.closedWorker(id, start, dur, maxGets/workers, sp)
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// closedRep is one closed-loop repetition: a closedPass under the meters.
func (w *world) closedRep(dur time.Duration, maxGets int, traced bool) (rep, error) {
	r, outs := measured(func() ([]workerOut, time.Duration) { return w.closedPass(dur, maxGets, traced) })
	var lat []float64
	for _, o := range outs {
		lat = append(lat, o.lat...)
	}
	r.samples = len(lat)
	r.p50, r.p99 = repPercentiles(lat)
	return r, firstErr(outs)
}

// visitor builds the per-batch GET callback: tally, verify every hit,
// list the misses for the read-through SET.
func visitor(c *counts, batch []uint64, missed *[]uint64) func(int, bool, []byte) {
	return func(i int, hit bool, v []byte) {
		if hit {
			c.hits++
			if !load.VerifyPayload(batch[i], v) {
				c.corrupt++
			}
			return
		}
		c.misses++
		*missed = append(*missed, batch[i])
	}
}

// next fills batch from the worker's cyclic cursor.
func (w *world) next(id int, batch []uint64) {
	keys, pos := w.chunk(id), w.pos[id]
	for i := range batch {
		batch[i] = uint64(keys[pos])
		if pos++; pos == len(keys) {
			pos = 0
		}
	}
	w.pos[id] = pos
}

// after does what follows a batch's GETs: the read-through SETs for its
// misses and, on every delEvery-th batch, one DEL. The payloads are built
// before the SetBatch call so that their cost is the harness's (load.fill
// self time), not the connection's.
func (w *world) after(id int, c conn, out *workerOut, batch, missed []uint64, payloads [][]byte, sp *spanBuf, root, nb int) error {
	s := &w.spec
	if s.fill && len(missed) > 0 {
		var t0 time.Time
		fill := -1
		if sp != nil {
			t0 = time.Now()
			fill = sp.add("load.fill", t0, t0, root, nb)
		}
		for i, k := range missed {
			payloads[i] = load.Payload(k, s.valueSize)
		}
		err := c.setBatch(missed, func(i int) []byte { return payloads[i] }, sp, fill, nb)
		if sp != nil {
			sp.setEnd(fill, time.Now())
		}
		if err != nil {
			return err
		}
		out.sets += len(missed)
	}
	if s.dels && w.batches[id]%delEvery == delEvery-1 {
		var t0 time.Time
		if sp != nil {
			t0 = time.Now()
		}
		if err := c.del(batch[0]); err != nil {
			return err
		}
		if sp != nil {
			sp.add("load.del", t0, time.Now(), root, nb)
		}
		out.dels++
	}
	w.batches[id]++
	return nil
}

func (w *world) closedWorker(id int, start time.Time, dur time.Duration, maxGets int, sp *spanBuf) (out workerOut) {
	c := w.conns[id]
	out.sp = sp
	out.lat = make([]float64, 0, 1<<16)
	batch := make([]uint64, depth)
	missed := make([]uint64, 0, depth)
	payloads := make([][]byte, depth)
	visit := visitor(&out.counts, batch, &missed)
	deadline := start.Add(dur)
	for nb := 0; ; nb++ {
		var ta time.Time
		root := -1
		if sp != nil {
			ta = time.Now()
			root = sp.add("load.batch", ta, ta, -1, nb)
		}
		w.next(id, batch)
		missed = missed[:0]
		t0 := time.Now()
		if err := c.getBatch(batch, visit, sp, root, nb); err != nil {
			out.err = err
			return out
		}
		t1 := time.Now()
		out.gets += depth
		out.lat = append(out.lat, float64(t1.Sub(t0))/1e3)
		if err := w.after(id, c, &out, batch, missed, payloads, sp, root, nb); err != nil {
			out.err = err
			return out
		}
		if sp != nil {
			sp.setEnd(root, time.Now())
			out.tracedGets += depth
		}
		if maxGets > 0 && out.gets >= maxGets {
			return out
		}
		if dur > 0 && !t1.Before(deadline) {
			return out
		}
	}
}

// libSample is how often lib-inproc times a 16-op group: every group
// would spend a visible share of the run reading the clock.
const libSample = 8

// libWorker calls the cache directly: Get, an Update-insert on a miss,
// and one Delete after every delEvery-th group of 16. A "batch" here is
// a group of 16 consecutive calls, timed on every libSample-th group.
// Every hit has its key prefix checked; the full payload is verified on
// the sampled groups, because scanning 1 KiB per hit would cost several
// times the cache call this workload exists to measure.
func (w *world) libWorker(id int, start time.Time, dur time.Duration, maxGets int, sp *spanBuf) (out workerOut) {
	s := &w.spec
	out.sp = sp
	out.lat = make([]float64, 0, 1<<16)
	batch := make([]uint64, depth)
	deadline := start.Add(dur)
	for ng := 0; ; ng++ {
		sample := ng%libSample == 0
		full := sample
		var t0 time.Time
		var inCache, inVerify time.Duration
		timed := sample && sp != nil
		w.next(id, batch)
		if sample {
			t0 = time.Now()
		}
		for _, k := range batch {
			var c0 time.Time
			if timed {
				c0 = time.Now()
			}
			v, ok := w.cache.Get(k)
			if timed {
				inCache += time.Since(c0)
			}
			out.gets++
			if ok {
				out.hits++
				if timed {
					c0 = time.Now()
				}
				b, _ := v.([]byte)
				if len(b) < 8 || binary.LittleEndian.Uint64(b) != k || (full && !load.VerifyPayload(k, b)) {
					out.corrupt++
				}
				if timed {
					inVerify += time.Since(c0)
				}
				continue
			}
			out.misses++
			p := load.Payload(k, s.valueSize)
			if timed {
				c0 = time.Now()
			}
			w.cache.Update(k, func(interface{}, bool) (interface{}, bool) { return p, true })
			if timed {
				inCache += time.Since(c0)
			}
			out.sets++
		}
		if s.dels && w.batches[id]%delEvery == delEvery-1 {
			var c0 time.Time
			if timed {
				c0 = time.Now()
			}
			w.cache.Delete(batch[0])
			if timed {
				inCache += time.Since(c0)
			}
			out.dels++
		}
		w.batches[id]++
		if sample {
			t1 := time.Now()
			out.lat = append(out.lat, float64(t1.Sub(t0))/1e3)
			if timed {
				root := sp.add("load.batch", t0, t1, -1, ng)
				sp.addDur("concurrent.ops", t0, inCache, root, ng)
				sp.addDur("load.verify", t0.Add(inCache), inVerify, root, ng)
				out.tracedGets += depth
			}
			if dur > 0 && !t1.Before(deadline) {
				return out
			}
		}
		if maxGets > 0 && out.gets >= maxGets {
			return out
		}
	}
}

// waitUntil returns at due, or at once if due has passed. It sleeps only
// while due is further off than sleepAbove and busy-waits on the clock from
// there, without yielding. Every alternative was measured on the 2-core
// host this is sized for and made the generator measure itself instead of
// the service: time.Sleep overshoots by half a millisecond at the median
// (up to a whole 4 ms timer tick — the kernel has no high-resolution
// timers); a runtime.Gosched loop, or one Gosched per batch, keeps waking
// the scheduler's idle threads and put the median batch at 0.3–1.3 ms; a
// pacing child process handing arrivals over a pipe added a wake-up hop
// and was no steadier. A worker that busy-waits holds one P while it
// waits, which is what a caller with its own cadence on its own core
// looks like to the service — and why cpu_us_per_get on this workload is
// mostly the waiting.
func waitUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		if d > sleepAbove {
			time.Sleep(d - sleepAbove)
		}
	}
}

// openRep runs one pass over the ladder: each paced rung offers its rate
// for rungDur on the never-resetting schedule of pacer, and every batch's
// latency is charged from the time it was due. The pass ends with one
// unpaced rung — the same workers, sending the next batch as soon as the
// last is answered — because a paced rung completes what it is offered and
// says nothing about how much more the service could take: the unpaced rate
// is the ceiling the paced rungs sit under, and the workload's gets_per_s.
func (w *world) openRep(rungDur time.Duration, traced bool) (rep, error) {
	var rungs []rung
	var unpaced float64
	r, outs := measured(func() ([]workerOut, time.Duration) {
		all := make([]workerOut, workers)
		collect := func(outs []workerOut) (gets int) {
			for id := range outs {
				gets += outs[id].gets
				all[id].counts.add(outs[id].counts)
				all[id].tracedGets += outs[id].tracedGets
				all[id].spin += outs[id].spin
				if outs[id].sp != nil {
					all[id].sp = outs[id].sp
				}
				if outs[id].err != nil {
					all[id].err = outs[id].err
				}
			}
			return gets
		}
		begin := time.Now()
		for _, rate := range ladder {
			outs := make([]workerOut, workers)
			var wg sync.WaitGroup
			start := time.Now()
			for id := 0; id < workers; id++ {
				var sp *spanBuf
				if traced && rate == ladder[latencyAt] {
					sp = newSpanBuf(start, id)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					outs[id] = w.openWorker(id, newPacer(start, rate, depth, id, workers), rungDur, sp)
				}()
			}
			wg.Wait()
			rungs = append(rungs, summarizeRung(rate, rungDur, start, outs))
			collect(outs)
		}
		outs, elapsed := w.closedPass(rungDur, 0, false)
		unpaced = float64(collect(outs)) / elapsed.Seconds()
		return all, time.Since(begin)
	})
	for _, o := range outs {
		r.cpu -= o.spin
	}
	r.rungs, r.unpaced = rungs, unpaced
	at := rungs[latencyAt]
	r.p50, r.p99, r.samples = at.p50, at.p99, at.samples
	return r, firstErr(outs)
}

func (w *world) openWorker(id int, p pacer, rungDur time.Duration, sp *spanBuf) (out workerOut) {
	c := w.conns[id]
	out.sp = sp
	n := int(rungDur/p.interval) + 1
	out.lat = make([]float64, 0, n)
	out.late = make([]float64, 0, n)
	out.backlog = make([]float64, 0, n)
	batch := make([]uint64, depth)
	missed := make([]uint64, 0, depth)
	payloads := make([][]byte, depth)
	visit := visitor(&out.counts, batch, &missed)
	for j := 0; ; j++ {
		due := p.due(j)
		if due.Sub(p.start) >= rungDur {
			return out
		}
		w.next(id, batch)
		missed = missed[:0]
		free := time.Now()
		waitUntil(due)
		sent := time.Now()
		out.spin += sent.Sub(free)
		// Lateness is the generator's own: measured from the later of the
		// due time and the moment this worker was free to send. Time spent
		// behind schedule because the previous batch was still in flight is
		// backlog — the service's doing — and is charged to latency instead.
		ready := due
		if free.After(due) {
			ready = free
			out.backlog = append(out.backlog, float64(free.Sub(due))/1e3)
		} else {
			out.backlog = append(out.backlog, 0)
		}
		out.late = append(out.late, float64(sent.Sub(ready))/1e3)
		root := -1
		if sp != nil {
			root = sp.add("load.batch", sent, sent, -1, j)
		}
		if err := c.getBatch(batch, visit, sp, root, j); err != nil {
			out.err = err
			return out
		}
		done := time.Now()
		out.gets += depth
		out.lat = append(out.lat, float64(done.Sub(due))/1e3)
		if err := w.after(id, c, &out, batch, missed, payloads, sp, root, j); err != nil {
			out.err = err
			return out
		}
		out.lastDone = time.Now()
		if sp != nil {
			sp.setEnd(root, out.lastDone)
			out.tracedGets += depth
		}
	}
}

func summarizeRung(rate float64, rungDur time.Duration, start time.Time, outs []workerOut) rung {
	var lat, late []float64
	gets := 0
	span := rungDur
	grew := false
	for _, o := range outs {
		lat = append(lat, o.lat...)
		late = append(late, o.late...)
		gets += o.gets
		if d := o.lastDone.Sub(start); d > span {
			span = d
		}
		grew = grew || backlogGrew(o.backlog)
	}
	r := rung{rate: rate, samples: len(lat), backlogGrew: grew}
	r.p50, r.p99 = repPercentiles(lat)
	r.lateP50, r.lateP99 = repPercentiles(late)
	r.getsPerS = float64(gets) / span.Seconds()
	r.achieved = r.getsPerS / rate
	return r
}

// backlogGrew compares how far behind schedule the worker ran in the last
// quarter of a rung with the first: a queue that keeps growing means the
// rate is beyond what the service sustains, however the percentiles look.
func backlogGrew(backlog []float64) bool {
	q := len(backlog) / 4
	if q == 0 {
		return false
	}
	mean := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t / float64(len(xs))
	}
	first, last := mean(backlog[:q]), mean(backlog[len(backlog)-q:])
	return last > first+latencyLimit/2
}

func (r rung) String() string {
	state := "ok"
	switch {
	case !r.valid():
		state = "INVALID (generator late)"
	case !r.ok():
		state = "over limit"
	}
	return fmt.Sprintf("%6.0f GET/s offered: p50 %7.1f us  p99 %7.1f us  n=%d  achieved %.4f  gen late p50 %.1f p99 %.1f us  %s",
		r.rate, r.p50, r.p99, r.samples, r.achieved, r.lateP50, r.lateP99, state)
}
