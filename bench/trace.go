package main

import "time"

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Parent is the index of the causing span
// in the same worker's buffer (−1 for a root); Batch ties the spans of
// one request batch together.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced repetition began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Batch  int    `json:"batch"`
	Worker int    `json:"worker"`
}

// spanBuf is one worker's in-memory span log. Each worker owns its own,
// so recording takes no lock; a nil *spanBuf records nothing, which is
// how the timed repetitions run with tracing off.
type spanBuf struct {
	epoch  time.Time
	worker int
	spans  []span
}

func newSpanBuf(epoch time.Time, worker int) *spanBuf {
	return &spanBuf{epoch: epoch, worker: worker, spans: make([]span, 0, 1<<16)}
}

// add records a finished span and returns its index for children to name
// as their parent.
func (b *spanBuf) add(name string, start, end time.Time, parent, batch int) int {
	b.spans = append(b.spans, span{
		Name: name, Start: int64(start.Sub(b.epoch)), End: int64(end.Sub(b.epoch)),
		Parent: parent, Batch: batch, Worker: b.worker,
	})
	return len(b.spans) - 1
}

// addDur records a span known by its start and accumulated duration: the
// per-key verify calls of one batch are summed into one span rather than
// sixteen, so tracing costs two clock reads per key, not two appends.
func (b *spanBuf) addDur(name string, start time.Time, d time.Duration, parent, batch int) int {
	return b.add(name, start, start.Add(d), parent, batch)
}

// setEnd closes a span opened before its children were known.
func (b *spanBuf) setEnd(i int, end time.Time) { b.spans[i].End = int64(end.Sub(b.epoch)) }

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the durations of its direct children. Child spans here
// never overlap one another (a worker does one thing at a time), so the
// covered part of the interval is the plain sum.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return self
}

// traceFile is one element of the array -trace-out writes: every span of
// one traced workload, plus the self-time table derived from them.
type traceFile struct {
	Workload string           `json:"workload"`
	Gets     int              `json:"gets"`
	SelfNs   map[string]int64 `json:"self_ns_by_span"`
	Spans    []span           `json:"spans"`
}

// mergeSpans concatenates the workers' buffers into one list whose Parent
// indices stay valid, ordered worker by worker.
func mergeSpans(bufs []*spanBuf) []span {
	var out []span
	for _, b := range bufs {
		if b == nil {
			continue
		}
		base := len(out)
		for _, s := range b.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}
