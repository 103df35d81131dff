package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func sampleMetrics() *Metrics {
	var get, set, put telemetry.Histogram
	for i := 0; i < 1000; i++ {
		get.Record(time.Duration(i) * time.Microsecond)
	}
	set.Record(3 * time.Millisecond)
	put.Record(40 * time.Microsecond)
	put.Record(90 * time.Second) // extreme octave must survive the trip
	return &Metrics{
		Flags: MetricsAll,
		Hists: []OpHist{
			{ID: byte(OpGet), Snap: get.Snapshot()},
			{ID: byte(OpSet), Snap: set.Snapshot()},
			{ID: byte(OpPut), Snap: put.Snapshot()},
		},
		Counters: (&Stats{
			BytesIn: 1 << 40, BytesOut: 77, SlowOps: 2, Conns: 9,
			Hits: 10, Misses: 3, Evictions: 2, ConflictEvictions: 1, FlushEvictions: 5,
			Rehashes: 1, Pending: 7, Len: 90, Capacity: 128, Buckets: 16,
			RepairSets: 12, StaleRepairs: 2, HintsReplayed: 4, Migrating: true,
		}).Counters(),
		SlowOps: []telemetry.Span{
			{Op: byte(OpGet), Status: byte(StatusHit), TraceID: testTraceID(9), KeyHash: telemetry.HashKey(42), DurationNanos: 5e6, Version: 3, UnixNanos: 1700000000e9},
			{Op: byte(OpSet), Status: byte(StatusOK), KeyHash: telemetry.HashKey(7), DurationNanos: 9e6, Version: 8, UnixNanos: 1700000001e9}, // untraced: zero ID
		},
		Spans: []telemetry.Span{
			{Op: byte(OpGet), Status: byte(StatusHit), TraceID: testTraceID(9), KeyHash: telemetry.HashKey(42), DurationNanos: 5e6, Version: 3, UnixNanos: 1700000000e9},
			{Op: byte(OpSet), Status: byte(StatusOK), TraceID: testTraceID(9), KeyHash: telemetry.HashKey(42), DurationNanos: 1e3, Version: 4, UnixNanos: 1700000002e9},
		},
		HotKeys: []HotKeyClass{
			{Class: HotGet, Keys: telemetry.TopKSnapshot{
				{Key: telemetry.HashKey(42), Count: 900, Err: 3},
				{Key: telemetry.HashKey(7), Count: 100, Err: 3},
			}},
			{Class: HotEvict, Keys: telemetry.TopKSnapshot{
				{Key: telemetry.HashKey(7), Count: 12, Err: 0},
			}},
		},
		Occupancy: []uint64{8, 7, 0, 8},
	}
}

// TestMetricsRoundTrip pins the METRICS request and response encodings:
// what the server writes is exactly what the client decodes, including
// empty sections and sparse histograms.
func TestMetricsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	reqs := []Request{
		{Op: OpMetrics, MetricsFlags: MetricsAll},
		{Op: OpMetrics, MetricsFlags: MetricsHistograms},
		{Op: OpMetrics, MetricsFlags: MetricsCounters | MetricsSlowOps},
	}
	for _, req := range reqs {
		if err := w.WriteRequest(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range reqs {
		got, err := r.ReadRequest()
		if err != nil {
			t.Fatalf("read request %d: %v", i, err)
		}
		if got.Op != OpMetrics || got.MetricsFlags != want.MetricsFlags {
			t.Fatalf("request %d = %+v, want %+v", i, got, want)
		}
	}

	resps := []Response{
		{Status: StatusMetrics, Epoch: 5, Metrics: sampleMetrics()},
		{Status: StatusMetrics, Epoch: 6, Metrics: &Metrics{Flags: MetricsHistograms}},                                  // zero histograms
		{Status: StatusMetrics, Epoch: 7, Metrics: &Metrics{Flags: MetricsCounters}},                                    // zero counters
		{Status: StatusMetrics, Epoch: 8, Metrics: &Metrics{Flags: MetricsSlowOps}},                                     // empty ring
		{Status: StatusMetrics, Epoch: 9, Metrics: &Metrics{Flags: MetricsAll, Hists: []OpHist{{ID: byte(OpMetrics)}}}}, // empty histogram
	}
	buf.Reset()
	for _, resp := range resps {
		if err := w.WriteResponse(resp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, want := range resps {
		got, err := r.ReadResponse()
		if err != nil {
			t.Fatalf("read response %d: %v", i, err)
		}
		if got.Status != StatusMetrics || got.Epoch != want.Epoch || got.Metrics == nil {
			t.Fatalf("response %d = %+v", i, got)
		}
		if got.Metrics.Flags != want.Metrics.Flags {
			t.Fatalf("response %d flags = %v, want %v", i, got.Metrics.Flags, want.Metrics.Flags)
		}
		// Sections must round-trip exactly, modulo nil-vs-empty slices.
		if len(got.Metrics.Hists) != len(want.Metrics.Hists) {
			t.Fatalf("response %d has %d hists, want %d", i, len(got.Metrics.Hists), len(want.Metrics.Hists))
		}
		for j := range want.Metrics.Hists {
			if got.Metrics.Hists[j] != want.Metrics.Hists[j] {
				t.Fatalf("response %d hist %d differs", i, j)
			}
		}
		if len(got.Metrics.Counters) != 0 || len(want.Metrics.Counters) != 0 {
			if !reflect.DeepEqual(got.Metrics.Counters, want.Metrics.Counters) {
				t.Fatalf("response %d counters = %+v, want %+v", i, got.Metrics.Counters, want.Metrics.Counters)
			}
		}
		if len(got.Metrics.SlowOps) != 0 || len(want.Metrics.SlowOps) != 0 {
			if !reflect.DeepEqual(got.Metrics.SlowOps, want.Metrics.SlowOps) {
				t.Fatalf("response %d slow ops = %+v, want %+v", i, got.Metrics.SlowOps, want.Metrics.SlowOps)
			}
		}
		if len(got.Metrics.Spans) != 0 || len(want.Metrics.Spans) != 0 {
			if !reflect.DeepEqual(got.Metrics.Spans, want.Metrics.Spans) {
				t.Fatalf("response %d spans = %+v, want %+v", i, got.Metrics.Spans, want.Metrics.Spans)
			}
		}
		if len(got.Metrics.HotKeys) != 0 || len(want.Metrics.HotKeys) != 0 {
			if !reflect.DeepEqual(got.Metrics.HotKeys, want.Metrics.HotKeys) {
				t.Fatalf("response %d hot keys = %+v, want %+v", i, got.Metrics.HotKeys, want.Metrics.HotKeys)
			}
		}
		if len(got.Metrics.Occupancy) != 0 || len(want.Metrics.Occupancy) != 0 {
			if !reflect.DeepEqual(got.Metrics.Occupancy, want.Metrics.Occupancy) {
				t.Fatalf("response %d occupancy = %v, want %v", i, got.Metrics.Occupancy, want.Metrics.Occupancy)
			}
		}
	}

	// Accessors on the full payload.
	m := sampleMetrics()
	if m.Hist(byte(OpGet)) == nil || m.Hist(byte(OpPut)) == nil || m.Hist(byte(OpDel)) != nil {
		t.Error("Hist accessor wrong")
	}
	if m.Counter(CounterBytesIn) != 1<<40 || m.Counter(250) != 0 {
		t.Error("Counter accessor wrong")
	}
	st := m.Stats()
	if st.BytesIn != 1<<40 || st.Conns != 9 || st.Hits != 10 || st.HintsReplayed != 4 || !st.Migrating || len(st.Occupancy) != 4 {
		t.Errorf("Stats view = %+v", st)
	}
	// Counters and Stats are inverses over every counter.
	if back := (&Metrics{Counters: st.Counters(), Occupancy: st.Occupancy}).Stats(); !reflect.DeepEqual(back, st) {
		t.Errorf("Stats → Counters → Stats = %+v, want %+v", back, st)
	}
	if m.HotClass(HotGet) == nil || m.HotClass(HotEvict) == nil || m.HotClass(HotDel) != nil {
		t.Error("HotClass accessor wrong")
	}
}

// TestMetricsRequestRejected pins the request-side validation rules.
func TestMetricsRequestRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRequest(Request{Op: OpMetrics}); err == nil {
		t.Error("METRICS request selecting no section accepted by encoder")
	}
	if err := w.WriteRequest(Request{Op: OpMetrics, MetricsFlags: 0x80}); err == nil {
		t.Error("METRICS request with undefined flag bits accepted by encoder")
	}

	frame := func(body []byte) *Reader {
		var b bytes.Buffer
		var ln [4]byte
		binary.LittleEndian.PutUint32(ln[:], uint32(len(body)))
		b.Write(ln[:])
		b.Write(body)
		return NewReader(&b)
	}
	if _, err := frame([]byte{byte(OpMetrics)}).ReadRequest(); err == nil {
		t.Error("METRICS request without the flag byte accepted")
	}
	if _, err := frame([]byte{byte(OpMetrics), 0}).ReadRequest(); err == nil {
		t.Error("METRICS request selecting no section accepted")
	}
	if _, err := frame([]byte{byte(OpMetrics), 0x41}).ReadRequest(); err == nil {
		t.Error("METRICS request with undefined flag bits accepted")
	}
	if _, err := frame([]byte{byte(OpMetrics), byte(MetricsAll), 0}).ReadRequest(); err == nil {
		t.Error("METRICS request with trailing bytes accepted")
	}
}

// TestMetricsPayloadRejected pins the decoder against malformed response
// payloads: every structural rule broken one at a time, starting from a
// valid frame.
func TestMetricsPayloadRejected(t *testing.T) {
	encode := func(m *Metrics) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteResponse(Response{Status: StatusMetrics, Epoch: 1, Metrics: m}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	reject := func(name string, raw []byte) {
		t.Helper()
		if _, err := NewReader(bytes.NewReader(raw)).ReadResponse(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Offsets into the frame: len(4) status(1) epoch(8) flags(1) ...
	const payload = 4 + 1 + 8

	raw := encode(sampleMetrics())
	mut := append([]byte(nil), raw...)
	mut[payload] = 0
	reject("flags byte zero", mut)

	mut = append([]byte(nil), raw...)
	mut[payload] = 0xFF
	reject("undefined flag bits", mut)

	mut = append(append([]byte(nil), raw...), 0xAA)
	binary.LittleEndian.PutUint32(mut, binary.LittleEndian.Uint32(mut)+1)
	reject("trailing bytes", mut)

	reject("truncated histogram section", raw[:payload+3])

	// Histogram with an undefined ID: hist section starts at payload+1
	// (count uint32), first hist ID right after.
	mut = append([]byte(nil), raw...)
	mut[payload+1+4] = 200
	reject("undefined histogram ID", mut)

	// Non-ascending hist IDs: make the second hist repeat the first's ID.
	m := sampleMetrics()
	m.Hists[1].ID = m.Hists[0].ID
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteResponse(Response{Status: StatusMetrics, Metrics: m}); err == nil {
		w.Flush()
		reject("non-ascending histogram IDs", buf.Bytes())
	}

	// Out-of-range bucket index: first hist's first bucket pair sits after
	// id(1)+sum(8)+nbuckets(4).
	mut = append([]byte(nil), raw...)
	binary.LittleEndian.PutUint16(mut[payload+1+4+13:], telemetry.NumBuckets)
	reject("bucket index out of range", mut)

	// Zero-count bucket.
	mut = append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(mut[payload+1+4+13+2:], 0)
	reject("zero-count bucket", mut)

	// Non-ascending bucket indices: copy pair 1's index over pair 2's.
	mut = append([]byte(nil), raw...)
	first := binary.LittleEndian.Uint16(mut[payload+1+4+13:])
	binary.LittleEndian.PutUint16(mut[payload+1+4+13+10:], first)
	reject("non-ascending bucket indices", mut)

	// Undefined counter ID, reached via a counters-only payload.
	rawC := encode(&Metrics{Flags: MetricsCounters, Counters: []MetricCounter{{ID: CounterBytesIn, Value: 1}}})
	mut = append([]byte(nil), rawC...)
	mut[payload+1+4] = 99
	reject("undefined counter ID", mut)

	// Slow-op count larger than the delivered records.
	rawS := encode(&Metrics{Flags: MetricsSlowOps, SlowOps: []telemetry.Span{{Op: 1}}})
	mut = append([]byte(nil), rawS...)
	binary.LittleEndian.PutUint32(mut[payload+1:], 2)
	// The frame length no longer matches; fix it so only the section count lies.
	reject("truncated slow-op records", mut)

	// Slow-op count over MaxSlowOps.
	mut = append([]byte(nil), rawS...)
	binary.LittleEndian.PutUint32(mut[payload+1:], MaxSlowOps+1)
	reject("slow-op count over MaxSlowOps", mut)

	// Encoder must refuse an oversized ring outright.
	if _, err := appendMetrics(nil, &Metrics{Flags: MetricsSlowOps, SlowOps: make([]telemetry.Span, MaxSlowOps+1)}); err == nil {
		t.Error("encoder accepted an oversize slow-op section")
	}

	// TRACES: a span record must carry a non-zero trace ID. Spans-only
	// payload: count uint32 at payload+1, first record right after; the
	// trace ID sits at record offset 2 (op 1 + status 1).
	rawT := encode(&Metrics{Flags: MetricsTraces, Spans: []telemetry.Span{{Op: 1, TraceID: testTraceID(1)}}})
	mut = append([]byte(nil), rawT...)
	for i := 0; i < 16; i++ {
		mut[payload+1+4+2+i] = 0
	}
	reject("zero span trace ID", mut)

	// Span count larger than the delivered records.
	mut = append([]byte(nil), rawT...)
	binary.LittleEndian.PutUint32(mut[payload+1:], 2)
	reject("truncated span records", mut)

	// Span count over MaxSpans.
	mut = append([]byte(nil), rawT...)
	binary.LittleEndian.PutUint32(mut[payload+1:], MaxSpans+1)
	reject("span count over MaxSpans", mut)

	if _, err := appendMetrics(nil, &Metrics{Flags: MetricsTraces, Spans: make([]telemetry.Span, MaxSpans+1)}); err == nil {
		t.Error("encoder accepted an oversize span section")
	}
	if _, err := appendMetrics(nil, &Metrics{Flags: MetricsTraces, Spans: []telemetry.Span{{Op: 1}}}); err == nil {
		t.Error("encoder accepted a span with a zero trace ID")
	}

	// HOTKEYS: hot-keys-only payload: class count uint32 at payload+1,
	// then class byte, entry count uint32, entries.
	rawH := encode(&Metrics{Flags: MetricsHotKeys, HotKeys: []HotKeyClass{
		{Class: HotGet, Keys: telemetry.TopKSnapshot{{Key: 5, Count: 10, Err: 1}, {Key: 9, Count: 4, Err: 0}}},
	}})
	mut = append([]byte(nil), rawH...)
	mut[payload+1+4] = 0
	reject("hot-key class zero", mut)

	mut = append([]byte(nil), rawH...)
	mut[payload+1+4] = hotClassMax + 1
	reject("hot-key class out of range", mut)

	// Entry count over MaxHotKeys.
	mut = append([]byte(nil), rawH...)
	binary.LittleEndian.PutUint32(mut[payload+1+4+1:], MaxHotKeys+1)
	reject("hot-key entry count over MaxHotKeys", mut)

	// Entry count larger than the delivered entries.
	mut = append([]byte(nil), rawH...)
	binary.LittleEndian.PutUint32(mut[payload+1+4+1:], 3)
	reject("truncated hot-key entries", mut)

	// Non-canonical entry order: swap the counts so the second entry
	// outranks the first.
	mut = append([]byte(nil), rawH...)
	binary.LittleEndian.PutUint64(mut[payload+1+4+1+4+8:], 4)
	binary.LittleEndian.PutUint64(mut[payload+1+4+1+4+24+8:], 10)
	reject("non-canonical hot-key order", mut)

	// Non-ascending classes round-trip through the encoder's own check.
	if _, err := appendMetrics(nil, &Metrics{Flags: MetricsHotKeys, HotKeys: []HotKeyClass{
		{Class: HotSet}, {Class: HotGet},
	}}); err == nil {
		t.Error("encoder accepted non-ascending hot-key classes")
	}
	if _, err := appendMetrics(nil, &Metrics{Flags: MetricsHotKeys, HotKeys: []HotKeyClass{
		{Class: HotGet, Keys: make(telemetry.TopKSnapshot, MaxHotKeys+1)},
	}}); err == nil {
		t.Error("encoder accepted an oversize hot-key section")
	}

	// OCCUPANCY: a bucket count larger than the delivered values.
	rawO := encode(&Metrics{Flags: MetricsOccupancy, Occupancy: []uint64{3, 1}})
	mut = append([]byte(nil), rawO...)
	binary.LittleEndian.PutUint32(mut[payload+1:], 3)
	reject("truncated occupancy section", mut)
	mut = append([]byte(nil), rawO...)
	binary.LittleEndian.PutUint32(mut[payload+1:], 1<<31)
	reject("occupancy count past the frame", mut)
}

// TestMetricsMergeAcrossWire pins the property the cluster view relies
// on: decoding two nodes' payloads and merging their histograms equals
// the histogram of the union stream.
func TestMetricsMergeAcrossWire(t *testing.T) {
	var a, b, both telemetry.Histogram
	for i := 1; i <= 500; i++ {
		d := time.Duration(i*i) * time.Microsecond
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
		both.Record(d)
	}
	trip := func(h *telemetry.Histogram) *telemetry.HistogramSnapshot {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		m := &Metrics{Flags: MetricsHistograms, Hists: []OpHist{{ID: byte(OpGet), Snap: h.Snapshot()}}}
		if err := w.WriteResponse(Response{Status: StatusMetrics, Metrics: m}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		resp, err := NewReader(&buf).ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		return resp.Metrics.Hist(byte(OpGet))
	}
	merged := trip(&a)
	merged.Merge(trip(&b))
	if *merged != both.Snapshot() {
		t.Fatal("wire round trip broke histogram mergeability")
	}
}
