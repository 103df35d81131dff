package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/trace"
)

// The test binary serves as its own keep-awake and workload child, so the
// smoke run drives the same processes a real run does.
func TestMain(m *testing.M) {
	childMain()
	os.Exit(m.Run())
}

func TestMedianAndSummary(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want summary
	}{
		{nil, summary{}},
		{[]float64{5}, summary{5, 5, 5, 1}},
		{[]float64{9, 1, 5}, summary{5, 1, 9, 3}},
		{[]float64{4, 1, 3, 2}, summary{2.5, 1, 4, 4}},
	} {
		if got := summarize(c.in); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// The reported p99 is the median of each repetition's own p99; pooling
// the samples would let one slow repetition own the tail.
func TestP99IsPerRepetitionNeverPooled(t *testing.T) {
	rep := func(tail float64) []float64 {
		s := make([]float64, 100)
		for i := range s {
			s[i] = float64(i + 1) // 1..100
			if i >= 90 {
				s[i] = tail
			}
		}
		return s
	}
	var p99s, pooled []float64
	for _, tail := range []float64{100, 100, 5000} {
		s := rep(tail)
		pooled = append(pooled, s...)
		p50, p99 := repPercentiles(s)
		if p50 != 50 { // index 0.5·99 = 49 → value 50
			t.Fatalf("p50 = %v, want 50", p50)
		}
		p99s = append(p99s, p99)
	}
	if got := summarize(p99s).Median; got != 100 {
		t.Errorf("median of per-repetition p99s = %v, want 100", got)
	}
	if _, p := repPercentiles(pooled); p != 5000 {
		t.Errorf("pooled p99 = %v; the test's premise is that pooling reports the slow repetition (5000)", p)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "load.batch", Start: 0, End: 100, Parent: -1},
		{Name: "wire.enqueue", Start: 5, End: 15, Parent: 0},
		{Name: "wire.flush", Start: 15, End: 40, Parent: 0},
		{Name: "wire.read", Start: 40, End: 90, Parent: 0},
		{Name: "load.batch", Start: 100, End: 160, Parent: -1},
		{Name: "load.fill", Start: 110, End: 150, Parent: 4},
		{Name: "wire.SetBatch", Start: 120, End: 150, Parent: 5},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"load.batch": 15 + 20, "wire.enqueue": 10, "wire.flush": 25, "wire.read": 50,
		"load.fill": 10, "wire.SetBatch": 30,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	if total != 160 {
		t.Errorf("self times sum to %v, want the roots' 160", total)
	}
}

func TestMergeSpansKeepsParents(t *testing.T) {
	epoch := time.Now()
	a, b := newSpanBuf(epoch, 0), newSpanBuf(epoch, 1)
	ra := a.add("load.batch", epoch, epoch.Add(10), -1, 0)
	a.add("wire.read", epoch, epoch.Add(4), ra, 0)
	rb := b.add("load.batch", epoch, epoch.Add(20), -1, 0)
	b.add("wire.read", epoch, epoch.Add(5), rb, 0)
	self := selfTimes(mergeSpans([]*spanBuf{a, nil, b}))
	if self["load.batch"] != 6+15 || self["wire.read"] != 9 {
		t.Errorf("self after merge = %v", self)
	}
}

func TestRelDiffDirection(t *testing.T) {
	if d := relDiff(100, 90, "higher"); math.Abs(d-0.10) > 1e-12 {
		t.Errorf("throughput 100→90 should be 10%% worse, got %v", d)
	}
	if d := relDiff(100, 90, "lower"); math.Abs(d+0.10) > 1e-12 {
		t.Errorf("latency 100→90 should be 10%% better, got %v", d)
	}
}

func TestPacerIsAPureScheduleStaggeredAcrossWorkers(t *testing.T) {
	start := time.Unix(1000, 0)
	p0 := newPacer(start, 50_000, 16, 0, 2)
	p1 := newPacer(start, 50_000, 16, 1, 2)
	want := 640 * time.Microsecond // 2 workers × 16 keys / 50k per second
	if p0.interval != want || p1.interval != want {
		t.Fatalf("interval = %v, %v; want %v", p0.interval, p1.interval, want)
	}
	if got := p1.due(0).Sub(p0.due(0)); got != want/2 {
		t.Errorf("workers are offset by %v, want half an interval", got)
	}
	for j := 0; j < 1000; j++ {
		if got := p0.due(j).Sub(start); got != time.Duration(j)*want {
			t.Fatalf("due(%d) = start+%v", j, got)
		}
	}
}

// stallConn answers every batch with verified hits at once, except that
// one batch takes stall to answer.
type stallConn struct {
	calls   int
	stallAt int
	stall   time.Duration
}

func (c *stallConn) getBatch(keys []uint64, visit func(int, bool, []byte), _ *spanBuf, _, _ int) error {
	if c.calls == c.stallAt {
		time.Sleep(c.stall)
	}
	c.calls++
	for i, k := range keys {
		visit(i, true, load.Payload(k, 16))
	}
	return nil
}
func (c *stallConn) setBatch([]uint64, func(int) []byte, *spanBuf, int, int) error { return nil }
func (c *stallConn) del(uint64) error                                              { return nil }

// A stall must not reset the schedule: every batch that was due during
// the stall is still sent, its latency is charged from when it was due,
// and the time spent behind schedule is reported as backlog, not as
// generator lateness.
func TestOpenLoopScheduleNeverResetsAfterAStall(t *testing.T) {
	const (
		interval = 2 * time.Millisecond
		stall    = 30 * time.Millisecond
		rungDur  = 100 * time.Millisecond
	)
	w := &world{spec: spec{Name: "fake"}, keys: make(trace.Sequence, 4096)}
	c := &stallConn{stallAt: 5, stall: stall}
	w.conns = []conn{c, c}
	p := pacer{start: time.Now(), interval: interval}
	out := w.openWorker(0, p, rungDur, nil)
	if out.err != nil || out.failed() != 0 {
		t.Fatalf("err=%v failed=%d", out.err, out.failed())
	}
	if want := int(rungDur / interval); len(out.lat) != want {
		t.Fatalf("sent %d batches, schedule holds %d: the stall dropped or added arrivals", len(out.lat), want)
	}
	if stalledMs := out.lat[5] / 1e3; stalledMs < 30 {
		t.Errorf("stalled batch latency %.1f ms, want ≥ 30", stalledMs)
	}
	// The next batch was due 2 ms after the stalled one and could only be
	// sent once the stall ended: charged from its due time it waited
	// about stall − interval.
	if next := out.lat[6] / 1e3; next < 20 {
		t.Errorf("batch due during the stall shows %.1f ms: its clock started when it was sent, not when it was due", next)
	}
	if out.backlog[6] < 20_000 {
		t.Errorf("backlog at the first batch after the stall = %.0f us, want ≥ 20000", out.backlog[6])
	}
	if out.late[6] > 5_000 {
		t.Errorf("generator lateness %.0f us on a backlogged batch: backlog was charged to the generator", out.late[6])
	}
	// And the worker catches up: the tail of the rung is back on schedule.
	if last := out.lat[len(out.lat)-1] / 1e3; last > 15 {
		t.Errorf("last batch still %.1f ms behind", last)
	}
}

func TestBacklogGrew(t *testing.T) {
	flat := make([]float64, 400)
	growing := make([]float64, 400)
	for i := range growing {
		growing[i] = float64(i) * 10
	}
	if backlogGrew(flat) || !backlogGrew(growing) {
		t.Errorf("backlogGrew(flat)=%v backlogGrew(growing)=%v", backlogGrew(flat), backlogGrew(growing))
	}
}

func streamHash(t *testing.T, s spec, seed uint64) uint64 {
	t.Helper()
	h := fnv.New64a()
	var b [8]byte
	for _, k := range genKeys(s, seed) {
		for i := range b {
			b[i] = byte(uint64(k) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestKeyStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, s := range specs {
		s = s.scaled(0.01)
		a, b, c := streamHash(t, s, 1), streamHash(t, s, 1), streamHash(t, s, 2)
		if a != b {
			t.Errorf("%s: same seed gave different key streams", s.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same key stream", s.Name)
		}
	}
}

func TestAARowsHoldDifferencesAgainstBounds(t *testing.T) {
	mk := func(set string, gets float64) *workloadResult {
		e := make(map[string]summary)
		for _, d := range endToEnd {
			e[d.Name] = one(1)
		}
		e["gets_per_s"] = one(gets)
		return &workloadResult{Name: "w", Set: set, EndToEnd: e}
	}
	rows := aaRows([]*workloadResult{mk("A", 100), mk("A'", 70)})
	if len(rows) != len(endToEnd) {
		t.Fatalf("%d rows, want one per end-to-end metric", len(rows))
	}
	for _, r := range rows {
		if want := r.Metric != "gets_per_s"; r.Within != want {
			t.Errorf("%s: within=%v, want %v (worse by %v, bound %v)", r.Metric, r.Within, want, r.Worse, r.Bound)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// One smoke run of every workload at 1/100 size, traced, checked against
// the committed contract: whatever BENCHMARK.json names, the program
// emits under that name, and nothing fails.
func TestSmokeRunEmitsEverythingBenchmarkJSONNames(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	// The tables in metrics.go and world.go are the program's side of the
	// contract; the file must say the same.
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		name(w.Name)
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: file has %q (%q), program %q (%q)", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		name(m.Name)
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: file has %+v, program %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		name(m.Name)
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: file has %+v, program %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %s: unit %q", m.Name, m.Unit)
		}
	}

	traceOut := filepath.Join(t.TempDir(), "spans.json")
	o := options{seed: 1, reps: 2, seconds: 1.2, trace: true, traceOut: traceOut, size: 0.01}
	for _, s := range specs {
		o.workloads = append(o.workloads, s.Name)
	}
	doc, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if c := doc.Env.KeepAwake; c != classIdle && c != classNice {
		t.Errorf("environment records keep_awake=%q", c)
	}
	var traced []traceFile
	if buf, err := os.ReadFile(traceOut); err != nil {
		t.Error(err)
	} else if err := json.Unmarshal(buf, &traced); err != nil || len(traced) != len(specs) {
		t.Errorf("-trace-out holds %d workloads (%v), want %d", len(traced), err, len(specs))
	}
	if !doc.Correct {
		for _, w := range doc.Workloads {
			t.Errorf("%s: failed=%d %v", w.Name, w.Failed, w.Violations)
		}
	}
	emitted := make(map[string]bool) // per-layer names any workload or the isolated pass produced
	for n := range doc.Isolated {
		emitted[n] = true
	}
	for _, w := range doc.Workloads {
		if w.Attempted < 1 || w.Failed != 0 {
			t.Errorf("%s: attempted=%d failed=%d", w.Name, w.Attempted, w.Failed)
		}
		for _, m := range bf.EndToEnd {
			if s, ok := w.EndToEnd[m.Name]; !ok || s.Median <= 0 || math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
				t.Errorf("%s: end-to-end %s = %+v; must be emitted and never zero", w.Name, m.Name, s)
			}
		}
		for n := range w.PerLayer {
			emitted[n] = true
		}
		if len(w.SelfNs) == 0 {
			t.Errorf("%s: the traced repetition produced no self times", w.Name)
		}
	}
	for _, m := range bf.PerLayer {
		if !emitted[m.Name] {
			t.Errorf("per-layer %s is named in BENCHMARK.json but nothing emitted it", m.Name)
		}
	}
	// The contract line carries exactly the named metrics.
	for _, traced := range []bool{false, true} {
		single := &document{Correct: true, Workloads: doc.Workloads[:1], Isolated: doc.Isolated}
		r := single.result(traced)
		want := len(bf.EndToEnd)
		if traced {
			want = len(bf.PerLayer)
		}
		if len(r.Metrics) != want {
			t.Errorf("trace=%v: result line has %d metrics, want %d", traced, len(r.Metrics), want)
		}
		for n, v := range r.Metrics {
			if !seen[n] || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("trace=%v: result metric %s = %v", traced, n, v.Value)
			}
		}
	}
}
