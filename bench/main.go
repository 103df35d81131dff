// Command bench is the repository's standing benchmark: five named
// workloads against the cache service and library, end-to-end metrics with
// committed bounds, per-layer metrics that say where the time went, a
// traced run, and an A/A mode that measures the benchmark's own noise.
// README.md in this directory is the manual; BENCHMARK.json at the
// repository root is the contract it is run under.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

type options struct {
	workloads []string
	seed      uint64
	reps      int
	seconds   float64
	trace     bool
	aa        bool
	out       string
	traceOut  string
	// size shrinks key streams and warm-up; only the smoke test sets it.
	size float64
}

// childMain turns this process into one of the binary's hidden roles if
// its first argument names one, and does not return then. main and the
// tests' TestMain both start with it, so either binary can serve as its
// own child.
func childMain() {
	if len(os.Args) < 2 {
		return
	}
	switch os.Args[1] {
	case keepAwakeArg:
		keepAwakeChild()
	case workloadArg:
		workloadChild()
	}
}

func main() {
	childMain()
	var (
		workloadF = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Uint64("seed", 1, "feeds workload.Zipf and concurrent.Config.Seed only")
		reps      = flag.Int("reps", 7, "timed repetitions per workload; the median is reported")
		seconds   = flag.Float64("seconds", 12, "measured seconds per workload, split evenly over the repetitions")
		traceF    = flag.String("trace", "0", "1: add the traced repetition and the isolated per-layer timings, and end with the per-layer metrics")
		aa        = flag.Bool("aa", false, "run every workload twice and hold the differences against the bounds")
		out       = flag.String("o", "", "write the full JSON document here")
		traceOut  = flag.String("trace-out", "", "with -trace 1: write the recorded spans here as JSON")
	)
	flag.Parse()
	trace, err := strconv.ParseBool(*traceF)
	if err != nil || flag.NArg() > 0 || *reps < 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	o := options{seed: *seed, reps: *reps, seconds: *seconds, trace: trace, aa: *aa, out: *out, traceOut: *traceOut, size: 1}
	if *workloadF == "all" {
		for _, s := range specs {
			o.workloads = append(o.workloads, s.Name)
		}
	} else if _, ok := findSpec(*workloadF); ok {
		o.workloads = []string{*workloadF}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadF)
		os.Exit(2)
	}

	doc, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	doc.print(os.Stdout)
	if o.out != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	// The last line of standard output is the result object the driver
	// reads.
	last, err := json.Marshal(doc.result(o.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
	if !doc.Correct {
		os.Exit(1)
	}
}

// document is everything one invocation measured.
type document struct {
	Env       environment        `json:"environment"`
	Seed      uint64             `json:"seed"`
	Reps      int                `json:"reps"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Workloads []*workloadResult  `json:"workloads"`
	Isolated  map[string]summary `json:"isolated_per_layer,omitempty"`
	AA        []aaRow            `json:"aa,omitempty"`
}

// result is the one-line object the contract asks for. With one workload
// the metric names are bare; with several each is prefixed by its
// workload.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (d *document) result(trace bool) result {
	r := result{Correct: d.Correct, Metrics: make(map[string]metricValue)}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	var named []*workloadResult
	for _, w := range d.Workloads {
		r.Attempted += w.Attempted
		r.Failed += w.Failed
		if w.Set == "A" {
			named = append(named, w)
		}
	}
	for _, w := range named {
		prefix := ""
		if len(named) > 1 {
			prefix = w.Name + "/"
		}
		for _, def := range defs {
			v := w.EndToEnd[def.Name].Median
			if trace {
				v = w.layerValue(def.Name, d.Isolated)
			}
			r.Metrics[prefix+def.Name] = metricValue{Value: v, Unit: def.Unit}
		}
	}
	return r
}

// job is what a workload child reads from its standard input: one
// workload of one set, and the isolated timings its budget rows need.
type job struct {
	Workload   string
	Set        string
	Size       float64
	Seed       uint64
	Reps       int
	Seconds    float64
	Trace      bool
	Spans      bool // answer with the recorded spans too
	Mismatches int  // failed isolated checks, charged to this workload
	Isolated   map[string]summary
}

// jobResult is what it answers on its standard output.
type jobResult struct {
	Result *workloadResult
	Trace  json.RawMessage // a traceFile, with job.Spans
}

// run executes one invocation: the isolated timings if asked for, then
// every workload in a child process of its own, one after another. A fresh
// process per workload keeps each one's heap, garbage collector and peak
// RSS its own; workloads sharing a process moved each other's timings by
// tens of percent. Under -aa each workload runs twice, A and A′, the side
// that goes first alternating from one workload to the next.
func run(o options) (*document, error) {
	doc := &document{Env: fixProcs(), Seed: o.seed, Reps: o.reps, Seconds: o.seconds, Correct: true}
	stop, class, err := startKeepAwake(doc.Env.GOMAXPROCS)
	if err != nil {
		return nil, err
	}
	defer stop()
	doc.Env.KeepAwake = class
	steal0, total0 := cpuTicks()
	defer func() {
		steal1, total1 := cpuTicks()
		doc.Env.StealShare = ratio(steal1-steal0, total1-total0)
	}()

	mismatches := 0
	if o.trace {
		if doc.Isolated, mismatches, err = isolated(o.seed); err != nil {
			return nil, fmt.Errorf("isolated timings: %w", err)
		}
	}
	var traces []json.RawMessage
	for i, name := range o.workloads {
		sets := []string{"A"}
		if o.aa {
			sets = []string{"A", "A'"}
			if i%2 == 1 {
				sets = []string{"A'", "A"}
			}
		}
		for _, set := range sets {
			res, err := runChild(job{
				Workload: name, Set: set, Size: o.size, Seed: o.seed, Reps: o.reps, Seconds: o.seconds,
				Trace: o.trace, Spans: o.trace && o.traceOut != "", Mismatches: mismatches, Isolated: doc.Isolated,
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			mismatches = 0 // charged once, to the first workload
			doc.Workloads = append(doc.Workloads, res.Result)
			if res.Result.Failed > 0 {
				doc.Correct = false
			}
			if res.Trace != nil {
				traces = append(traces, res.Trace)
			}
		}
	}
	if o.aa {
		doc.AA = aaRows(doc.Workloads)
		for _, row := range doc.AA {
			if !row.Within {
				doc.Correct = false
			}
		}
	}
	if o.traceOut != "" && o.trace {
		file, err := json.Marshal(traces)
		if err == nil {
			err = os.WriteFile(o.traceOut, append(file, '\n'), 0o644)
		}
		if err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// workloadArg is the hidden first argument that turns this binary into a
// workload child.
const workloadArg = "-workload-child"

// runChild runs one job in a child process and waits for it to end.
func runChild(j job) (*jobResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	c := exec.Command(self, workloadArg)
	c.Stdin = bytes.NewReader(in)
	c.Stderr = os.Stderr
	// The child dies with this process even if it is killed mid-run.
	c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := c.Output()
	if err != nil {
		return nil, fmt.Errorf("workload child: %w", err)
	}
	var res jobResult
	if err := json.Unmarshal(out, &res); err != nil || res.Result == nil {
		return nil, fmt.Errorf("workload child answered %d bytes that are no result: %v", len(out), err)
	}
	return &res, nil
}

// workloadChild never returns: it runs the job on its standard input and
// answers on its standard output.
func workloadChild() {
	var j job
	err := json.NewDecoder(os.Stdin).Decode(&j)
	var res *jobResult
	if err == nil {
		res, err = runJob(j)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runJob takes one workload from set-up to results, alone in its process.
func runJob(j job) (*jobResult, error) {
	s, ok := findSpec(j.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", j.Workload)
	}
	fixProcs()
	r := &wlRun{spec: s.scaled(j.Size), set: j.Set}
	defer func() {
		if r.world != nil {
			r.world.close()
		}
	}()
	if j.Mismatches > 0 {
		r.violate(j.Mismatches, "concurrent.miss_ratio_a* did not repeat exactly, or did not fall as α rose")
	}
	// The traced invocation does not report setup_s and sets up once.
	for r.needsSetup(!j.Trace) {
		if err := r.setupOnce(j.Seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	if err := r.bracket(&r.before); err != nil {
		return nil, err
	}
	repDur := time.Duration(j.Seconds / float64(j.Reps) * float64(time.Second))
	for i := 0; i < j.Reps; i++ {
		rp, err := r.rep(repDur, false)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		r.reps = append(r.reps, rp)
	}
	if err := r.bracket(&r.after); err != nil {
		return nil, err
	}
	// Peak RSS is read before the traced repetition, whose span buffers are
	// the benchmark's own memory.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res := &jobResult{}
	if j.Trace {
		rp, err := r.rep(repDur, true)
		if err != nil {
			return nil, fmt.Errorf("traced repetition: %w", err)
		}
		r.traced, r.self = &rp, selfTimes(rp.spans)
		if j.Spans {
			self := make(map[string]int64, len(r.self))
			for name, d := range r.self {
				self[name] = int64(d)
			}
			res.Trace, err = json.Marshal(traceFile{Workload: s.Name, Gets: rp.tracedGets, SelfNs: self, Spans: rp.spans})
			if err != nil {
				return nil, err
			}
		}
	}
	res.Result = r.finish(j.Isolated, rss)
	return res, nil
}
