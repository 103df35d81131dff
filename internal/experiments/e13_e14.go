package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// E13Row is one (stream, schedule, length) point of the rehash-schedule
// comparison.
type E13Row struct {
	Stream   string
	Schedule string
	Reps     int
	Ratio    stats.Summary // cost vs fully associative LRU at k'
	Rehashes stats.Summary
}

// E13Result validates the Section 6 remark: rehashing after a fixed number
// of *accesses* is broken — an adversary that replays one fixed (1−δ)k-item
// set forever gives the schedule infinitely many chances to redraw a bad
// hash, and every full flush forces the whole working set to re-miss. The
// miss-count schedule settles: once a good hash is found, misses (and hence
// rehashes) stop. The store rows replay the fixed-set streams, and one
// Theorem 4 stream at α = 4, through concurrent.Cache, the service's store,
// under cached's two schedules: a fixed hash and -rehash-auto.
type E13Result struct {
	K      int
	Alpha  int
	Delta  float64
	Trials int
	Rows   []E13Row
}

// E13AccessRehash runs experiment E13.
func E13AccessRehash(cfg Config) *E13Result {
	k := cfg.pick(1<<9, 1<<10)
	alpha := cfg.pick(32, 64)
	const delta = 0.35
	trials := cfg.pick(6, 12)
	res := &E13Result{K: k, Alpha: alpha, Delta: delta, Trials: trials}

	type schedule struct {
		name   string
		rehash core.RehashConfig
	}
	schedules := []schedule{
		{"no rehash", core.RehashConfig{}},
		{"every 2k misses (paper)", core.RehashConfig{Mode: core.RehashFullFlush, EveryMisses: uint64(2 * k)}},
		{"every 2k accesses (broken)", core.RehashConfig{Mode: core.RehashFullFlush, EveryAccesses: uint64(2 * k)}},
	}
	// store adds the rows of one stream replayed through concurrent.Cache,
	// on the same trial seeds for both schedules.
	store := func(stream string, a int, seq trace.Sequence, baseline float64, reps int, master uint64) {
		for _, sch := range []struct {
			name  string
			every uint64
		}{
			{storeFixed, 0},
			{storeAuto, concurrent.DefaultEveryMisses(k)},
		} {
			out := sim.RunTrialsVec(trials, master, 2, func(_ int, seed uint64) []float64 {
				misses, rehashes := replayStore(k, a, sch.every, seed, seq)
				return []float64{float64(misses) / baseline, float64(rehashes)}
			})
			res.Rows = append(res.Rows, E13Row{
				Stream: stream, Schedule: sch.name, Reps: reps,
				Ratio: stats.Of(out[0]), Rehashes: stats.Of(out[1]),
			})
		}
	}
	for _, reps := range []int{cfg.pick(16, 32), cfg.pick(64, 128), cfg.pick(128, 512)} {
		attack := adversary.FixedSet{K: k, Delta: delta, Reps: reps}
		seq := attack.Build()
		baseline := float64(attack.KPrime()) // conservative LRU at k' misses once per item
		for _, sch := range schedules {
			out := sim.RunTrialsVec(trials, cfg.Seed+uint64(reps)<<3, 2, func(_ int, seed uint64) []float64 {
				sa := core.MustNewSetAssoc(core.SetAssocConfig{
					Capacity: k, Alpha: alpha, Factory: lruFactory(), Seed: seed,
					Rehash: sch.rehash,
				})
				st := core.RunSequence(sa, seq)
				return []float64{float64(st.Misses) / baseline, float64(st.Rehashes)}
			})
			res.Rows = append(res.Rows, E13Row{
				Stream: "fixed set", Schedule: sch.name, Reps: reps,
				Ratio: stats.Of(out[0]), Rehashes: stats.Of(out[1]),
			})
		}
		store("fixed set", alpha, seq, baseline, reps, cfg.Seed+uint64(reps)<<3)
	}
	th4 := adversary.Theorem4{K: k, Delta: delta, Sets: 16, Reps: cfg.pick(32, 64)}
	store("theorem 4, α=4, s=16", 4, th4.Build(), float64(th4.Sets*th4.KPrime()), th4.Reps, cfg.Seed+1)
	return res
}

// The store rows' schedules: cached without a rehash flag, and with
// -rehash-auto (RehashEveryMisses = DefaultEveryMisses(k)).
const (
	storeFixed = "store, fixed hash"
	storeAuto  = "store, -rehash-auto"
)

// replayStore runs seq read-through (Get, then Put on a miss) through a
// concurrent.Cache rehashing every `every` misses (never when 0) and
// returns its misses and rehashes.
func replayStore(k, alpha int, every, seed uint64, seq trace.Sequence) (misses, rehashes uint64) {
	c, err := concurrent.New(concurrent.Config{Capacity: k, Alpha: alpha, Seed: seed, RehashEveryMisses: every})
	if err != nil {
		panic(err)
	}
	for _, it := range seq {
		if _, ok := c.Get(uint64(it)); !ok {
			c.Put(uint64(it), nil)
		}
	}
	s := c.Snapshot()
	return s.Misses, s.Rehashes
}

// RatioFor returns the mean ratio for a (schedule, reps) cell.
func (r *E13Result) RatioFor(schedule string, reps int) (float64, bool) {
	for _, row := range r.Rows {
		if row.Schedule == schedule && row.Reps == reps {
			return row.Ratio.Mean, true
		}
	}
	return 0, false
}

// Table renders the schedule comparison.
func (r *E13Result) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("E13: rehash schedules under replay attacks (k=%d, α=%d on the fixed set, δ=%.2f)",
			r.K, r.Alpha, r.Delta),
		"stream", "schedule", "passes", "cost ratio vs LRU_k'", "±95%", "rehashes")
	t.Note = "Paper (§6 remark): rehashing every N accesses lets the adversary replay one fixed set\n" +
		"forever — each flush re-misses the whole working set, so the ratio grows with the passes.\n" +
		"Rehashing every N misses settles after finitely many redraws.\n" +
		"Store rows replay read-through in concurrent.Cache under cached's two schedules (none,\n" +
		"-rehash-auto: every k·⌈log₂k⌉ misses). The store starts each rehash on its own goroutine,\n" +
		"so these rows average over seeds rather than replay bit for bit."
	for _, row := range r.Rows {
		t.AddRowf(row.Stream, row.Schedule, row.Reps, row.Ratio.Mean, row.Ratio.CI95, row.Rehashes.Mean)
	}
	return t
}

// E14Row is one policy of the scan-resistance comparison.
type E14Row struct {
	Kind      policy.Kind
	MissRatio stats.Summary
}

// E14Result validates footnote 3: LRU-2 outperforms LRU when the workload
// mixes a hot set with isolated one-shot accesses (scan bursts), because
// LRU-2 only deems an item important after two recent accesses.
type E14Result struct {
	K      int
	SeqLen int
	Trials int
	Rows   []E14Row
}

// E14LRU2 runs experiment E14.
func E14LRU2(cfg Config) *E14Result {
	k := cfg.pick(1<<7, 1<<8)
	seqLen := cfg.pick(60_000, 400_000)
	trials := cfg.pick(4, 10)
	res := &E14Result{K: k, SeqLen: seqLen, Trials: trials}

	// Hot set fills ~3/4 of the cache; bursts half the cache size, arriving
	// often enough that plain LRU keeps losing hot items.
	gen := workload.ZipfWithScans{
		HotUniverse: k * 3 / 4,
		S:           0.6,
		BurstEvery:  k,
		BurstLen:    k / 2,
	}
	for _, kind := range []policy.Kind{policy.LRUKind, policy.LRU2Kind, policy.LRU3Kind, policy.LFUKind, policy.FIFOKind} {
		ratios := sim.RunTrials(trials, cfg.Seed+uint64(kind*131), func(_ int, seed uint64) float64 {
			fa := core.NewFullAssoc(policy.NewFactory(kind, seed), k)
			seq := gen.Generate(seqLen, seed)
			st := core.RunSequence(fa, seq)
			return st.MissRatio()
		})
		res.Rows = append(res.Rows, E14Row{Kind: kind, MissRatio: stats.Of(ratios)})
	}
	return res
}

// MissRatioFor returns the mean miss ratio for one policy kind.
func (r *E14Result) MissRatioFor(kind policy.Kind) (float64, bool) {
	for _, row := range r.Rows {
		if row.Kind == kind {
			return row.MissRatio.Mean, true
		}
	}
	return 0, false
}

// Table renders the comparison.
func (r *E14Result) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("E14: LRU-K scan resistance (k=%d, Zipf hot set + one-shot scan bursts, |σ|=%d)", r.K, r.SeqLen),
		"policy", "miss ratio", "±95%")
	t.Note = "Paper footnote 3: LRU-2 often outperforms LRU because it is less sensitive to isolated accesses."
	for _, row := range r.Rows {
		t.AddRowf(row.Kind.String(), row.MissRatio.Mean, row.MissRatio.CI95)
	}
	return t
}
