package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
)

// The experiment tests assert the *shape* the paper predicts — who wins, by
// roughly what factor, where the crossover falls — at Quick scale.

func TestE1ThresholdShape(t *testing.T) {
	res := E1Threshold(QuickConfig())
	if len(res.Rows) < 5 {
		t.Fatalf("too few sweep points: %d", len(res.Rows))
	}
	first := res.Rows[0] // α = 1, direct-mapped
	last := res.Rows[len(res.Rows)-1]
	if first.Alpha != 1 {
		t.Fatalf("sweep should start at α=1, got %d", first.Alpha)
	}
	// Direct-mapped must be much worse than fully associative: with δ=1/2
	// the working set is half the cache and every pass conflicts heavily.
	if first.ExcessFactor.Mean < 2 {
		t.Errorf("α=1 excess factor %.2f, expected ≫ 1", first.ExcessFactor.Mean)
	}
	if first.OverflowProb < 0.99 {
		t.Errorf("α=1 overflow probability %.2f, expected ≈ 1", first.OverflowProb)
	}
	// Well above the threshold the set-associative cache matches the
	// fully associative one (factor ≈ 1) and overflow is rare.
	if last.ExcessFactor.Mean > 1.05 {
		t.Errorf("α=%d excess factor %.3f, expected ≈ 1", last.Alpha, last.ExcessFactor.Mean)
	}
	// Monotone-ish decrease: the curve must never rise substantially.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].ExcessFactor.Mean > res.Rows[i-1].ExcessFactor.Mean*1.25+0.1 {
			t.Errorf("excess factor rose from %.3f (α=%d) to %.3f (α=%d)",
				res.Rows[i-1].ExcessFactor.Mean, res.Rows[i-1].Alpha,
				res.Rows[i].ExcessFactor.Mean, res.Rows[i].Alpha)
		}
	}
	// The crossover (factor within 10% of 1) must happen at ω(1) but well
	// below k: between log₂k/2 and a constant multiple of log₂k·(12/δ²)…
	// empirically within [2, 128·log₂k]; the point is it is neither 1 nor k.
	lg := log2(res.K)
	crossover := -1
	for _, row := range res.Rows {
		if row.ExcessFactor.Mean < 1.1 {
			crossover = row.Alpha
			break
		}
	}
	if crossover < 2 || crossover > 128*lg {
		t.Errorf("crossover at α=%d, expected in [2, %d] (Θ(log k) with constants)", crossover, 128*lg)
	}

	// Ablation shape: contiguous+modulo has no conflicts even at α=1;
	// strided+modulo is catastrophic at every α.
	if res.ModuloContiguous[0].ExcessFactor.Mean > 1.01 {
		t.Errorf("modulo on contiguous scan should be conflict-free, factor %.3f",
			res.ModuloContiguous[0].ExcessFactor.Mean)
	}
	for _, row := range res.ModuloStrided {
		if row.Alpha < res.K/2 && row.ExcessFactor.Mean < 2 {
			t.Errorf("modulo on strided scan should be catastrophic at α=%d, factor %.3f",
				row.Alpha, row.ExcessFactor.Mean)
		}
	}
}

func TestE2CompetitiveShape(t *testing.T) {
	res := E2Competitive(QuickConfig())
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if !row.Lemma2Holds {
			t.Errorf("α=%d: Lemma 2 inequality violated", row.Alpha)
		}
		// The cost ratio must be close to 1 (1-competitive with additive
		// slack); generous tolerance for Quick scale.
		if row.CostRatio.Mean > 1.3 {
			t.Errorf("α=%d: cost ratio %.3f, expected ≈ 1", row.Alpha, row.CostRatio.Mean)
		}
		// Bad evictions must be rare in absolute terms. The paper's
		// per-step bound is loose at these sizes; we check the rate is tiny.
		if row.BadEvictionRate.Mean > 0.02 {
			t.Errorf("α=%d: bad eviction rate %.4f, expected ≪ 1", row.Alpha, row.BadEvictionRate.Mean)
		}
	}
}

func TestE3MaxLoadRespectsBound(t *testing.T) {
	res := E3MaxLoad(QuickConfig())
	for _, row := range res.Rows {
		noise := 3*0.03 + 0.01 // 3σ of a 200-trial Bernoulli + slack
		if row.Empirical > row.Bound+noise {
			t.Errorf("k=%d α=%d: empirical %.4f > bound %.4f", row.K, row.Alpha, row.Empirical, row.Bound)
		}
	}
}

func TestE4SaturationMeetsGuarantee(t *testing.T) {
	res := E4Saturated(QuickConfig())
	for _, row := range res.Rows {
		if row.SuccessFrac < row.GuaranteeLow-0.07 {
			t.Errorf("n=%d m=%d: success %.3f below floor %.3f",
				row.Bins, row.Balls, row.SuccessFrac, row.GuaranteeLow)
		}
		if row.MeanSat < row.Threshold {
			t.Errorf("n=%d m=%d: mean saturated %.1f below f/8=%.1f",
				row.Bins, row.Balls, row.MeanSat, row.Threshold)
		}
	}
}

func TestE5AdversaryShape(t *testing.T) {
	res := E5Adversary(QuickConfig())
	for _, row := range res.Rows {
		conservativeKind := row.Kind.Conservative()
		if conservativeKind && !row.ConservativeBaseline {
			t.Errorf("%v: conservative baseline floor violated", row.Kind)
		}
		if row.Kind == policy.LFUKind && row.ConservativeBaseline {
			t.Errorf("LFU baseline unexpectedly hit the conservative floor (it should not; see §3 discrepancy)")
		}
		// The adversary must hurt: for conservative policies at small α the
		// ratio must be clearly above 1, and it should grow as α shrinks.
		if conservativeKind && row.Alpha == 2 && row.Ratio.Mean < 2 {
			t.Errorf("%v α=2: ratio %.2f, adversary too weak", row.Kind, row.Ratio.Mean)
		}
	}
	// Ratio decreasing in α for LRU.
	get := func(alpha int) float64 {
		for _, row := range res.Rows {
			if row.Kind == policy.LRUKind && row.Alpha == alpha {
				return row.Ratio.Mean
			}
		}
		t.Fatalf("missing LRU α=%d row", alpha)
		return 0
	}
	if !(get(2) > get(8)) {
		t.Errorf("LRU adversary ratio should shrink with α: α2=%.2f α8=%.2f", get(2), get(8))
	}
}

func TestE6RegimesNotCompetitive(t *testing.T) {
	res := E6Regimes(QuickConfig())
	if len(res.Rows) != 3 {
		t.Fatalf("want 3 regimes, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.NotCompetitive {
			t.Errorf("regime %q: expected non-competitiveness (ratio %.2f vs c=%.1f)",
				row.Regime, row.Ratio.Mean, row.TargetC)
		}
	}
}

func TestE7E8RehashShape(t *testing.T) {
	res := E7E8Rehash(QuickConfig())
	long, short := res.MaxReps(), res.MinReps()

	noneShort, ok1 := res.RatioFor(core.RehashNone, short)
	noneLong, ok2 := res.RatioFor(core.RehashNone, long)
	ffLong, ok3 := res.RatioFor(core.RehashFullFlush, long)
	ifLong, ok4 := res.RatioFor(core.RehashIncremental, long)
	if !(ok1 && ok2 && ok3 && ok4) {
		t.Fatal("missing cells")
	}
	// Without rehashing the ratio grows with sequence length.
	if noneLong <= noneShort {
		t.Errorf("no-rehash ratio should grow with length: %.2f (t=%d) vs %.2f (t=%d)",
			noneShort, short, noneLong, long)
	}
	// Both rehashing variants beat no-rehash on long sequences...
	if ffLong >= noneLong || ifLong >= noneLong {
		t.Errorf("rehashing should win on long runs: none=%.2f ff=%.2f if=%.2f", noneLong, ffLong, ifLong)
	}
	// ...and match each other (same guarantee, Proposition 4).
	relDiff := (ffLong - ifLong) / ffLong
	if relDiff < 0 {
		relDiff = -relDiff
	}
	if relDiff > 0.35 {
		t.Errorf("FF and IF should be comparable: ff=%.2f if=%.2f", ffLong, ifLong)
	}
}

func TestE9VsOPTWithinBound(t *testing.T) {
	res := E9VsOPT(QuickConfig())
	for _, row := range res.Rows {
		// o(1) slack: allow 20% over the asymptotic bound at Quick scale.
		if row.Ratio.Mean > row.Bound*1.2 {
			t.Errorf("%s r=%.0f: ratio %.3f exceeds bound %.2f(+20%%)",
				row.Workload, row.R, row.Ratio.Mean, row.Bound)
		}
	}
}

func TestE10ClassificationConsistent(t *testing.T) {
	res := E10Stability(QuickConfig())
	if !res.AllConsistent() {
		for _, v := range res.Verdicts {
			if !v.Consistent() {
				t.Errorf("%v inconsistent", v.Kind)
			}
		}
	}
	if res.LFUConservativeDiscrepancy == nil {
		t.Error("expected the LFU conservativeness discrepancy witness")
	}
	// LRU, FIFO, clock must have no conservativeness witness.
	for _, k := range []policy.Kind{policy.LRUKind, policy.FIFOKind, policy.ClockKind} {
		if w := res.ConservativeWitnesses[k]; w != nil {
			t.Errorf("%v should be conservative, witness: %v", k, w)
		}
	}
}

func TestE11Proposition6(t *testing.T) {
	res := E11ReuseDist(QuickConfig())
	if res.StackWitness != nil {
		t.Errorf("R should be stack: %v", res.StackWitness)
	}
	if res.PaperReplayError != nil {
		t.Errorf("paper counterexample: %v", res.PaperReplayError)
	}
	if res.PaperWitness == nil {
		t.Error("missing paper witness")
	}
	if res.FamilyMonotoneWitness == nil {
		t.Error("reuse-distance family should fail monotonicity")
	}
}

func TestE12BeladyShape(t *testing.T) {
	res := E12Belady(QuickConfig())
	if res.ClassicFIFOCost3 != 9 || res.ClassicFIFOCost4 != 10 {
		t.Errorf("classic FIFO costs %d/%d, want 9/10", res.ClassicFIFOCost3, res.ClassicFIFOCost4)
	}
	if res.FIFOWitness == nil || res.ClockWitness == nil {
		t.Error("FIFO and clock should both show anomalies")
	}
	for kind, w := range res.StackAnomalies {
		if w != nil {
			t.Errorf("stack family %v showed an anomaly: %v", kind, w)
		}
	}
}

func TestE13ScheduleShape(t *testing.T) {
	res := E13AccessRehash(QuickConfig())
	// Find the largest reps value present.
	maxReps := 0
	for _, row := range res.Rows {
		if row.Reps > maxReps {
			maxReps = row.Reps
		}
	}
	missSched, ok1 := res.RatioFor("every 2k misses (paper)", maxReps)
	accessSched, ok2 := res.RatioFor("every 2k accesses (broken)", maxReps)
	if !ok1 || !ok2 {
		t.Fatal("missing schedule cells")
	}
	// The broken schedule must be much worse on long replays.
	if accessSched < 2*missSched {
		t.Errorf("access-schedule %.2f should be ≫ miss-schedule %.2f on long replays", accessSched, missSched)
	}
}

// TestE13StoreAutoNotBroken holds cached's -rehash-auto schedule to the
// fixed hash on every store stream: its mean ratio may be at most 5% worse.
// A period far below k's (16 misses), which keeps redrawing a hash that
// already serves the fixed set, fails it.
func TestE13StoreAutoNotBroken(t *testing.T) {
	type cell struct {
		stream string
		reps   int
	}
	fixed := map[cell]float64{}
	auto := map[cell]float64{}
	for _, row := range E13AccessRehash(QuickConfig()).Rows {
		switch row.Schedule {
		case storeFixed:
			fixed[cell{row.Stream, row.Reps}] = row.Ratio.Mean
		case storeAuto:
			auto[cell{row.Stream, row.Reps}] = row.Ratio.Mean
		}
	}
	if len(fixed) != 4 || len(auto) != len(fixed) {
		t.Fatalf("want 4 store streams under both schedules, got %d fixed and %d auto", len(fixed), len(auto))
	}
	for c, f := range fixed {
		if a := auto[c]; a > 1.05*f {
			t.Errorf("%s, %d passes: -rehash-auto ratio %.3f is more than 5%% above the fixed hash's %.3f", c.stream, c.reps, a, f)
		}
	}
}

func TestE14LRU2Wins(t *testing.T) {
	res := E14LRU2(QuickConfig())
	lru, ok1 := res.MissRatioFor(policy.LRUKind)
	lru2, ok2 := res.MissRatioFor(policy.LRU2Kind)
	if !ok1 || !ok2 {
		t.Fatal("missing rows")
	}
	if lru2 >= lru {
		t.Errorf("LRU-2 (%.4f) should beat LRU (%.4f) on scan-polluted workloads", lru2, lru)
	}
}

func TestTablesRender(t *testing.T) {
	cfg := QuickConfig()
	tables := []interface{ String() string }{
		E3MaxLoad(cfg).Table(),
		E4Saturated(cfg).Table(),
		E11ReuseDist(cfg).Table(),
		E12Belady(cfg).Table(),
	}
	for i, tb := range tables {
		s := tb.String()
		if !strings.Contains(s, "##") || len(s) < 40 {
			t.Errorf("table %d renders poorly:\n%s", i, s)
		}
	}
}
