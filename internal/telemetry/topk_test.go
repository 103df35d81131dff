package telemetry

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// zipfStream draws n keys from a zipf distribution over [0, universe) and
// feeds them both to the sketch (scrambled, as the server does) and to an
// exact counter, returning the exact counts keyed by scrambled key.
func zipfStream(t *TopK, n, universe int, seed int64) map[uint64]uint64 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(universe-1))
	exact := make(map[uint64]uint64)
	for i := 0; i < n; i++ {
		k := HashKey(z.Uint64())
		exact[k]++
		if t != nil {
			t.Record(k, 1)
		}
	}
	return exact
}

// TestTopKBoundedError is the satellite-required property test: on zipf
// input every tracked key obeys the space-saving bounds
// (Count−Err ≤ true ≤ Count), the error never exceeds the per-stripe N/K
// guarantee, and the genuinely hottest key is both tracked and ranked
// first.
func TestTopKBoundedError(t *testing.T) {
	const n, universe = 200000, 100000
	sk := NewTopK(256)
	exact := zipfStream(sk, n, universe, 1)

	snap := sk.Snapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot after 200k records")
	}
	for _, e := range snap {
		true_ := exact[e.Key]
		if e.Count < true_ {
			t.Errorf("key %x: Count %d undercounts true %d", e.Key, e.Count, true_)
		}
		if e.Count-e.Err > true_ {
			t.Errorf("key %x: Count−Err = %d exceeds true %d (bound violated)", e.Key, e.Count-e.Err, true_)
		}
	}
	// Per-stripe guarantee: Err ≤ N_stripe/K_stripe ≤ N/(K/stripes) — use
	// the loose whole-stream bound, which must still hold.
	perStripeCap := sk.Cap() / topKStripes
	for _, e := range snap {
		if e.Err > uint64(n/perStripeCap) {
			t.Errorf("key %x: Err %d exceeds N/K bound %d", e.Key, e.Err, n/perStripeCap)
		}
	}
	// The true hottest key must be tracked and ranked first: its count
	// under zipf(1.2) is far above any bound slack.
	var hotKey, hotCnt uint64
	for k, c := range exact {
		if c > hotCnt {
			hotKey, hotCnt = k, c
		}
	}
	if snap[0].Key != hotKey {
		t.Errorf("hottest key %x (true count %d) not ranked first; got %x (Count %d)",
			hotKey, hotCnt, snap[0].Key, snap[0].Count)
	}
}

// TestTopKMergeAssociative pins the aggregate property the cluster relies
// on: merging per-node snapshots is associative and commutative, so the
// router may fold nodes in any order.
func TestTopKMergeAssociative(t *testing.T) {
	sks := make([]TopKSnapshot, 3)
	for i := range sks {
		sk := NewTopK(64)
		zipfStream(sk, 30000, 5000, int64(10+i))
		sks[i] = sk.Snapshot()
	}
	a, b, c := sks[0], sks[1], sks[2]
	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	if len(left) != len(right) {
		t.Fatalf("associativity: %d vs %d entries", len(left), len(right))
	}
	for i := range left {
		if left[i] != right[i] {
			t.Fatalf("associativity broken at %d: %+v vs %+v", i, left[i], right[i])
		}
	}
	ab, ba := a.Merge(b), b.Merge(a)
	for i := range ab {
		if ab[i] != ba[i] {
			t.Fatalf("commutativity broken at %d: %+v vs %+v", i, ab[i], ba[i])
		}
	}
	// Merged counts must equal the sum of the parts for shared keys.
	want := make(map[uint64]uint64)
	for _, s := range sks {
		for _, e := range s {
			want[e.Key] += e.Count
		}
	}
	for _, e := range left {
		if e.Count != want[e.Key] {
			t.Fatalf("merged count for %x = %d, want %d", e.Key, e.Count, want[e.Key])
		}
	}
}

// TestTopKEviction forces heavy replacement through a tiny sketch and
// checks the index stays consistent (every tracked key findable, ranking
// sane) after the tombstone-rebuild cycles that churn provokes.
func TestTopKEviction(t *testing.T) {
	sk := NewTopK(16)
	rng := rand.New(rand.NewSource(7))
	const hot = uint64(0xdeadbeef)
	for i := 0; i < 100000; i++ {
		if i%4 == 0 {
			sk.Record(hot, 1)
		} else {
			sk.Record(rng.Uint64(), 1) // one-off churn keys
		}
	}
	snap := sk.Snapshot()
	if got := sk.Cap(); len(snap) > got {
		t.Fatalf("snapshot has %d entries, capacity %d", len(snap), got)
	}
	if snap[0].Key != hot {
		t.Fatalf("hot key not ranked first after churn: got %x count=%d", snap[0].Key, snap[0].Count)
	}
	if snap[0].Count < 25000 {
		t.Fatalf("hot key count %d, want ≥ its 25000 true occurrences", snap[0].Count)
	}
}

// TestTopKConcurrent is the -race exercise across stripes.
func TestTopKConcurrent(t *testing.T) {
	sk := NewTopK(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20000; i++ {
				sk.Record(rng.Uint64()%1000, 1)
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			sk.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	var total uint64
	for _, e := range sk.Snapshot() {
		total += e.Count
	}
	if total == 0 {
		t.Fatal("concurrent records all lost")
	}
}

// TestTopKZeroAllocs pins the sketch's hot path: recording — tracked key
// or eviction, unit or sampled weight — and the sampling decision in front
// of it must not allocate (the tracing-off GET path feeds every request
// through the Sampler and every taken one through Record).
func TestTopKZeroAllocs(t *testing.T) {
	sk := NewTopK(64)
	var i uint64
	if n := testing.AllocsPerRun(5000, func() { i++; sk.Record(i, 1) }); n != 0 {
		t.Fatalf("TopK.Record (evicting) allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(5000, func() { sk.Record(42, 1) }); n != 0 {
		t.Fatalf("TopK.Record (tracked) allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(5000, func() { i++; sk.Record(i, SampleWeight) }); n != 0 {
		t.Fatalf("TopK.Record (weighted, evicting) allocates %.1f/op, want 0", n)
	}
	smp := NewSampler(1)
	if n := testing.AllocsPerRun(5000, func() {
		if smp.Take() {
			sk.Record(42, SampleWeight)
		}
	}); n != 0 {
		t.Fatalf("Sampler.Take + weighted Record allocates %.1f/op, want 0", n)
	}
}

// TestTopKWeightedBounds: weighted updates keep the space-saving bounds
// against the weight recorded per key, through evictions.
func TestTopKWeightedBounds(t *testing.T) {
	sk := NewTopK(64)
	rng := rand.New(rand.NewSource(3))
	z := rand.NewZipf(rng, 1.1, 1, 4999)
	exact := make(map[uint64]uint64)
	for i := 0; i < 100000; i++ {
		k, w := HashKey(z.Uint64()), uint64(1+rng.Intn(SampleWeight))
		exact[k] += w
		sk.Record(k, w)
	}
	for _, e := range sk.Snapshot() {
		if e.Count < exact[e.Key] || e.Count-e.Err > exact[e.Key] {
			t.Errorf("key %x: Count %d Err %d, recorded weight %d outside [Count−Err, Count]", e.Key, e.Count, e.Err, exact[e.Key])
		}
	}
}

// TestSamplerRateAndSlack checks the sampler against the bound the sketch
// documents: over n events the weighted count of taken ones is within
// SampleSlack(n) of n — for the whole stream, and for every residue class
// of a period-16 stream, which is where every-Nth counting would put all
// its samples on one class and none on the others.
func TestSamplerRateAndSlack(t *testing.T) {
	const period, rounds = 16, 20000
	s := NewSampler(7)
	var per [period]uint64
	for i := 0; i < period*rounds; i++ {
		if s.Take() {
			per[i%period] += SampleWeight
		}
	}
	var total uint64
	for class, w := range per {
		total += w
		if d := math.Abs(float64(w) - rounds); d > SampleSlack(rounds) {
			t.Errorf("class %d of a period-%d stream: weighted count %d, want %d ± %.0f", class, period, w, rounds, SampleSlack(rounds))
		}
	}
	if n := uint64(period * rounds); math.Abs(float64(total)-float64(n)) > SampleSlack(n) {
		t.Errorf("weighted count %d over %d events, want within ±%.0f", total, n, SampleSlack(n))
	}
	// Two seeds must not make the same choices.
	a, b := NewSampler(1), NewSampler(2)
	same := 0
	for i := 0; i < 4096; i++ {
		if a.Take() == b.Take() {
			same++
		}
	}
	if same == 4096 {
		t.Error("samplers with distinct seeds made identical choices")
	}
}
