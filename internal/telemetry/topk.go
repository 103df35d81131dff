package telemetry

import (
	"sort"
	"sync"
)

// DefaultTopKCapacity is the total entry capacity of a TopK built by
// NewTopK when asked for capacity 0.
const DefaultTopKCapacity = 512

// topKStripes is the lock-stripe count: keys hash to a stripe, each an
// independent space-saving sketch over its substream, so concurrent
// connection goroutines rarely contend on one mutex.
const topKStripes = 8

// TopK is a space-saving heavy-hitters sketch: it tracks an approximate
// top-K of the keys fed to Record using bounded memory, with the classic
// guarantees, which carry over to weighted updates (Metwally, Agrawal &
// El Abbadi, ICDT 2005) — a tracked key's Count never undercounts the
// weight recorded for it and overcounts by at most its Err, and any key
// whose recorded weight exceeds N/K (per stripe, N the total weight) is
// tracked. Record is allocation-free and lock-striped; the sketch feeds
// the METRICS HOTKEYS section, one instance per op class, so "which keys
// are hot" is answerable per node and — because snapshots merge — per
// cluster. The server records a sampled stream (Sampler, weight
// SampleWeight), so its counts estimate occurrences within SampleSlack
// on top of Err.
//
// Keys are opaque uint64s: the server feeds HashKey-scrambled keys so the
// sketch, like the slow-op log, never retains raw keys.
type TopK struct {
	stripes [topKStripes]topKStripe
}

type topKStripe struct {
	mu     sync.Mutex
	keys   []uint64
	counts []uint64
	errs   []uint64
	used   int
	minCnt uint64 // lower bound on the smallest count once full
	// idx is an open-addressing index over keys: 0 empty, -1 tombstone,
	// else slot+1. Tombstones from evictions are reclaimed by an in-place
	// rebuild, so the sketch never allocates after construction.
	idx   []int32
	mask  uint32
	tombs int
}

// NewTopK builds a sketch tracking up to capacity keys in total across
// its stripes (DefaultTopKCapacity when capacity ≤ 0).
func NewTopK(capacity int) *TopK {
	if capacity <= 0 {
		capacity = DefaultTopKCapacity
	}
	per := (capacity + topKStripes - 1) / topKStripes
	if per < 1 {
		per = 1
	}
	idxSize := 4
	for idxSize < 2*per {
		idxSize <<= 1
	}
	t := &TopK{}
	for i := range t.stripes {
		s := &t.stripes[i]
		s.keys = make([]uint64, per)
		s.counts = make([]uint64, per)
		s.errs = make([]uint64, per)
		s.idx = make([]int32, idxSize)
		s.mask = uint32(idxSize - 1)
	}
	return t
}

// Cap returns the total entry capacity across stripes.
func (t *TopK) Cap() int {
	n := 0
	for i := range t.stripes {
		n += len(t.stripes[i].keys)
	}
	return n
}

// Record counts weight occurrences of key: 1 for an exact stream,
// SampleWeight for an event a Sampler took. It takes one stripe mutex and
// performs no allocation; the common case (key already tracked) is one
// index probe and an add.
func (t *TopK) Record(key, weight uint64) {
	h := HashKey(key)
	s := &t.stripes[h>>(64-3)]
	hh := uint32(h)
	s.mu.Lock()
	if s.tombs > len(s.idx)/4 {
		s.rebuild()
	}
	if slot := s.find(key, hh); slot >= 0 {
		s.counts[slot] += weight
	} else if s.used < len(s.keys) {
		slot = s.used
		s.used++
		s.keys[slot] = key
		s.counts[slot] = weight
		s.errs[slot] = 0
		s.insert(hh, slot)
	} else {
		// Space-saving replacement: the new key inherits the minimum
		// count as its error bound and evicts that minimum's owner.
		slot = s.argMin()
		min := s.counts[slot]
		s.del(uint32(HashKey(s.keys[slot])), slot)
		s.keys[slot] = key
		s.errs[slot] = min
		s.counts[slot] = min + weight
		s.insert(hh, slot)
	}
	s.mu.Unlock()
}

// find returns the slot tracking key, or -1.
func (s *topKStripe) find(key uint64, h uint32) int {
	i := h & s.mask
	for {
		v := s.idx[i]
		if v == 0 {
			return -1
		}
		if v > 0 && s.keys[v-1] == key {
			return int(v - 1)
		}
		i = (i + 1) & s.mask
	}
}

// insert places slot into the index; the caller guarantees key is absent.
func (s *topKStripe) insert(h uint32, slot int) {
	i := h & s.mask
	for {
		v := s.idx[i]
		if v <= 0 {
			if v == -1 {
				s.tombs--
			}
			s.idx[i] = int32(slot + 1)
			return
		}
		i = (i + 1) & s.mask
	}
}

// del tombstones the index entry pointing at slot, probing from h (the
// evicted key's hash, so the probe follows the chain insert used).
func (s *topKStripe) del(h uint32, slot int) {
	i := h & s.mask
	for {
		if s.idx[i] == int32(slot+1) {
			s.idx[i] = -1
			s.tombs++
			return
		}
		i = (i + 1) & s.mask
	}
}

// rebuild re-indexes every tracked key in place, dropping tombstones. It
// runs O(capacity) work amortized over the O(capacity/4) deletions that
// accumulated the tombstones, and touches only preallocated arrays.
func (s *topKStripe) rebuild() {
	for i := range s.idx {
		s.idx[i] = 0
	}
	s.tombs = 0
	for slot := 0; slot < s.used; slot++ {
		h := uint32(HashKey(s.keys[slot]))
		i := h & s.mask
		for s.idx[i] != 0 {
			i = (i + 1) & s.mask
		}
		s.idx[i] = int32(slot + 1)
	}
}

// argMin returns the slot with the smallest count. A cached lower bound
// lets the scan stop at the first slot matching it, so on heavy-tailed
// streams — where many slots sit at the minimum — eviction is far cheaper
// than a full scan.
func (s *topKStripe) argMin() int {
	best, bestC := 0, s.counts[0]
	for i := 1; i < len(s.counts) && bestC > s.minCnt; i++ {
		if s.counts[i] < bestC {
			best, bestC = i, s.counts[i]
		}
	}
	s.minCnt = bestC
	return best
}

// TopKEntry is one tracked key in a snapshot. Count obeys the
// space-saving bounds: Count−Err ≤ recorded weight ≤ Count.
type TopKEntry struct {
	// Key is the key as recorded (scrambled by the server before
	// recording, so it joins against slow-op and span key hashes).
	Key uint64
	// Count is the tracked weight (an overestimate of the weight recorded).
	Count uint64
	// Err is the maximum overestimation: the minimum count the entry
	// inherited when it displaced another key.
	Err uint64
}

// TopKSnapshot is a point-in-time copy of a TopK, sorted by Count
// descending (ties by Key ascending — a total order, so equal snapshots
// compare equal and Merge is associative).
type TopKSnapshot []TopKEntry

// Snapshot copies the sketch's tracked entries, sorted hottest first.
func (t *TopK) Snapshot() TopKSnapshot {
	var out TopKSnapshot
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		for j := 0; j < s.used; j++ {
			out = append(out, TopKEntry{Key: s.keys[j], Count: s.counts[j], Err: s.errs[j]})
		}
		s.mu.Unlock()
	}
	out.sortCanonical()
	return out
}

// Merge combines two snapshots into a new one: counts and error bounds
// of shared keys add, disjoint keys carry over. No truncation happens
// here — the union stays a valid sketch of the combined stream and keeps
// Merge associative and commutative (the property the cluster aggregate
// relies on); trim for display with Top.
func (s TopKSnapshot) Merge(o TopKSnapshot) TopKSnapshot {
	by := make(map[uint64]TopKEntry, len(s)+len(o))
	for _, e := range s {
		by[e.Key] = e
	}
	for _, e := range o {
		if prev, ok := by[e.Key]; ok {
			e.Count += prev.Count
			e.Err += prev.Err
		}
		by[e.Key] = e
	}
	out := make(TopKSnapshot, 0, len(by))
	for _, e := range by {
		out = append(out, e)
	}
	out.sortCanonical()
	return out
}

// Top returns the hottest n entries (fewer if the snapshot is smaller).
func (s TopKSnapshot) Top(n int) TopKSnapshot {
	if n > len(s) {
		n = len(s)
	}
	return s[:n]
}

func (s TopKSnapshot) sortCanonical() {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Count != s[j].Count {
			return s[i].Count > s[j].Count
		}
		return s[i].Key < s[j].Key
	})
}
