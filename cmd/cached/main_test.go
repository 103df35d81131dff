package main

import (
	"testing"

	"repro/internal/concurrent"
	"repro/internal/hashfn"
	"repro/internal/trace"
)

// knownSeedAttack is an attacker that assumes the node's seed is 1 and
// follows the seed sequence that seed starts. For the hash it believes the
// store uses, it picks α+1 keys for each of half the sets, 0.53 k keys that
// a fully associative LRU of k holds, and replays them read through (a
// miss is followed by a Put). Under that hash each set cycles α+1 keys
// through α slots, so every GET misses. Before each pass it reads the
// store's rehash count, as a client reading METRICS REHASHES can, and for
// each rehash it has not seen yet it steps to the sequence's next seed and
// rebuilds its keys. It returns the hit ratio after two passes of warm-up
// and the number of rehashes it followed.
func knownSeedAttack(c *concurrent.Cache, k, alpha, passes int) (float64, uint64) {
	sets := k / alpha
	seeds := hashfn.NewSeedSequence(1)
	keysFor := func(seed uint64) []uint64 {
		h := hashfn.NewRandom(seed, sets)
		per := make([]int, sets/2)
		keys := make([]uint64, 0, len(per)*(alpha+1))
		for x := uint64(0); len(keys) < cap(keys); x++ {
			if b := h.Bucket(trace.Item(x)); b < len(per) && per[b] <= alpha {
				per[b]++
				keys = append(keys, x)
			}
		}
		return keys
	}
	keys := keysFor(seeds.Next())
	var seen uint64
	var hits, gets int
	for pass := 0; pass < passes; pass++ {
		if n := c.Snapshot().Rehashes; n > seen {
			var seed uint64
			for ; seen < n; seen++ {
				seed = seeds.Next()
			}
			keys = keysFor(seed)
		}
		for _, x := range keys {
			_, ok := c.Get(x)
			if !ok {
				c.Put(x, x)
			}
			if pass >= 2 {
				gets++
				if ok {
					hits++
				}
			}
		}
	}
	return float64(hits) / float64(gets), seen
}

// TestKnownSeedAttacker builds the store as cached does with -seed 0 and
// runs the attacker against it: a secret seed holds about .98 of the
// attacker's keys. The control forces the seed to the attacker's guess, 1,
// the default before seeds were drawn at random; the first check reads the
// same as the control if the default seed becomes known again.
//
// Two stores: cached's default k, α and fixed hash, where the control
// reads 0; and a k = 4096 store under -rehash-auto's schedule, against
// which the attacker follows every rehash the schedule starts. There the
// control must stay near 0 across at least 3 rehashes: the miss-count
// schedule alone does not defend a hash whose seed sequence is known.
func TestKnownSeedAttacker(t *testing.T) {
	const alpha = 16
	for _, tc := range []struct {
		name        string
		k, passes   int
		every       uint64
		maxControl  float64
		minRehashes uint64
	}{
		{"fixed hash", 1 << 16, 10, 0, 0, 0},
		{"-rehash-auto", 1 << 12, 200, concurrent.DefaultEveryMisses(1 << 12), 0.05, 3},
	} {
		attack := func(seed uint64) (float64, uint64) {
			c, err := concurrent.New(concurrent.Config{
				Capacity: tc.k, Alpha: alpha, Seed: hashSeed(seed), RehashEveryMisses: tc.every,
			})
			if err != nil {
				t.Fatal(err)
			}
			return knownSeedAttack(c, tc.k, alpha, tc.passes)
		}
		if r, n := attack(0); r < 0.95 {
			t.Errorf("%s, default seed: the known-seed attacker held the hit ratio at %.4f across %d rehashes, want ≥ 0.95", tc.name, r, n)
		}
		if r, n := attack(1); r > tc.maxControl || n < tc.minRehashes {
			t.Errorf("%s, control, seed 1: the attacker's hit ratio is %.4f across %d rehashes, want ≤ %.2f across ≥ %d", tc.name, r, n, tc.maxControl, tc.minRehashes)
		}
	}
}
