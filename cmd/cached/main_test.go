package main

import (
	"testing"

	"repro/internal/concurrent"
	"repro/internal/hashfn"
	"repro/internal/trace"
)

// knownSeedAttack is an attacker that assumes the node's seed is 1: it
// picks α+1 keys for each of half the sets of that seed's hash, 0.53 k
// keys that a fully associative LRU of k holds, and replays them read
// through (a miss is followed by a Put). Under the assumed hash each set
// cycles α+1 keys through α slots, so every GET misses. It returns the hit
// ratio after two passes of warm-up.
func knownSeedAttack(t *testing.T, c *concurrent.Cache, k, alpha int) float64 {
	t.Helper()
	sets := k / alpha
	h := hashfn.NewRandom(hashfn.NewSeedSequence(1).Next(), sets)
	per := make([]int, sets/2)
	keys := make([]uint64, 0, len(per)*(alpha+1))
	for x := uint64(0); len(keys) < cap(keys); x++ {
		if b := h.Bucket(trace.Item(x)); b < len(per) && per[b] <= alpha {
			per[b]++
			keys = append(keys, x)
		}
	}
	var hits, gets int
	for pass := 0; pass < 10; pass++ {
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
	return float64(hits) / float64(gets)
}

// TestKnownSeedAttacker builds the store as cached does with its default
// k, α and -seed 0, and runs the attacker against it: a secret seed holds
// about .98 of the attacker's keys. The control forces the seed to the
// attacker's guess, 1, the default before seeds were drawn at random, and
// must read 0; the first check reads the same if the default seed becomes
// known again.
func TestKnownSeedAttacker(t *testing.T) {
	const k, alpha = 1 << 16, 16
	attack := func(seed uint64) float64 {
		c, err := concurrent.New(concurrent.Config{Capacity: k, Alpha: alpha, Seed: hashSeed(seed)})
		if err != nil {
			t.Fatal(err)
		}
		return knownSeedAttack(t, c, k, alpha)
	}
	if r := attack(0); r < 0.95 {
		t.Errorf("default seed: the known-seed attacker held the hit ratio at %.4f, want ≥ 0.95", r)
	}
	if r := attack(1); r != 0 {
		t.Errorf("control, seed 1: the attacker's hit ratio is %.4f, want 0", r)
	}
}
