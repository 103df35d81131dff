package server

import (
	"sync"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestHotKeyAttributionSurvivesSampling drives streams with exact ground
// truth through a real server and holds its sampled GET sketch to the
// documented bound (checkHotClass): the true hottest key ranks first and
// every top-10 count brackets its true count within Err plus
// telemetry.SampleSlack.
//
// The Zipf case splits one seeded stream over four connections, so four
// independently seeded samplers feed one sketch. The periodic case sends a
// fixed 16-key batch 10,000 times down one connection: a sampler that took
// every 16th request would see one key of the batch and none of the other
// fifteen, so every key must show up, each within its bound.
func TestHotKeyAttributionSurvivesSampling(t *testing.T) {
	// drive sends keys as 16-deep GET batches over conns connections to a
	// fresh server, checks its GET class against the exact counts, and
	// returns the class.
	drive := func(t *testing.T, conns int, keys []uint64) telemetry.TopKSnapshot {
		t.Helper()
		_, addr := startServer(t, concurrent.Config{Capacity: 1 << 14, Alpha: 16, Seed: 1})
		exact := make(map[uint64]uint64)
		for _, k := range keys {
			exact[telemetry.HashKey(k)]++
		}
		var wg sync.WaitGroup
		errs := make(chan error, conns)
		per := (len(keys) + conns - 1) / conns
		for lo := 0; lo < len(keys); lo += per {
			part := keys[lo:min(lo+per, len(keys))]
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := wire.Dial(addr)
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				for b := 0; b < len(part); b += 16 {
					if err := c.GetBatch(part[b:min(b+16, len(part))], func(int, bool, []byte) {}); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		m, err := c.Metrics(wire.MetricsHotKeys)
		if err != nil {
			t.Fatal(err)
		}
		checkHotClass(t, "GET", m.HotClass(wire.HotGet), exact)
		return m.HotClass(wire.HotGet)
	}

	t.Run("zipf", func(t *testing.T) {
		seq := workload.Zipf{Universe: 1 << 14, S: 0.99, Shuffle: true}.Generate(200_000, 1)
		keys := make([]uint64, len(seq))
		for i, k := range seq {
			keys[i] = uint64(k)
		}
		drive(t, 4, keys)
	})
	t.Run("periodic16", func(t *testing.T) {
		const period, rounds = 16, 10_000
		keys := make([]uint64, 0, period*rounds)
		for r := 0; r < rounds; r++ {
			for k := uint64(0); k < period; k++ {
				keys = append(keys, 1000+k)
			}
		}
		if got := drive(t, 1, keys); len(got) != period {
			t.Errorf("GET class tracks %d keys of the repeated %d-key batch, want all %d", len(got), period, period)
		}
	})
}
