package concurrent

import (
	"fmt"
	"slices"
	"testing"
)

// TestReleaseModel holds the release function to its contract against the
// model: every value the cache stops holding — overwritten, evicted by an
// insert, force-evicted by a migration, deleted — is released exactly
// once, and a value a migration moves to its new bucket never is. The
// differential stream runs each step's releases against the model's and
// goes through at least one drained migration; then every remaining key
// is deleted, after which the released values are exactly the stored ones,
// each once.
func TestReleaseModel(t *testing.T) {
	for _, r := range []struct{ alpha, capacity int }{
		{2, 16},
		{16, 128},
		{scanMax + 1, 4 * (scanMax + 1)},
	} {
		t.Run(fmt.Sprintf("alpha=%d/k=%d", r.alpha, r.capacity), func(t *testing.T) {
			cfg := Config{Capacity: r.capacity, Alpha: r.alpha, Seed: 7}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := newModel(cfg)
			var got []interface{}
			c.SetRelease(func(v interface{}) { got = append(got, v) })
			// Every value the stream stores is its step number, so each is
			// stored at most once and a second release is a duplicate.
			stored := map[int]bool{}
			released := map[int]bool{}
			seen := 0
			after := func(step string) error {
				cached := ints(got[seen:])
				model := ints(m.released[seen:])
				if len(m.released) != len(got) || !slices.Equal(cached, model) {
					return fmt.Errorf("released %v, model %v", got[seen:], m.released[seen:])
				}
				for _, v := range cached {
					if released[v] {
						return fmt.Errorf("value %d released twice", v)
					}
					released[v] = true
				}
				seen = len(got)
				c.Entries(func(_ uint64, v interface{}) { stored[v.(int)] = true })
				return nil
			}
			runDifferential(t, c, m, cfg.Seed, after)
			for _, key := range c.Keys() {
				if !c.Delete(key) {
					t.Fatalf("Delete(%d) found nothing", key)
				}
			}
			for _, v := range ints(got[seen:]) {
				if released[v] {
					t.Fatalf("value %d released twice", v)
				}
				released[v] = true
			}
			for v := range stored {
				if !released[v] {
					t.Errorf("value %d was stored and never released", v)
				}
			}
			for v := range released {
				if !stored[v] {
					t.Errorf("value %d was released and never seen stored", v)
				}
			}
			t.Logf("released %d values: %+v; %d moves, %d drained migrations", len(released), m.rel, m.moves, m.migrations)
			if m.rel.overwrites == 0 || m.rel.evictions == 0 || m.rel.forced == 0 || m.rel.deletes == 0 || m.moves == 0 || m.migrations == 0 {
				t.Fatalf("stream exercised too little: %+v, %d moves, %d drained migrations", m.rel, m.moves, m.migrations)
			}
		})
	}
}

// ints sorts a step's released values, which the stream makes ints; the
// order within one step is the forced evictions' bucket order, which the
// model leaves to map iteration.
func ints(vs []interface{}) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = v.(int)
	}
	slices.Sort(out)
	return out
}
