package concurrent

import "testing"

func TestDefaultEveryMisses(t *testing.T) {
	cases := []struct {
		k    int
		want uint64
	}{
		{1, 1},
		{2, 2},        // log₂ 2 = 1
		{1024, 10240}, // 1024 · 10
		{1 << 16, 16 << 16},
		{1000, 10000}, // ⌈log₂ 1000⌉ = 10
	}
	for _, c := range cases {
		if got := DefaultEveryMisses(c.k); got != c.want {
			t.Errorf("DefaultEveryMisses(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}
