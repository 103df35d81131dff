package hashfn

import (
	"testing"

	"repro/internal/trace"
)

// TestRandomBucketGolden pins Random.Bucket's placement. The rows were
// computed with the four-multiply mul64 this package used before it
// switched to math/bits.Mul64; bucket and ring placement decide hit ratios
// and owner shares downstream, so a change to Mix64 or to the range
// reduction must show up here and not as a shifted benchmark row.
func TestRandomBucketGolden(t *testing.T) {
	golden := []struct {
		seed uint64
		n    int
		x    uint64
		want int
	}{
		{0x0, 2, 0x0, 0},
		{0x0, 2, 0x1, 0},
		{0x0, 2, 0xdeadbeef, 0},
		{0x0, 2, 0x8000000000003039, 0},
		{0x0, 2, 0xffffffffffffffff, 1},
		{0x0, 3, 0x0, 0},
		{0x0, 3, 0x1, 1},
		{0x0, 3, 0xdeadbeef, 0},
		{0x0, 3, 0x8000000000003039, 1},
		{0x0, 3, 0xffffffffffffffff, 2},
		{0x0, 2048, 0x0, 0},
		{0x0, 2048, 0x1, 692},
		{0x0, 2048, 0xdeadbeef, 624},
		{0x0, 2048, 0x8000000000003039, 787},
		{0x0, 2048, 0xffffffffffffffff, 1446},
		{0x0, 32768, 0x0, 0},
		{0x0, 32768, 0x1, 11081},
		{0x0, 32768, 0xdeadbeef, 9987},
		{0x0, 32768, 0x8000000000003039, 12600},
		{0x0, 32768, 0xffffffffffffffff, 23144},
		{0x0, 2147483647, 0x0, 0},
		{0x0, 2147483647, 0x1, 726207246},
		{0x0, 2147483647, 0xdeadbeef, 654513025},
		{0x0, 2147483647, 0x8000000000003039, 825817441},
		{0x0, 2147483647, 0xffffffffffffffff, 1516776189},
		{0x1, 2, 0x0, 0},
		{0x1, 2, 0x1, 0},
		{0x1, 2, 0xdeadbeef, 1},
		{0x1, 2, 0x8000000000003039, 0},
		{0x1, 2, 0xffffffffffffffff, 1},
		{0x1, 3, 0x0, 1},
		{0x1, 3, 0x1, 0},
		{0x1, 3, 0xdeadbeef, 2},
		{0x1, 3, 0x8000000000003039, 0},
		{0x1, 3, 0xffffffffffffffff, 2},
		{0x1, 2048, 0x0, 692},
		{0x1, 2048, 0x1, 0},
		{0x1, 2048, 0xdeadbeef, 1531},
		{0x1, 2048, 0x8000000000003039, 547},
		{0x1, 2048, 0xffffffffffffffff, 1745},
		{0x1, 32768, 0x0, 11081},
		{0x1, 32768, 0x1, 0},
		{0x1, 32768, 0xdeadbeef, 24505},
		{0x1, 32768, 0x8000000000003039, 8756},
		{0x1, 32768, 0xffffffffffffffff, 27923},
		{0x1, 2147483647, 0x0, 726207246},
		{0x1, 2147483647, 0x1, 0},
		{0x1, 2147483647, 0xdeadbeef, 1605977668},
		{0x1, 2147483647, 0x8000000000003039, 573865140},
		{0x1, 2147483647, 0xffffffffffffffff, 1829991062},
		{0x2a, 2, 0x0, 1},
		{0x2a, 2, 0x1, 0},
		{0x2a, 2, 0xdeadbeef, 1},
		{0x2a, 2, 0x8000000000003039, 1},
		{0x2a, 2, 0xffffffffffffffff, 0},
		{0x2a, 3, 0x0, 1},
		{0x2a, 3, 0x1, 0},
		{0x2a, 3, 0xdeadbeef, 2},
		{0x2a, 3, 0x8000000000003039, 2},
		{0x2a, 3, 0xffffffffffffffff, 0},
		{0x2a, 2048, 0x0, 1338},
		{0x2a, 2048, 0x1, 632},
		{0x2a, 2048, 0xdeadbeef, 1940},
		{0x2a, 2048, 0x8000000000003039, 1869},
		{0x2a, 2048, 0xffffffffffffffff, 150},
		{0x2a, 32768, 0x0, 21420},
		{0x2a, 32768, 0x1, 10117},
		{0x2a, 32768, 0xdeadbeef, 31044},
		{0x2a, 32768, 0x8000000000003039, 29911},
		{0x2a, 32768, 0xffffffffffffffff, 2407},
		{0x2a, 2147483647, 0x0, 1403843859},
		{0x2a, 2147483647, 0x1, 663040236},
		{0x2a, 2147483647, 0xdeadbeef, 2034501086},
		{0x2a, 2147483647, 0x8000000000003039, 1960254753},
		{0x2a, 2147483647, 0xffffffffffffffff, 157750586},
		{0x9e3779b97f4a7c15, 2, 0x0, 1},
		{0x9e3779b97f4a7c15, 2, 0x1, 1},
		{0x9e3779b97f4a7c15, 2, 0xdeadbeef, 0},
		{0x9e3779b97f4a7c15, 2, 0x8000000000003039, 0},
		{0x9e3779b97f4a7c15, 2, 0xffffffffffffffff, 1},
		{0x9e3779b97f4a7c15, 3, 0x0, 2},
		{0x9e3779b97f4a7c15, 3, 0x1, 2},
		{0x9e3779b97f4a7c15, 3, 0xdeadbeef, 0},
		{0x9e3779b97f4a7c15, 3, 0x8000000000003039, 0},
		{0x9e3779b97f4a7c15, 3, 0xffffffffffffffff, 2},
		{0x9e3779b97f4a7c15, 2048, 0x0, 1809},
		{0x9e3779b97f4a7c15, 2048, 0x1, 1830},
		{0x9e3779b97f4a7c15, 2048, 0xdeadbeef, 488},
		{0x9e3779b97f4a7c15, 2048, 0x8000000000003039, 645},
		{0x9e3779b97f4a7c15, 2048, 0xffffffffffffffff, 1776},
		{0x9e3779b97f4a7c15, 32768, 0x0, 28944},
		{0x9e3779b97f4a7c15, 32768, 0x1, 29292},
		{0x9e3779b97f4a7c15, 32768, 0xdeadbeef, 7812},
		{0x9e3779b97f4a7c15, 32768, 0x8000000000003039, 10323},
		{0x9e3779b97f4a7c15, 32768, 0xffffffffffffffff, 28421},
		{0x9e3779b97f4a7c15, 2147483647, 0x0, 1896895515},
		{0x9e3779b97f4a7c15, 2147483647, 0x1, 1919727802},
		{0x9e3779b97f4a7c15, 2147483647, 0xdeadbeef, 512011567},
		{0x9e3779b97f4a7c15, 2147483647, 0x8000000000003039, 676542664},
		{0x9e3779b97f4a7c15, 2147483647, 0xffffffffffffffff, 1862609701},
	}
	for _, g := range golden {
		if got := NewRandom(g.seed, g.n).Bucket(trace.Item(g.x)); got != g.want {
			t.Errorf("NewRandom(%#x, %d).Bucket(%#x) = %d, want %d", g.seed, g.n, g.x, got, g.want)
		}
	}
}
