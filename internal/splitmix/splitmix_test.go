package splitmix

import "testing"

// TestKnownAnswers pins the first outputs for a few seeds. They were
// taken from the four copies this package replaced (trace, sampling,
// nemesis, oracle), which agreed; seed 0's first output is also the
// reference implementation's.
func TestKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		next [4]uint64
		intn [4]int // Intn(7), Intn(1000), Intn(7), Intn(1000) from a fresh stream
	}{
		{0, [4]uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec}, [4]int{2, 700, 2, 444}},
		{1, [4]uint64{0x910a2dec89025cc1, 0xbeeb8da1658eec67, 0xf893a2eefb32555e, 0x71c18690ee42c90b}, [4]int{2, 519, 1, 235}},
		{42, [4]uint64{0xbdd732262feb6e95, 0x28efe333b266f103, 0x47526757130f9f52, 0x581ce1ff0e4ae394}, [4]int{5, 291, 0, 764}},
		{0xdeadbeefcafef00d, [4]uint64{0x901d4f652fb472cb, 0xa7ce246440f74527, 0x19b40bbbb9380d34, 0xe7a86dc5be618392}, [4]int{0, 903, 2, 34}},
	} {
		s := New(c.seed)
		for i, want := range c.next {
			if got := s.Next(); got != want {
				t.Errorf("seed %#x: output %d = %#016x, want %#016x", c.seed, i, got, want)
			}
		}
		s = New(c.seed)
		for i, want := range c.intn {
			if got := s.Intn([]int{7, 1000}[i%2]); got != want {
				t.Errorf("seed %#x: Intn draw %d = %d, want %d", c.seed, i, got, want)
			}
		}
	}
	var zero Stream
	if got := zero.Next(); got != 0xe220a8397b1dcdaf {
		t.Errorf("zero Stream's first output = %#016x, want seed 0's", got)
	}
	if got := zero.Intn(0); got != 0 {
		t.Errorf("Intn(0) = %d, want 0", got)
	}
}
