package msg

import (
	"sync"
	"testing"

	"hypercube/internal/id"
	"hypercube/internal/table"
)

// TestBoxesEqualTheirLiterals: every shared box is the value its literal
// would box, values outside the table come back boxed anew and equal
// too, and asking for a shared one allocates nothing.
func TestBoxesEqualTheirLiterals(t *testing.T) {
	states := []table.State{table.StateT, table.StateS}
	for _, b := range []int{2, 16, 36} {
		for _, d := range []int{1, 8, 40} {
			p := id.Params{B: b, D: d}
			x := BoxesFor(p)
			if BoxesFor(p) != x {
				t.Fatalf("%+v: two tables for one space", p)
			}
			for level := -1; level <= d; level++ {
				if got := x.CpRst(level); got != Message(CpRst{Level: level}) {
					t.Fatalf("%+v: CpRst(%d) = %#v", p, level, got)
				}
				for digit := 0; digit < b; digit++ {
					for _, s := range append(states, 0) {
						if got, want := x.RvNghNoti(level, digit, s), Message(RvNghNoti{Level: level, Digit: digit, State: s}); got != want {
							t.Fatalf("%+v: RvNghNoti(%d,%d,%v) = %#v, want %#v", p, level, digit, s, got, want)
						}
						if got, want := x.RvNghNotiRly(level, digit, s), Message(RvNghNotiRly{Level: level, Digit: digit, State: s}); got != want {
							t.Fatalf("%+v: RvNghNotiRly(%d,%d,%v) = %#v, want %#v", p, level, digit, s, got, want)
						}
					}
				}
			}
			var sink Message
			if n := testing.AllocsPerRun(10, func() {
				sink = x.RvNghNoti(d-1, b-1, table.StateS)
				sink = x.RvNghNotiRly(0, 0, table.StateT)
				sink = x.CpRst(d - 1)
			}); n != 0 {
				t.Errorf("%+v: a shared box cost %v allocations", p, n)
			}
			_ = sink
		}
	}
}

// TestBoxesForIsOnePerSpace: goroutines asking for one space at once all
// get the same table (run under -race).
func TestBoxesForIsOnePerSpace(t *testing.T) {
	p := id.Params{B: 7, D: 13} // a space no other test asks for
	got := make([]*Boxes, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = BoxesFor(p)
		}()
	}
	wg.Wait()
	for i, x := range got {
		if x != got[0] {
			t.Fatalf("goroutine %d got another table", i)
		}
	}
}
