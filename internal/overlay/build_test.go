package overlay

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"hypercube/internal/id"
	"hypercube/internal/table"
)

// TestBuildDirectPinned pins what BuildDirect installs: a digest of
// every (owner, level, digit, occupant) and of every sorted reverse set,
// and the rng's next draw, so a faster builder must make the same
// tables from the same draws. Each reverse set must also be exactly the
// members whose tables hold that node, found by brute force.
func TestBuildDirectPinned(t *testing.T) {
	for _, tc := range []struct {
		p      id.Params
		n      int
		digest uint64
		next   int64
	}{
		{id.Params{B: 16, D: 4}, 512, 0x0ca9cceaa0151946, 3689937811653559352},
		{id.Params{B: 4, D: 6}, 300, 0xd670b477f438704d, 7417094978188070950},
	} {
		t.Run(fmt.Sprintf("b%d-d%d-n%d", tc.p.B, tc.p.D, tc.n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			members := RandomRefs(tc.p, tc.n, rng, nil)
			net := New(Config{Params: tc.p})
			net.BuildDirect(members, rng)
			next := rng.Int63()

			h := fnv.New64a()
			holders := make(map[id.ID][]id.ID, tc.n)
			for _, ref := range members {
				tbl, _ := net.TableOf(ref.ID)
				tbl.ForEach(func(level, digit int, nb table.Neighbor) {
					fmt.Fprintf(h, "%v %d %d %v\n", ref.ID, level, digit, nb.ID)
					if nb.ID != ref.ID && !slices.Contains(holders[nb.ID], ref.ID) {
						holders[nb.ID] = append(holders[nb.ID], ref.ID)
					}
				})
			}
			for _, ref := range members {
				m, _ := net.Machine(ref.ID)
				var got []id.ID
				for _, r := range m.ReverseNeighbors() {
					got = append(got, r.ID)
				}
				slices.SortFunc(got, id.ID.Compare)
				want := holders[ref.ID]
				slices.SortFunc(want, id.ID.Compare)
				if !slices.Equal(got, want) {
					t.Fatalf("reverse set of %v = %v, want the holders %v", ref.ID, got, want)
				}
				fmt.Fprintf(h, "%v <- %v\n", ref.ID, got)
			}
			if got := h.Sum64(); got != tc.digest || next != tc.next {
				t.Errorf("digest %#x, next draw %d; pinned %#x, %d", got, next, tc.digest, tc.next)
			}
		})
	}
}
