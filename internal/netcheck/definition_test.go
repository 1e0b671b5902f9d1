package netcheck

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hypercube/internal/id"
	"hypercube/internal/table"
)

// definition38 is Definition 3.8 checked the slow way: for every entry
// it scans all members for the entry's desired suffix.
func definition38(p id.Params, tables map[id.ID]*table.Table) []Violation {
	var members []id.ID
	for x := range tables {
		members = append(members, x)
	}
	slices.SortFunc(members, id.ID.Compare)
	var out []Violation
	for _, x := range members {
		tbl := tables[x]
		for i := 0; i < p.D; i++ {
			for j := 0; j < p.B; j++ {
				want := tbl.DesiredSuffix(i, j)
				count := 0
				for _, y := range members {
					if y.HasSuffix(want) {
						count++
					}
				}
				got := tbl.Get(i, j)
				_, member := tables[got.ID]
				v := Violation{Node: x, Level: i, Digit: j}
				switch {
				case count > 0 && got.IsZero():
					v.Kind, v.Detail = FalseNegative, fmt.Sprintf("suffix %v exists in network (count %d) but entry empty", want, count)
				case count == 0 && !got.IsZero():
					v.Kind, v.Detail = FalsePositive, fmt.Sprintf("no member has suffix %v but entry holds %v", want, got.ID)
				case !got.IsZero() && !got.ID.HasSuffix(want):
					v.Kind, v.Detail = WrongSuffix, fmt.Sprintf("entry holds %v which lacks suffix %v", got.ID, want)
				case !got.IsZero() && !member:
					v.Kind, v.Detail = Ghost, fmt.Sprintf("entry holds %v which is not a network member", got.ID)
				default:
					continue
				}
				out = append(out, v)
			}
		}
	}
	return out
}

// TestCheckConsistencyMatchesDefinition corrupts small random consistent
// networks (b=4, d=4, n ≤ 60) in every way an entry can go wrong — an
// entry cleared, a member without the entry's suffix planted, a
// non-member planted, an entry filled whose suffix no member has — and
// requires CheckConsistency to return exactly what the brute-force
// checker does: the same kinds, in the same order, with the same text.
func TestCheckConsistencyMatchesDefinition(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	rng := rand.New(rand.NewSource(38))
	kinds := make(map[ViolationKind]int)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		members := make([]id.ID, 0, n)
		for len(members) < n {
			if x := id.Random(p, rng); !slices.Contains(members, x) {
				members = append(members, x)
			}
		}
		tables := buildConsistentIDs(p, members)
		corruptions := rng.Intn(6)
		for range corruptions {
			tbl := tables[members[rng.Intn(n)]]
			i, j := rng.Intn(p.D), rng.Intn(p.B)
			y := id.Random(p, rng)
			switch rng.Intn(4) {
			case 0: // clear the entry
				tbl.Set(i, j, table.Neighbor{})
				continue
			case 1: // a member, whatever its suffix
				y = members[rng.Intn(n)]
			case 2: // a random ID: a ghost unless it happens to be a member
			case 3: // an ID with the entry's suffix, a member or not
				for !tbl.Qualifies(i, j, y) {
					y = id.Random(p, rng)
				}
			}
			tbl.Set(i, j, table.Neighbor{ID: y, State: table.StateS})
		}
		got, want := CheckConsistency(p, tables), definition38(p, tables)
		if corruptions == 0 && len(want) != 0 {
			t.Fatalf("trial %d (n=%d): BuildConsistent built an inconsistent network: %v", trial, n, want[0])
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): CheckConsistency returned\n%v\nbrute force\n%v", trial, n, got, want)
		}
		for _, v := range got {
			kinds[v.Kind]++
		}
	}
	for _, k := range []ViolationKind{FalseNegative, FalsePositive, WrongSuffix, Ghost} {
		if kinds[k] == 0 {
			t.Errorf("no trial produced a %v violation", k)
		}
	}
	t.Logf("violations checked: %v", kinds)
}
