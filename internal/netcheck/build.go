package netcheck

import (
	"math/rand"

	"hypercube/internal/id"
	"hypercube/internal/table"
)

// BuildConsistent fills a consistent table for every member with global
// knowledge: the owner takes the entries it qualifies for, and every
// other entry whose desired suffix some member carries gets one such
// member, drawn by rng. It hands each table to made as soon as it is
// filled, in member order, together with the indices into members of
// the other nodes it holds; picks is reused after made returns.
//
// The candidates of an entry come from a suffix index built once in
// O(N·d), so filling a table costs one map lookup per level and no
// allocation per entry.
func BuildConsistent(p id.Params, members []table.Ref, rng *rand.Rand, made func(k int, tbl *table.Table, picks []int32)) {
	ix := newSuffixIndex(p, members)
	picks := make([]int32, 0, p.D*p.B)
	for k, ref := range members {
		tbl := table.New(p, ref.ID)
		picks = picks[:0]
		for i := 0; i < p.D; i++ {
			row := int(ix.rows[ref.ID.Suffix(i)]) * p.B
			for j := 0; j < p.B; j++ {
				if j == ref.ID.Digit(i) {
					tbl.Set(i, j, table.Neighbor{ID: ref.ID, Addr: ref.Addr, State: table.StateS})
					continue
				}
				cands := ix.members[ix.offsets[row+j]:ix.offsets[row+j+1]]
				if len(cands) == 0 {
					continue
				}
				pick := cands[rng.Intn(len(cands))]
				tbl.Set(i, j, table.Neighbor{ID: members[pick].ID, Addr: members[pick].Addr, State: table.StateS})
				picks = append(picks, pick)
			}
		}
		made(k, tbl, picks)
	}
}

// suffixIndex lists, for every suffix s of length 0..d-1 that some
// member carries, the members with suffix s grouped by their digit at
// position |s|, in member order within a group. Group j of s's row is
// thus every member with suffix j·s: the candidates of each entry
// (|s|, j) of a table whose owner carries s.
type suffixIndex struct {
	rows map[id.Suffix]int32
	// Group j of row r is members[offsets[r·b+j] : offsets[r·b+j+1]],
	// member indices; every member appears once per level.
	offsets []int32
	members []int32
}

func newSuffixIndex(p id.Params, members []table.Ref) *suffixIndex {
	// At most min(N, b^i) distinct suffixes have length i.
	rows, width := 0, 1
	for i := 0; i < p.D; i++ {
		rows += width
		width = min(width*p.B, len(members))
	}
	ix := &suffixIndex{rows: make(map[id.Suffix]int32, rows)}
	cell := make([]int32, len(members)*p.D) // (member, level) -> row·b + digit
	count := make([]int32, 0, rows*p.B)
	for k, ref := range members {
		for i := 0; i < p.D; i++ {
			s := ref.ID.Suffix(i)
			r, ok := ix.rows[s]
			if !ok {
				r = int32(len(ix.rows))
				ix.rows[s] = r
				count = append(count, make([]int32, p.B)...)
			}
			c := r*int32(p.B) + int32(ref.ID.Digit(i))
			cell[k*p.D+i] = c
			count[c]++
		}
	}
	ix.offsets = make([]int32, len(count)+1)
	for c, m := range count {
		ix.offsets[c+1] = ix.offsets[c] + m
	}
	next := count // reused: the next free slot of each group
	copy(next, ix.offsets)
	ix.members = make([]int32, len(cell))
	for kl, c := range cell {
		ix.members[next[c]] = int32(kl / p.D)
		next[c]++
	}
	return ix
}
