package core

import (
	"hypercube/internal/id"
	"hypercube/internal/table"
)

// NextHop computes one step of the hypercube routing scheme (§2.2) from
// the owner of tbl toward target. Routing resolves one more suffix digit
// per hop: at a node sharing k rightmost digits with the target, the next
// hop is the (k, target[k])-neighbor.
//
// It returns (hop, arrived): arrived is true when the table owner is the
// target itself; otherwise hop is the next node, or the zero Neighbor if
// the required entry is empty — meaning no node with the needed suffix
// exists (in a consistent network this certifies the target is absent).
func NextHop(tbl *table.Table, target id.ID) (hop table.Neighbor, arrived bool) {
	if tbl.Owner() == target {
		return table.Neighbor{}, true
	}
	k := tbl.Owner().CommonSuffixLen(target)
	return tbl.Get(k, target.Digit(k)), false
}

// TableResolver maps a node ID to its neighbor table; implementations are
// provided by the simulation harness and the runtimes.
type TableResolver interface {
	TableOf(x id.ID) (*table.Table, bool)
}

// TableMap resolves from tables keyed by owner, the form the checkers
// hold them in.
type TableMap map[id.ID]*table.Table

// TableOf implements TableResolver.
func (t TableMap) TableOf(x id.ID) (*table.Table, bool) {
	tbl, ok := t[x]
	return tbl, ok
}

// Route walks the full route from src toward target using resolver,
// returning the node sequence visited (starting with src) and whether the
// target was reached. Per Definition 3.7 a consistent network reaches any
// existing node within d hops; Route therefore aborts after d hops, on
// an empty entry or at a node it cannot resolve, returning ok=false. It
// is the one walk of the §2.2 route: the checkers' reachability
// (Definition 3.7, Lemma 3.1), the nemesis audit, the baseline's
// surrogate search and lost joiners, and the stretch measurement all
// call it.
func Route(resolver TableResolver, src, target id.ID, p id.Params) (path []id.ID, ok bool) {
	cur := src
	path = append(path, cur)
	for hops := 0; hops <= p.D; hops++ {
		if cur == target {
			return path, true
		}
		tbl, found := resolver.TableOf(cur)
		if !found {
			return path, false
		}
		hop, arrived := NextHop(tbl, target)
		if arrived {
			return path, true
		}
		if hop.IsZero() {
			return path, false
		}
		cur = hop.ID
		path = append(path, cur)
	}
	return path, false
}
