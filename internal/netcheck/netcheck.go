// Package netcheck verifies global properties of a set of neighbor
// tables: the consistency conditions of Definition 3.8 of Liu & Lam
// (ICDCS 2003) and pairwise reachability (Definition 3.7). It also
// builds consistent tables with the same global knowledge
// (BuildConsistent), the paper's premise of an existing network.
//
// The consistency check needs global knowledge and therefore lives in the
// verification harness, never in protocol nodes. It reads a registry of
// every ID suffix present in the network, built in O(N·d), once per
// (node, level); by Lemma 3.1, condition (a) is equivalent to all-pairs
// reachability.
package netcheck

import (
	"fmt"
	"slices"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/table"
)

// ViolationKind classifies a consistency violation.
type ViolationKind uint8

const (
	// FalseNegative: some node has the entry's desired suffix but the
	// entry is empty — condition (a) of Definition 3.8 violated.
	FalseNegative ViolationKind = iota + 1
	// FalsePositive: no node has the desired suffix yet the entry is
	// filled — condition (b) violated.
	FalsePositive
	// WrongSuffix: the entry holds a node that does not have the entry's
	// desired suffix (a corrupted table).
	WrongSuffix
	// Ghost: the entry holds an ID that is not a member of the network.
	Ghost
	// StaleState: the entry's state bit is still T after quiescence.
	StaleState
)

// String names the violation kind.
func (k ViolationKind) String() string {
	switch k {
	case FalseNegative:
		return "false-negative"
	case FalsePositive:
		return "false-positive"
	case WrongSuffix:
		return "wrong-suffix"
	case Ghost:
		return "ghost"
	case StaleState:
		return "stale-state"
	default:
		return fmt.Sprintf("ViolationKind(%d)", uint8(k))
	}
}

// Violation describes one table entry breaking consistency.
type Violation struct {
	Node         id.ID
	Level, Digit int
	Kind         ViolationKind
	Detail       string
}

// String renders the violation for test failure messages.
func (v Violation) String() string {
	return fmt.Sprintf("node %v entry (%d,%d): %v: %s", v.Node, v.Level, v.Digit, v.Kind, v.Detail)
}

// SuffixRegistry answers "does any network member have this suffix?" in
// O(1) after O(N·d) construction. Each suffix s some member carries maps
// to its member count and to the digits j for which some member carries
// j·s, so the desired suffix of every entry of a level is one bit of one
// lookup.
type SuffixRegistry struct {
	params  id.Params
	present map[id.Suffix]suffixInfo
}

type suffixInfo struct {
	count  int
	digits uint64 // bit j: some member has suffix j·s
}

// NewSuffixRegistry indexes the given member set.
func NewSuffixRegistry(p id.Params, members []id.ID) *SuffixRegistry {
	r := &SuffixRegistry{
		params:  p,
		present: make(map[id.Suffix]suffixInfo, len(members)*p.D),
	}
	for _, x := range members {
		r.Add(x)
	}
	return r
}

// Add indexes one more member.
func (r *SuffixRegistry) Add(x id.ID) {
	if r.IsMember(x) {
		return
	}
	for k := 0; k <= r.params.D; k++ {
		info := r.present[x.Suffix(k)]
		info.count++
		if k < r.params.D {
			info.digits |= 1 << x.Digit(k)
		}
		r.present[x.Suffix(k)] = info
	}
}

// Has reports whether any member has the suffix.
func (r *SuffixRegistry) Has(s id.Suffix) bool { return r.Count(s) > 0 }

// Count returns the number of members with the suffix.
func (r *SuffixRegistry) Count(s id.Suffix) int { return r.present[s].count }

// IsMember reports whether x is in the indexed set.
func (r *SuffixRegistry) IsMember(x id.ID) bool {
	return x.Len() == r.params.D && r.Has(x.Suffix(r.params.D))
}

// CheckConsistency verifies Definition 3.8 over the given tables: for
// every node x and entry (i,j), if some network member has the desired
// suffix j·x[i-1..0] the entry must hold such a member (condition a,
// false-negative freedom); otherwise the entry must be empty (condition
// b, false-positive freedom). It returns all violations found (nil when
// the network is consistent).
func CheckConsistency(p id.Params, tables map[id.ID]*table.Table) []Violation {
	members := make([]id.ID, 0, len(tables))
	for x := range tables {
		members = append(members, x)
	}
	reg := NewSuffixRegistry(p, members)

	var out []Violation
	// Deterministic iteration order for stable failure messages.
	slices.SortFunc(members, id.ID.Compare)
	for _, x := range members {
		tbl := tables[x]
		for i := 0; i < p.D; i++ {
			digits := reg.present[x.Suffix(i)].digits
			for j := 0; j < p.B; j++ {
				has := digits&(1<<j) != 0
				got := tbl.Get(i, j)
				switch {
				case has && got.IsZero():
					want := tbl.DesiredSuffix(i, j)
					out = append(out, Violation{
						Node: x, Level: i, Digit: j, Kind: FalseNegative,
						Detail: fmt.Sprintf("suffix %v exists in network (count %d) but entry empty", want, reg.Count(want)),
					})
				case !has && !got.IsZero():
					out = append(out, Violation{
						Node: x, Level: i, Digit: j, Kind: FalsePositive,
						Detail: fmt.Sprintf("no member has suffix %v but entry holds %v", tbl.DesiredSuffix(i, j), got.ID),
					})
				case !got.IsZero() && !table.Qualifies(x, i, j, got.ID):
					out = append(out, Violation{
						Node: x, Level: i, Digit: j, Kind: WrongSuffix,
						Detail: fmt.Sprintf("entry holds %v which lacks suffix %v", got.ID, tbl.DesiredSuffix(i, j)),
					})
				case !got.IsZero() && got.ID != x && !reg.IsMember(got.ID):
					out = append(out, Violation{
						Node: x, Level: i, Digit: j, Kind: Ghost,
						Detail: fmt.Sprintf("entry holds %v which is not a network member", got.ID),
					})
				}
			}
		}
	}
	return out
}

// CheckAllPairsReachability routes between every ordered pair of nodes
// (core.Route, Definition 3.7) and returns the pairs that failed.
// Quadratic; intended for small networks in tests (Lemma 3.1 makes it
// redundant with CheckConsistency, so it serves as an independent
// cross-check of the checker itself).
func CheckAllPairsReachability(p id.Params, tables map[id.ID]*table.Table) [][2]id.ID {
	var bad [][2]id.ID
	for src := range tables {
		for dst := range tables {
			if src == dst {
				continue
			}
			if _, ok := core.Route(core.TableMap(tables), src, dst, p); !ok {
				bad = append(bad, [2]id.ID{src, dst})
			}
		}
	}
	return bad
}

// AllStatesS verifies that every *canonical* filled entry carries state S
// once the network is quiescent. An entry (i,j) of node x is canonical for
// occupant u when i == |csuf(x,u)|; a node may additionally appear at
// levels below its csuf (placed there while copying), and the protocol's
// InSysNotiMsg handler (Figure 14) only refreshes the canonical entry, so
// lower-level duplicates may legitimately retain a stale T bit.
func AllStatesS(p id.Params, tables map[id.ID]*table.Table) []Violation {
	var out []Violation
	for x, tbl := range tables {
		tbl.ForEach(func(level, digit int, n table.Neighbor) {
			canonical := x.CommonSuffixLen(n.ID) == level || n.ID == x
			if canonical && n.State != table.StateS {
				out = append(out, Violation{
					Node: x, Level: level, Digit: digit, Kind: StaleState,
					Detail: fmt.Sprintf("entry %v still has state %v", n.ID, n.State),
				})
			}
		})
	}
	return out
}
