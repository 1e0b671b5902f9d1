package netcheck

import (
	"math/rand"
	"strings"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/table"
)

var p45 = id.Params{B: 4, D: 5}

// buildConsistent constructs consistent tables for the given members with
// global knowledge (BuildConsistent).
func buildConsistent(t *testing.T, p id.Params, ids []string) map[id.ID]*table.Table {
	t.Helper()
	members := make([]id.ID, len(ids))
	for i, s := range ids {
		members[i] = id.MustParse(p, s)
	}
	return buildConsistentIDs(p, members)
}

func buildConsistentIDs(p id.Params, members []id.ID) map[id.ID]*table.Table {
	refs := make([]table.Ref, len(members))
	for i, x := range members {
		refs[i] = table.Ref{ID: x}
	}
	tables := make(map[id.ID]*table.Table, len(members))
	BuildConsistent(p, refs, rand.New(rand.NewSource(1)), func(_ int, tbl *table.Table, _ []int32) {
		tables[tbl.Owner()] = tbl
	})
	return tables
}

func TestConsistentNetworkPasses(t *testing.T) {
	tables := buildConsistent(t, p45, []string{"21233", "03231", "10220", "33333", "00000"})
	if v := CheckConsistency(p45, tables); len(v) != 0 {
		t.Fatalf("violations on consistent network: %v", v[0])
	}
	if v := AllStatesS(p45, tables); len(v) != 0 {
		t.Fatalf("state violations: %v", v[0])
	}
	if bad := CheckAllPairsReachability(p45, tables); len(bad) != 0 {
		t.Fatalf("unreachable pairs on consistent network: %v", bad)
	}
}

func TestDetectsFalseNegative(t *testing.T) {
	tables := buildConsistent(t, p45, []string{"21233", "03231", "10220"})
	// Erase an entry that must be filled: 21233's level-0 entry toward
	// digit 03231[0]=1.
	x := id.MustParse(p45, "21233")
	tables[x].Set(0, 1, table.Neighbor{})
	v := CheckConsistency(p45, tables)
	if len(v) == 0 {
		t.Fatal("false negative not detected")
	}
	found := false
	for _, violation := range v {
		if violation.Kind == FalseNegative && violation.Node == x {
			found = true
			if !strings.Contains(violation.String(), "false-negative") {
				t.Errorf("String() = %q", violation.String())
			}
		}
	}
	if !found {
		t.Fatalf("no FalseNegative violation among %v", v)
	}
	// Lemma 3.1 cross-check: a condition-(a) violation breaks reachability.
	if bad := CheckAllPairsReachability(p45, tables); len(bad) == 0 {
		t.Error("false negative did not break reachability")
	}
}

func TestDetectsFalsePositive(t *testing.T) {
	tables := buildConsistent(t, p45, []string{"21233", "03231"})
	// Insert a pointer to a non-member with a suffix nobody has.
	x := id.MustParse(p45, "21233")
	ghost := id.MustParse(p45, "22223")
	if tables[x].Get(0, 3).IsZero() {
		t.Fatal("test setup: expected (0,3) filled (owner suffix 3)")
	}
	// Entry (1,2): desired suffix "23"; no member has it.
	tables[x].Set(1, 2, table.Neighbor{ID: ghost, State: table.StateS})
	v := CheckConsistency(p45, tables)
	if len(v) != 1 || v[0].Kind != FalsePositive {
		t.Fatalf("want exactly one FalsePositive, got %v", v)
	}
}

func TestDetectsWrongSuffix(t *testing.T) {
	tables := buildConsistent(t, p45, []string{"21233", "03231", "10220"})
	x := id.MustParse(p45, "21233")
	// Put 10220 (suffix ...0) into the entry that wants suffix 1.
	tables[x].Set(0, 1, table.Neighbor{ID: id.MustParse(p45, "10220"), State: table.StateS})
	v := CheckConsistency(p45, tables)
	found := false
	for _, violation := range v {
		if violation.Kind == WrongSuffix {
			found = true
		}
	}
	if !found {
		t.Fatalf("WrongSuffix not detected: %v", v)
	}
}

func TestDetectsGhostMember(t *testing.T) {
	tables := buildConsistent(t, p45, []string{"21233", "03231"})
	x := id.MustParse(p45, "21233")
	// 13231 is not a member but has the desired suffix 1 for entry (0,1).
	tables[x].Set(0, 1, table.Neighbor{ID: id.MustParse(p45, "13231"), State: table.StateS})
	v := CheckConsistency(p45, tables)
	found := false
	for _, violation := range v {
		if violation.Kind == Ghost {
			found = true
		}
	}
	if !found {
		t.Fatalf("Ghost not detected: %v", v)
	}
}

func TestAllStatesSFlagsCanonicalTOnly(t *testing.T) {
	tables := buildConsistent(t, p45, []string{"21233", "03231", "10220"})
	x := id.MustParse(p45, "21233")
	y := id.MustParse(p45, "03231")
	k := x.CommonSuffixLen(y)
	// Canonical entry for y holds state T: flagged.
	tables[x].Set(k, y.Digit(k), table.Neighbor{ID: y, State: table.StateT})
	v := AllStatesS(p45, tables)
	if len(v) != 1 || v[0].Kind != StaleState {
		t.Fatalf("want one StaleState, got %v", v)
	}
	// A sub-canonical duplicate with T is tolerated (Figure 14 refreshes
	// only the csuf-level entry).
	tables[x].Set(k, y.Digit(k), table.Neighbor{ID: y, State: table.StateS})
	if k > 0 {
		tables[x].Set(0, y.Digit(0), table.Neighbor{ID: y, State: table.StateT})
		if v := AllStatesS(p45, tables); len(v) != 0 {
			t.Fatalf("sub-canonical T flagged: %v", v)
		}
	}
}

func TestSuffixRegistry(t *testing.T) {
	reg := NewSuffixRegistry(p45, nil)
	if reg.Has(id.EmptySuffix) {
		t.Error("empty registry Has(ε)")
	}
	a := id.MustParse(p45, "21233")
	b := id.MustParse(p45, "03233")
	reg.Add(a)
	reg.Add(a) // duplicate add is a no-op
	reg.Add(b)
	if !reg.Has(id.EmptySuffix) {
		t.Error("Has(ε) false on populated registry")
	}
	s233 := id.MustParseSuffix(p45, "233")
	s1233 := id.MustParseSuffix(p45, "1233")
	if got := reg.Count(s233); got != 2 {
		t.Errorf("Count(233) = %d, want 2", got)
	}
	if got := reg.Count(s1233); got != 1 {
		t.Errorf("Count(1233) = %d, want 1", got)
	}
	if reg.Has(id.MustParseSuffix(p45, "0")) {
		t.Error("Has(0) true, no member ends in 0")
	}
	if !reg.IsMember(a) || reg.IsMember(id.MustParse(p45, "00000")) {
		t.Error("IsMember wrong")
	}
	if got := reg.Count(id.EmptySuffix); got != 2 {
		t.Errorf("Count(ε) = %d, want 2", got)
	}
}

func TestReachableRoutesWithinDHops(t *testing.T) {
	p := id.Params{B: 4, D: 6}
	rng := rand.New(rand.NewSource(8))
	var members []id.ID
	seen := make(map[id.ID]bool)
	for len(members) < 50 {
		x := id.Random(p, rng)
		if seen[x] {
			continue
		}
		seen[x] = true
		members = append(members, x)
	}
	tables := buildConsistentIDs(p, members)
	for trial := 0; trial < 200; trial++ {
		src := members[rng.Intn(len(members))]
		dst := members[rng.Intn(len(members))]
		path, ok := core.Route(core.TableMap(tables), src, dst, p)
		if !ok {
			t.Fatalf("unreachable %v -> %v", src, dst)
		}
		if len(path) > p.D+1 {
			t.Fatalf("path longer than d: %v", path)
		}
		// Hop h must share at least h digits with the destination: the
		// defining invariant of hypercube routing.
		for h, node := range path {
			if h > 0 && node.CommonSuffixLen(dst) < path[h-1].CommonSuffixLen(dst)+1 {
				t.Fatalf("suffix match did not grow along path %v (dst %v)", path, dst)
			}
		}
	}
}

func TestReachableFailsOnMissingTable(t *testing.T) {
	tables := buildConsistent(t, p45, []string{"21233", "03231"})
	outsider := id.MustParse(p45, "11111")
	if _, ok := core.Route(core.TableMap(tables), outsider, id.MustParse(p45, "21233"), p45); ok {
		t.Error("routing from unknown node succeeded")
	}
}

func TestViolationKindString(t *testing.T) {
	for kind, want := range map[ViolationKind]string{
		FalseNegative: "false-negative",
		FalsePositive: "false-positive",
		WrongSuffix:   "wrong-suffix",
		Ghost:         "ghost",
		StaleState:    "stale-state",
	} {
		if got := kind.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", kind, got, want)
		}
	}
	if got := ViolationKind(88).String(); !strings.Contains(got, "88") {
		t.Errorf("unknown kind renders %q", got)
	}
}
