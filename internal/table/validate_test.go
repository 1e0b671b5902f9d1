package table

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hypercube/internal/id"
)

// validateOracle is Snapshot.Validate as first written: it materializes
// each entry's desired suffix and asks HasSuffix. Validate now compares
// digits in place; it must accept and reject exactly what this does,
// with the same error text.
func validateOracle(s Snapshot) error {
	if s.IsZero() {
		return nil
	}
	var bad error
	s.ForEach(func(level, digit int, n Neighbor) {
		if bad != nil {
			return
		}
		switch {
		case n.State != StateT && n.State != StateS:
			bad = fmt.Errorf("table: entry (%d,%d) has invalid state %d", level, digit, n.State)
		case n.ID.Len() != s.params.D:
			bad = fmt.Errorf("table: entry (%d,%d) occupant %v has %d digits, want %d",
				level, digit, n.ID, n.ID.Len(), s.params.D)
		case !n.ID.HasSuffix(s.owner.Suffix(level).Extend(digit)):
			bad = fmt.Errorf("table: entry (%d,%d) occupant %v lacks suffix %v",
				level, digit, n.ID, s.owner.Suffix(level).Extend(digit))
		case len(n.Addr) > MaxAddr:
			bad = fmt.Errorf("table: entry (%d,%d) address of %d bytes exceeds %d",
				level, digit, len(n.Addr), MaxAddr)
		}
	})
	return bad
}

func requireSameVerdict(t *testing.T, s Snapshot) {
	t.Helper()
	got, want := s.Validate(), validateOracle(s)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("Validate = %v, oracle = %v", got, want)
	}
}

// fullSnapshot fills every entry of owner's table with an occupant that
// carries the entry's desired suffix.
func fullSnapshot(p id.Params, owner id.ID, rng *rand.Rand) Snapshot {
	tbl := New(p, owner)
	for level := 0; level < p.D; level++ {
		for digit := 0; digit < p.B; digit++ {
			digits := make([]int, p.D)
			for i := range digits {
				switch {
				case i < level:
					digits[i] = owner.Digit(i)
				case i == level:
					digits[i] = digit
				default:
					digits[i] = rng.Intn(p.B)
				}
			}
			x, err := id.FromDigits(p, digits)
			if err != nil {
				panic(err)
			}
			tbl.Set(level, digit, Neighbor{ID: x, Addr: "a", State: StateT + State(rng.Intn(2))})
		}
	}
	return tbl.Snapshot()
}

func TestValidateMatchesOracle(t *testing.T) {
	owner := id.MustParse(p45, "21233")
	short := id.MustParse(id.Params{B: 4, D: 4}, "1233")
	long := id.MustParse(id.Params{B: 4, D: 6}, "021233")
	cases := []struct {
		name    string
		lo, hi  int
		entries map[[2]int]Neighbor
		ok      bool
	}{
		{"empty table", 0, 4, nil, true},
		{"honest entries", 0, 4, map[[2]int]Neighbor{
			{0, 1}: nb(t, "33121", StateS), {3, 0}: nb(t, "10233", StateT), {4, 2}: nb(t, "21233", StateS),
		}, true},
		{"honest level range", 2, 3, map[[2]int]Neighbor{{3, 0}: nb(t, "10233", StateS)}, true},
		{"wrong digit at level", 0, 4, map[[2]int]Neighbor{{3, 0}: nb(t, "11233", StateS)}, false},
		{"wrong digit below level", 0, 4, map[[2]int]Neighbor{{3, 0}: nb(t, "10213", StateS)}, false},
		{"wrong digit at level 0", 0, 4, map[[2]int]Neighbor{{0, 1}: nb(t, "33122", StateS)}, false},
		{"state zero", 0, 4, map[[2]int]Neighbor{{0, 1}: nb(t, "33121", 0)}, false},
		{"state out of range", 0, 4, map[[2]int]Neighbor{{0, 1}: nb(t, "33121", 7)}, false},
		{"short ID with the right digits", 0, 4, map[[2]int]Neighbor{{3, 1}: {ID: short, State: StateS}}, false},
		{"long ID with the right digits", 0, 4, map[[2]int]Neighbor{{4, 2}: {ID: long, State: StateS}}, false},
		{"invalid state wins over wrong length", 0, 4, map[[2]int]Neighbor{{3, 1}: {ID: short, State: 9}}, false},
		{"address at the bound", 0, 4, map[[2]int]Neighbor{
			{0, 1}: {ID: id.MustParse(p45, "33121"), Addr: strings.Repeat("a", MaxAddr), State: StateS},
		}, true},
		{"address over the bound", 0, 4, map[[2]int]Neighbor{
			{0, 1}: {ID: id.MustParse(p45, "33121"), Addr: strings.Repeat("a", MaxAddr+1), State: StateS},
		}, false},
		{"wrong suffix wins over long address", 0, 4, map[[2]int]Neighbor{
			{0, 1}: {ID: id.MustParse(p45, "33122"), Addr: strings.Repeat("a", MaxAddr+1), State: StateS},
		}, false},
		{"first bad entry is reported", 0, 4, map[[2]int]Neighbor{
			{1, 0}: nb(t, "33121", StateS), {2, 3}: nb(t, "33121", 0),
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			snap, err := NewSnapshot(p45, owner, c.lo, c.hi, c.entries)
			if err != nil {
				t.Fatal(err)
			}
			requireSameVerdict(t, snap)
			if got := snap.Validate() == nil; got != c.ok {
				t.Errorf("accepted = %v, want %v (%v)", got, c.ok, snap.Validate())
			}
		})
	}
	requireSameVerdict(t, Snapshot{})
	rng := rand.New(rand.NewSource(3))
	for _, p := range []id.Params{p45, {B: 16, D: 8}, {B: 2, D: 40}} {
		full := fullSnapshot(p, id.Random(p, rng), rng)
		requireSameVerdict(t, full)
		if err := full.Validate(); err != nil {
			t.Errorf("b=%d d=%d: honest full snapshot rejected: %v", p.B, p.D, err)
		}
	}
}

// snapshotFromBytes decodes fuzz input into a snapshot whose occupants
// are mostly near-honest, so both the accept path and every reject path
// are reached: per entry a level, a digit, a state, and a mode that
// keeps the honest ID, corrupts one digit, changes the ID's length, or
// gives the honest ID an address one byte over MaxAddr.
func snapshotFromBytes(data []byte) (Snapshot, bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	p := id.Params{B: 2 + next()%15, D: 1 + next()%8}
	digits := make([]int, p.D)
	for i := range digits {
		digits[i] = next() % p.B
	}
	owner, err := id.FromDigits(p, digits)
	if err != nil {
		return Snapshot{}, false
	}
	entries := make(map[[2]int]Neighbor)
	for len(data) > 0 {
		level, digit, state, mode := next()%p.D, next()%p.B, State(next()%4), next()%8
		length := p.D
		switch mode {
		case 5:
			length--
		case 6:
			length++
		}
		if length == 0 {
			continue
		}
		occ := make([]int, length)
		for i := range occ {
			switch {
			case i < level:
				occ[i] = owner.Digit(i)
			case i == level:
				occ[i] = digit
			default:
				occ[i] = next() % p.B
			}
		}
		if mode == 7 {
			occ[next()%length] = next() % p.B
		}
		x, err := id.FromDigits(id.Params{B: p.B, D: length}, occ)
		if err != nil {
			return Snapshot{}, false
		}
		var addr string
		if mode == 4 {
			addr = strings.Repeat("a", MaxAddr+1)
		}
		entries[[2]int{level, digit}] = Neighbor{ID: x, Addr: addr, State: state}
	}
	snap, err := NewSnapshot(p, owner, 0, p.D-1, entries)
	return snap, err == nil
}

func FuzzValidateMatchesOracle(f *testing.F) {
	f.Add([]byte{14, 3, 1, 2, 3, 4})
	f.Add([]byte{14, 3, 1, 2, 3, 4, 2, 7, 1, 0, 9, 9, 0, 5, 2, 0, 1})
	f.Add([]byte{2, 4, 3, 3, 2, 1, 2, 3, 0, 2, 5, 1, 1, 2, 0, 6, 1, 2, 1, 0, 1, 2, 7, 0, 3})
	f.Add([]byte{0, 0, 1, 0, 1, 3, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if snap, ok := snapshotFromBytes(data); ok {
			requireSameVerdict(t, snap)
		}
	})
}

func TestValidateDoesNotAllocate(t *testing.T) {
	p := id.Params{B: 16, D: 8}
	rng := rand.New(rand.NewSource(1))
	full := fullSnapshot(p, id.Random(p, rng), rng)
	if full.FilledCount() != p.B*p.D {
		t.Fatalf("snapshot has %d entries, want %d", full.FilledCount(), p.B*p.D)
	}
	var err error
	if got := testing.AllocsPerRun(100, func() { err = full.Validate() }); got != 0 || err != nil {
		t.Errorf("Validate on an honest full snapshot: %v allocations, err %v; want 0, nil", got, err)
	}
}
