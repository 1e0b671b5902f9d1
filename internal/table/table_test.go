package table

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hypercube/internal/id"
)

var p45 = id.Params{B: 4, D: 5}

func nb(t *testing.T, s string, st State) Neighbor {
	t.Helper()
	return Neighbor{ID: id.MustParse(p45, s), State: st}
}

func TestNewTableEmpty(t *testing.T) {
	owner := id.MustParse(p45, "21233")
	tbl := New(p45, owner)
	if tbl.Owner() != owner {
		t.Errorf("Owner = %v", tbl.Owner())
	}
	if tbl.Params() != p45 {
		t.Errorf("Params = %+v", tbl.Params())
	}
	if got := tbl.FilledCount(); got != 0 {
		t.Errorf("FilledCount = %d, want 0", got)
	}
	for i := 0; i < p45.D; i++ {
		for j := 0; j < p45.B; j++ {
			if !tbl.Get(i, j).IsZero() {
				t.Fatalf("entry (%d,%d) not empty in new table", i, j)
			}
		}
	}
}

func TestNewPanicsOnBadInput(t *testing.T) {
	owner := id.MustParse(p45, "21233")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New with invalid params did not panic")
			}
		}()
		New(id.Params{B: 1, D: 5}, owner)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New with wrong-length owner did not panic")
			}
		}()
		New(id.Params{B: 4, D: 8}, owner)
	}()
}

func TestSetGet(t *testing.T) {
	owner := id.MustParse(p45, "21233")
	tbl := New(p45, owner)
	n := nb(t, "01233", StateS)
	tbl.Set(3, 1, n)
	if got := tbl.Get(3, 1); got != n {
		t.Errorf("Get(3,1) = %+v, want %+v", got, n)
	}
	if got := tbl.FilledCount(); got != 1 {
		t.Errorf("FilledCount = %d, want 1", got)
	}
	// Overwrite is unconditional at this layer.
	n2 := nb(t, "11233", StateT)
	tbl.Set(3, 1, n2)
	if got := tbl.Get(3, 1); got != n2 {
		t.Errorf("after overwrite Get(3,1) = %+v", got)
	}
}

func TestGetOutOfRangePanics(t *testing.T) {
	tbl := New(p45, id.MustParse(p45, "21233"))
	for _, c := range [][2]int{{-1, 0}, {5, 0}, {0, -1}, {0, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d,%d) did not panic", c[0], c[1])
				}
			}()
			tbl.Get(c[0], c[1])
		}()
	}
}

func TestSetState(t *testing.T) {
	tbl := New(p45, id.MustParse(p45, "21233"))
	x := id.MustParse(p45, "01233")
	tbl.Set(3, 0, Neighbor{ID: x, State: StateT})
	if !tbl.SetState(3, 0, x, StateS) {
		t.Error("SetState on matching node returned false")
	}
	if got := tbl.Get(3, 0).State; got != StateS {
		t.Errorf("state = %v, want S", got)
	}
	other := id.MustParse(p45, "11233")
	if tbl.SetState(3, 0, other, StateT) {
		t.Error("SetState on non-matching node returned true")
	}
	if got := tbl.Get(3, 0).State; got != StateS {
		t.Errorf("state changed by non-matching SetState: %v", got)
	}
}

// TestSetStateOnEmptyEntry: an empty entry holds no node, so it has no
// state to set, even for the null ID that an empty entry's zero value
// carries; the call changes nothing and reports false.
func TestSetStateOnEmptyEntry(t *testing.T) {
	tbl := New(p45, id.MustParse(p45, "21233"))
	v := tbl.Version()
	if tbl.SetState(3, 0, id.Null, StateS) {
		t.Error("SetState on an empty entry returned true")
	}
	if got := tbl.Get(3, 0); got != (Neighbor{}) {
		t.Errorf("empty entry reads %+v after SetState, want the zero Neighbor", got)
	}
	if tbl.Version() != v {
		t.Errorf("SetState on an empty entry moved the version %d -> %d", v, tbl.Version())
	}
}

func TestDesiredSuffixMatchesPaperFigure1(t *testing.T) {
	// Figure 1: node 21233, b=4, d=5. The desired suffix of the (3,0)-entry
	// is 0233, of the (1,3)-entry is 33, of the (0,2)-entry is 2.
	tbl := New(p45, id.MustParse(p45, "21233"))
	tests := []struct {
		level, digit int
		want         string
	}{
		{0, 0, "0"},
		{0, 2, "2"},
		{1, 3, "33"},
		{2, 0, "033"},
		{3, 0, "0233"},
		{3, 3, "3233"},
		{4, 1, "11233"},
	}
	for _, tt := range tests {
		if got := tbl.DesiredSuffix(tt.level, tt.digit).String(); got != tt.want {
			t.Errorf("DesiredSuffix(%d,%d) = %q, want %q", tt.level, tt.digit, got, tt.want)
		}
	}
}

func TestQualifies(t *testing.T) {
	tbl := New(p45, id.MustParse(p45, "21233"))
	tests := []struct {
		level, digit int
		node         string
		want         bool
	}{
		{3, 0, "10233", true},
		{3, 0, "00233", true},
		{3, 0, "01233", false}, // suffix 1233, not 0233
		{0, 1, "33121", true},
		{0, 1, "33120", false},
		{4, 2, "21233", true}, // diagonal: desired suffix is the owner's own ID
		{4, 0, "21233", false},
	}
	for _, tt := range tests {
		x := id.MustParse(p45, tt.node)
		if got := tbl.Qualifies(tt.level, tt.digit, x); got != tt.want {
			t.Errorf("Qualifies(%d,%d,%s) = %v, want %v", tt.level, tt.digit, tt.node, got, tt.want)
		}
	}
	// The diagonal entry (i, owner[i]) is always qualified for the owner.
	owner := id.MustParse(p45, "21233")
	for i := 0; i < p45.D; i++ {
		if !tbl.Qualifies(i, owner.Digit(i), owner) {
			t.Errorf("owner does not qualify for its own (%d,%d)-entry", i, owner.Digit(i))
		}
	}
}

func TestForEachOrderAndContent(t *testing.T) {
	tbl := New(p45, id.MustParse(p45, "21233"))
	tbl.Set(0, 1, nb(t, "33121", StateS))
	tbl.Set(2, 0, nb(t, "21033", StateT))
	tbl.Set(2, 2, nb(t, "12233", StateS))
	var got []string
	tbl.ForEach(func(level, digit int, n Neighbor) {
		got = append(got, n.ID.String())
	})
	want := []string{"33121", "21033", "12233"}
	if len(got) != len(want) {
		t.Fatalf("visited %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("visit %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	tbl := New(p45, id.MustParse(p45, "21233"))
	tbl.Set(1, 3, nb(t, "21233", StateT))
	snap := tbl.Snapshot()
	tbl.Set(1, 3, nb(t, "11233", StateS))
	tbl.Set(0, 0, nb(t, "10220", StateS))
	if got := snap.Get(1, 3).ID.String(); got != "21233" {
		t.Errorf("snapshot mutated: (1,3) = %s", got)
	}
	if !snap.Get(0, 0).IsZero() {
		t.Error("snapshot saw later write to (0,0)")
	}
	if snap.Owner() != tbl.Owner() {
		t.Error("snapshot owner mismatch")
	}
	lo, hi := snap.LevelRange()
	if lo != 0 || hi != p45.D-1 {
		t.Errorf("full snapshot range [%d,%d]", lo, hi)
	}
}

func TestSnapshotLevels(t *testing.T) {
	tbl := New(p45, id.MustParse(p45, "21233"))
	tbl.Set(0, 1, nb(t, "33121", StateS))
	tbl.Set(2, 2, nb(t, "12233", StateS))
	tbl.Set(4, 0, nb(t, "01233", StateT))

	snap := tbl.SnapshotLevels(1, 3)
	if !snap.Get(0, 1).IsZero() {
		t.Error("level 0 leaked into [1,3] snapshot")
	}
	if !snap.Get(4, 0).IsZero() {
		t.Error("level 4 leaked into [1,3] snapshot")
	}
	if snap.Get(2, 2).ID != id.MustParse(p45, "12233") {
		t.Error("level 2 missing from [1,3] snapshot")
	}
	if got := snap.FilledCount(); got != 1 {
		t.Errorf("FilledCount = %d, want 1", got)
	}

	// Clamping out-of-range bounds.
	all := tbl.SnapshotLevels(-5, 100)
	if got := all.FilledCount(); got != 3 {
		t.Errorf("clamped snapshot FilledCount = %d, want 3", got)
	}
	empty := tbl.SnapshotLevels(3, 1)
	if got := empty.FilledCount(); got != 0 {
		t.Errorf("inverted-range snapshot FilledCount = %d, want 0", got)
	}
}

func TestSnapshotZero(t *testing.T) {
	var s Snapshot
	if !s.IsZero() {
		t.Error("zero Snapshot not IsZero")
	}
	tbl := New(p45, id.MustParse(p45, "21233"))
	if tbl.Snapshot().IsZero() {
		t.Error("real snapshot reported zero")
	}
}

func TestFillVectorAndFiltered(t *testing.T) {
	tbl := New(p45, id.MustParse(p45, "21233"))
	tbl.Set(0, 1, nb(t, "33121", StateS))
	tbl.Set(1, 3, nb(t, "21233", StateT))
	tbl.Set(3, 1, nb(t, "01233", StateS))

	v := tbl.FillVector()
	if got := v.Count(); got != 3 {
		t.Errorf("FillVector.Count = %d, want 3", got)
	}
	if !v.Get(0*4+1) || !v.Get(1*4+3) || !v.Get(3*4+1) {
		t.Error("FillVector missing a filled entry bit")
	}
	if v.Get(2*4 + 0) {
		t.Error("FillVector set for empty entry")
	}

	// A peer whose table already has (0,1) filled asks us to filter: with
	// keepFrom=3, level-3 entries ship regardless of the mask.
	mask := NewBitVector(p45.D * p45.B)
	mask.Set(0*4 + 1)
	mask.Set(3*4 + 1)
	filtered := tbl.Snapshot().Filtered(mask, 3)
	if !filtered.Get(0, 1).IsZero() {
		t.Error("masked low-level entry was shipped")
	}
	if filtered.Get(1, 3).IsZero() {
		t.Error("unmasked entry was dropped")
	}
	if filtered.Get(3, 1).IsZero() {
		t.Error("keepFrom level was filtered out")
	}
}

func TestWireSizeShrinksWithReduction(t *testing.T) {
	p := id.Params{B: 16, D: 8}
	r := rand.New(rand.NewSource(5))
	owner := id.Random(p, r)
	tbl := New(p, owner)
	for i := 0; i < p.D/2; i++ {
		for j := 0; j < p.B; j++ {
			tbl.Set(i, j, Neighbor{ID: id.Random(p, r), State: StateS})
		}
	}
	full := tbl.Snapshot()
	part := tbl.SnapshotLevels(2, 3)
	if part.WireSize() >= full.WireSize() {
		t.Errorf("partial snapshot (%dB) not smaller than full (%dB)", part.WireSize(), full.WireSize())
	}
	mask := tbl.FillVector() // peer has everything we have
	filtered := full.Filtered(mask, p.D)
	if filtered.WireSize() >= full.WireSize() {
		t.Errorf("filtered snapshot (%dB) not smaller than full (%dB)", filtered.WireSize(), full.WireSize())
	}
	if filtered.FilledCount() != 0 {
		t.Errorf("fully-masked filter kept %d entries", filtered.FilledCount())
	}
}

func TestBitVector(t *testing.T) {
	v := NewBitVector(130) // spans three words
	if v.Len() != 130 {
		t.Fatalf("Len = %d", v.Len())
	}
	for _, i := range []int{0, 63, 64, 127, 129} {
		v.Set(i)
	}
	for _, i := range []int{0, 63, 64, 127, 129} {
		if !v.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if v.Get(1) || v.Get(128) {
		t.Error("unset bit reads as set")
	}
	if got := v.Count(); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if v.Get(-1) || v.Get(130) {
		t.Error("out-of-range Get should read clear")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range Set did not panic")
			}
		}()
		v.Set(130)
	}()
	if got := v.WireSize(); got != 17 {
		t.Errorf("WireSize = %d, want 17", got)
	}
}

func TestStateString(t *testing.T) {
	if StateT.String() != "T" || StateS.String() != "S" {
		t.Error("State.String mismatch")
	}
	if got := State(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown state renders %q", got)
	}
}

func TestTableStringRendersFigure1Style(t *testing.T) {
	tbl := New(p45, id.MustParse(p45, "21233"))
	tbl.Set(0, 1, nb(t, "33121", StateS))
	out := tbl.String()
	if !strings.Contains(out, "node 21233") {
		t.Errorf("header missing owner: %q", out)
	}
	if !strings.Contains(out, "33121/S") {
		t.Errorf("entry missing from render: %q", out)
	}
	if !strings.Contains(out, "digit 3") {
		t.Errorf("digit rows missing: %q", out)
	}
}

// Property: a snapshot agrees with its source table on every entry at the
// moment of the copy.
func TestQuickSnapshotFidelity(t *testing.T) {
	p := id.Params{B: 8, D: 6}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		owner := id.Random(p, r)
		tbl := New(p, owner)
		for n := 0; n < 30; n++ {
			level, digit := r.Intn(p.D), r.Intn(p.B)
			st := StateT
			if r.Intn(2) == 0 {
				st = StateS
			}
			tbl.Set(level, digit, Neighbor{ID: id.Random(p, r), State: st})
		}
		snap := tbl.Snapshot()
		for i := 0; i < p.D; i++ {
			for j := 0; j < p.B; j++ {
				if snap.Get(i, j) != tbl.Get(i, j) {
					return false
				}
			}
		}
		return snap.FilledCount() == tbl.FilledCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: FillVector bit (i*b+j) is set iff entry (i,j) is filled.
func TestQuickFillVector(t *testing.T) {
	p := id.Params{B: 8, D: 6}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := New(p, id.Random(p, r))
		for n := 0; n < 25; n++ {
			tbl.Set(r.Intn(p.D), r.Intn(p.B), Neighbor{ID: id.Random(p, r), State: StateT})
		}
		v := tbl.FillVector()
		ok := true
		for i := 0; i < p.D; i++ {
			for j := 0; j < p.B; j++ {
				if v.Get(i*p.B+j) != !tbl.Get(i, j).IsZero() {
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	p := id.Params{B: 16, D: 40}
	r := rand.New(rand.NewSource(1))
	tbl := New(p, id.Random(p, r))
	for i := 0; i < p.D; i++ {
		for j := 0; j < p.B; j++ {
			if r.Intn(4) == 0 {
				tbl.Set(i, j, Neighbor{ID: id.Random(p, r), State: StateS})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tbl.Snapshot()
	}
}

func TestNeighborRefAndZero(t *testing.T) {
	var empty Neighbor
	if !empty.IsZero() {
		t.Error("zero Neighbor not IsZero")
	}
	if !empty.Ref().IsZero() {
		t.Error("zero Neighbor's Ref not IsZero")
	}
	n := Neighbor{ID: id.MustParse(p45, "21233"), Addr: "1.2.3.4:5", State: StateS}
	if n.IsZero() {
		t.Error("populated Neighbor reports zero")
	}
	r := n.Ref()
	if r.ID != n.ID || r.Addr != n.Addr || r.IsZero() {
		t.Errorf("Ref = %+v", r)
	}
}

func TestVersionTracksMutations(t *testing.T) {
	tbl := New(p45, id.MustParse(p45, "21233"))
	v0 := tbl.Version()
	n := nb(t, "01233", StateT)
	tbl.Set(3, 1, n)
	if tbl.Version() == v0 {
		t.Error("Set did not bump version")
	}
	v1 := tbl.Version()
	tbl.Set(3, 1, n) // identical write: no change
	if tbl.Version() != v1 {
		t.Error("no-op Set bumped version")
	}
	tbl.SetState(3, 1, n.ID, StateT) // state unchanged
	if tbl.Version() != v1 {
		t.Error("no-op SetState bumped version")
	}
	tbl.SetState(3, 1, n.ID, StateS)
	if tbl.Version() == v1 {
		t.Error("state change did not bump version")
	}
}

func TestSnapshotCacheInvalidation(t *testing.T) {
	tbl := New(p45, id.MustParse(p45, "21233"))
	tbl.Set(0, 1, nb(t, "33121", StateS))
	s1 := tbl.Snapshot()
	s2 := tbl.Snapshot()
	// Unchanged table: identical shared snapshot contents.
	if s1.Get(0, 1) != s2.Get(0, 1) || s1.FilledCount() != s2.FilledCount() {
		t.Error("consecutive snapshots differ")
	}
	tbl.Set(0, 2, nb(t, "21032", StateT))
	s3 := tbl.Snapshot()
	if s3.Get(0, 2).IsZero() {
		t.Error("snapshot after mutation is stale")
	}
	if !s1.Get(0, 2).IsZero() {
		t.Error("old snapshot mutated")
	}
}

func TestNewSnapshotRoundTrip(t *testing.T) {
	owner := id.MustParse(p45, "21233")
	entries := map[[2]int]Neighbor{
		{0, 1}: nb(t, "33121", StateS),
		{3, 0}: nb(t, "10233", StateT),
	}
	snap, err := NewSnapshot(p45, owner, 0, p45.D-1, entries)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Owner() != owner || snap.Params() != p45 {
		t.Error("snapshot metadata wrong")
	}
	if snap.Get(0, 1).ID.String() != "33121" || snap.Get(3, 0).ID.String() != "10233" {
		t.Error("entries lost")
	}
	count := 0
	snap.ForEach(func(level, digit int, n Neighbor) { count++ })
	if count != 2 {
		t.Errorf("ForEach visited %d", count)
	}
	// Level-range form.
	part, err := NewSnapshot(p45, owner, 2, 3, map[[2]int]Neighbor{{3, 0}: nb(t, "10233", StateS)})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := part.LevelRange(); lo != 2 || hi != 3 {
		t.Errorf("range [%d,%d]", lo, hi)
	}
	// The streamed form builds the same snapshot.
	streamed, err := SnapshotFrom(p45, owner, 2, 3, 1, func() (int, int, Neighbor, error) {
		return 3, 0, nb(t, "10233", StateS), nil
	})
	if err != nil || !reflect.DeepEqual(streamed, part) {
		t.Errorf("SnapshotFrom: %v, %v, want %v", err, streamed, part)
	}
	// Empty occupants are not entries.
	if s, err := NewSnapshot(p45, owner, 0, 4, map[[2]int]Neighbor{{1, 1}: {}}); err != nil || s.FilledCount() != 0 {
		t.Errorf("NewSnapshot kept an empty occupant: %v, %d entries", err, s.FilledCount())
	}
	// Inverted range yields an empty snapshot.
	inv, err := NewSnapshot(p45, owner, 3, 1, nil)
	if err != nil || inv.FilledCount() != 0 {
		t.Errorf("inverted range: %v, %d entries", err, inv.FilledCount())
	}
}

func TestNewSnapshotErrors(t *testing.T) {
	owner := id.MustParse(p45, "21233")
	if _, err := NewSnapshot(id.Params{B: 1, D: 5}, owner, 0, 4, nil); err == nil {
		t.Error("bad params accepted")
	}
	if _, err := NewSnapshot(id.Params{B: 4, D: 8}, owner, 0, 7, nil); err == nil {
		t.Error("wrong-length owner accepted")
	}
	if _, err := NewSnapshot(p45, owner, -1, 4, nil); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := NewSnapshot(p45, owner, 0, 4, map[[2]int]Neighbor{{9, 0}: nb(t, "10233", StateS)}); err == nil {
		t.Error("out-of-range entry accepted")
	}
	if _, err := NewSnapshot(p45, owner, 0, 4, map[[2]int]Neighbor{{0, 9}: nb(t, "10233", StateS)}); err == nil {
		t.Error("out-of-range digit accepted")
	}
	// The streamed form: each entry in turn, at (level, digit) = pos[k].
	stream := func(pos ...[2]int) func() (int, int, Neighbor, error) {
		k := 0
		return func() (int, int, Neighbor, error) {
			k++
			return pos[k-1][0], pos[k-1][1], nb(t, "10233", StateS), nil
		}
	}
	if _, err := SnapshotFrom(p45, owner, 0, 5, 1, stream([2]int{0, 0})); err == nil {
		t.Error("streamed form: out-of-range hi accepted")
	}
	if _, err := SnapshotFrom(p45, owner, 2, 2, p45.B+1, stream()); err == nil {
		t.Error("streamed form: more entries than the level holds accepted")
	}
	if _, err := SnapshotFrom(p45, owner, 0, -1, 1, stream()); err == nil {
		t.Error("streamed form: an entry in the empty range accepted")
	}
	if _, err := SnapshotFrom(p45, owner, 1, 2, 1, stream([2]int{0, 3})); err == nil {
		t.Error("streamed form: entry below lo accepted")
	}
	if _, err := SnapshotFrom(p45, owner, 0, 4, 2, stream([2]int{1, 2}, [2]int{1, 1})); err == nil {
		t.Error("streamed form: descending entries accepted")
	}
	if _, err := SnapshotFrom(p45, owner, 0, 4, 2, stream([2]int{1, 2}, [2]int{1, 2})); err == nil {
		t.Error("streamed form: duplicate entry accepted")
	}
	empty := func() (int, int, Neighbor, error) { return 0, 0, Neighbor{}, nil }
	if _, err := SnapshotFrom(p45, owner, 0, 4, 1, empty); err == nil {
		t.Error("streamed form: empty occupant accepted")
	}
	cause := errors.New("truncated")
	failing := func() (int, int, Neighbor, error) { return 0, 0, Neighbor{}, cause }
	if _, err := SnapshotFrom(p45, owner, 0, 4, 1, failing); err != cause {
		t.Errorf("streamed form: next's error came back as %v, want it as is", err)
	}
}

func TestBitVectorWordsRoundTrip(t *testing.T) {
	v := NewBitVector(100)
	for _, i := range []int{0, 31, 64, 99} {
		v.Set(i)
	}
	back := NewBitVector(100)
	for i := 0; i < v.WordCount(); i++ {
		back.SetWord(i, v.Word(i))
	}
	if back.Count() != v.Count() {
		t.Fatalf("Count %d vs %d", back.Count(), v.Count())
	}
	for i := 0; i < 100; i++ {
		if back.Get(i) != v.Get(i) {
			t.Fatalf("bit %d differs", i)
		}
	}
	// The rebuilt vector owns its words: clearing it leaves v alone.
	back.SetWord(0, 0)
	if !v.Get(0) {
		t.Error("SetWord wrote through to the source vector")
	}
}

func TestSnapshotMissingIn(t *testing.T) {
	// Owner 21233's table with occupants at their canonical coordinates;
	// peer 00233 shares the rightmost three digits with the owner.
	owner := id.MustParse(p45, "21233")
	peer := id.MustParse(p45, "00233")
	tbl := New(p45, owner)
	tbl.Set(0, 1, nb(t, "33121", StateS)) // csuf(peer)=0, digit 1 -> bit 1
	tbl.Set(1, 0, nb(t, "00033", StateS)) // csuf(peer)=2, digit 0 -> bit 8... entry key below
	tbl.Set(3, 0, nb(t, "00233", StateS)) // the peer itself: never shipped
	tbl.Set(2, 1, nb(t, "01233", StateT)) // csuf(peer)=3, digit 1 -> bit 13

	// An empty digest pulls everything except the peer itself.
	empty := NewBitVector(p45.D * p45.B)
	got := tbl.MissingIn(peer, empty)
	if got.FilledCount() != 3 {
		t.Fatalf("FilledCount = %d with empty digest, want 3", got.FilledCount())
	}
	if !got.Get(3, 0).IsZero() {
		t.Fatal("peer shipped to itself")
	}
	// Entries keep their coordinates in the owner's table.
	if got.Get(2, 1).ID != id.MustParse(p45, "01233") {
		t.Fatalf("entry (2,1) = %v, want 01233", got.Get(2, 1).ID)
	}

	// Mark the slots 33121 and 00033 would land in (computed from the
	// IDs: level = csuf with the peer, digit = that level's digit) as
	// already filled: only 01233 still ships.
	fill := NewBitVector(p45.D * p45.B)
	for _, s := range []string{"33121", "00033"} {
		x := id.MustParse(p45, s)
		k := peer.CommonSuffixLen(x)
		fill.Set(k*p45.B + x.Digit(k))
	}
	got = tbl.MissingIn(peer, fill)
	if got.FilledCount() != 1 {
		t.Fatalf("FilledCount = %d with partial digest, want 1", got.FilledCount())
	}
	if got.Get(2, 1).IsZero() {
		t.Fatal("undigested entry was withheld")
	}

	// Converged steady state: the peer's digest covers every occupant's
	// peer-canonical slot, so nothing ships.
	x := id.MustParse(p45, "01233")
	k := peer.CommonSuffixLen(x)
	fill.Set(k*p45.B + x.Digit(k))
	if n := tbl.MissingIn(peer, fill).FilledCount(); n != 0 {
		t.Fatalf("converged digest still shipped %d entries", n)
	}
}
