// Package table implements the neighbor tables of the hypercube routing
// scheme: d levels of b entries, where the (i,j)-entry of node x points to
// a node whose ID shares the rightmost i digits with x.ID and whose i-th
// digit is j (Liu & Lam, ICDCS 2003, §2.1).
//
// As in the paper's join-protocol analysis, each entry stores a single
// primary neighbor together with a state bit (T = still joining,
// S = in system). A Table, and the immutable Snapshots that carry it in
// protocol messages, hold only the filled entries, in ascending
// (level,digit) order — the order of the wire's table record. A row
// needs a node sharing one more digit, so only about b·log_b n of the
// d·b entries of an n-node network can fill: past level log_b n a table
// is nearly empty, and at the paper's scale it holds about two fifths of
// its cells. A Table adds one word per level, the level's fill bitmap
// and the count of cells below it, so reading an entry stays O(1).
package table

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"hypercube/internal/id"
)

// MaxAddr bounds a transport address: addresses are host:port strings,
// so anything longer is hostile, and a peer must not be able to make a
// receiver store megabytes per entry. The wire decoder, the guard's ref
// check and Snapshot.Validate hold every address to it.
const MaxAddr = 256

// State records what the table owner believes about a neighbor's status.
type State uint8

const (
	// StateT marks a neighbor believed to still be joining (a T-node).
	StateT State = iota + 1
	// StateS marks a neighbor known to have status in_system (an S-node).
	StateS
)

// String renders the state as the paper's single-letter form.
func (s State) String() string {
	switch s {
	case StateT:
		return "T"
	case StateS:
		return "S"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Neighbor is the link information stored in a table entry: the neighbor's
// ID, its network address, and the owner's view of its state. The zero
// value represents an empty entry.
type Neighbor struct {
	ID    id.ID
	Addr  string // opaque transport address (IP:port in a deployment)
	State State
}

// IsZero reports whether the entry is empty (no neighbor).
func (n Neighbor) IsZero() bool { return n.ID.IsNull() }

// Ref is the ID/address pair without the state bit, used to identify a
// node in message envelopes.
type Ref struct {
	ID   id.ID
	Addr string
}

// IsZero reports whether the reference is empty.
func (r Ref) IsZero() bool { return r.ID.IsNull() }

// Ref extracts the neighbor's identity, dropping the state bit.
func (n Neighbor) Ref() Ref { return Ref{ID: n.ID, Addr: n.Addr} }

// Table is the mutable neighbor table owned by one node. It is not safe
// for concurrent use; every runtime drives a node from a single goroutine
// (or under a lock) and shares tables across nodes only via Snapshot.
type Table struct {
	params  id.Params
	cells   []cell   // the filled entries in ascending index order, as in a Snapshot
	levels  []uint64 // per level: fill bitmap | cells of lower levels << rankShift
	inline  [8]uint64
	owner   id.ID
	version uint64 // bumped on every mutation

	// Snapshot cache: protocol nodes snapshot their table far more often
	// than they mutate it (every reply carries a copy), so Snapshot
	// memoizes the last copy until the next mutation. Snapshots are
	// immutable, making the shared copy safe.
	snapCache   Snapshot
	snapVersion uint64
	snapValid   bool
	// FillVector cache, on the same rule: every sync digest, sync reply
	// and §6.2 notification carries the vector, and it changes only
	// when the table does.
	fillCache   BitVector
	fillVersion uint64
	fillValid   bool
}

// rankShift is where a level word's count of lower cells starts: the
// fill bitmap takes the low id.MaxBase bits, the count the 28 above.
const rankShift = id.MaxBase

// New returns an empty table for the given owner in space p. Its level
// words live in the table's own allocation when d ≤ 8, sparing a Get
// the cache line of a separate slice.
func New(p id.Params, owner id.ID) *Table {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("table: invalid params: %v", err))
	}
	if owner.Len() != p.D {
		panic(fmt.Sprintf("table: owner %v has %d digits, want %d", owner, owner.Len(), p.D))
	}
	if p.D*p.B >= 1<<(64-rankShift) {
		panic(fmt.Sprintf("table: %d entries exceed the level words' count", p.D*p.B))
	}
	t := &Table{params: p, owner: owner}
	if p.D <= len(t.inline) {
		t.levels = t.inline[:p.D]
	} else {
		t.levels = make([]uint64, p.D)
	}
	return t
}

// Params returns the ID-space parameters of the table.
func (t *Table) Params() id.Params { return t.params }

// Owner returns the ID of the node owning this table.
func (t *Table) Owner() id.ID { return t.owner }

// slot returns the (level,digit)-entry's level word and bit; the entry
// is filled iff w&bit != 0, and its cell is (or would be) at rank(w, bit).
func (t *Table) slot(level, digit int) (w, bit uint64) {
	if level < 0 || level >= t.params.D || digit < 0 || digit >= t.params.B {
		panic(fmt.Sprintf("table: entry (%d,%d) out of range for b=%d d=%d",
			level, digit, t.params.B, t.params.D))
	}
	return t.levels[level], 1 << digit
}

// rank returns the position in cells of the entry whose bit in level
// word w is bit: the cells of the lower levels plus the filled entries
// of lower digits.
func rank(w, bit uint64) int {
	return int(w>>rankShift) + bits.OnesCount64(w&(bit-1))
}

// Get returns the (level,digit)-entry; the zero Neighbor if empty.
func (t *Table) Get(level, digit int) Neighbor {
	w, bit := t.slot(level, digit)
	if w&bit == 0 {
		return Neighbor{}
	}
	return t.cells[rank(w, bit)].neighbor()
}

// Set stores n in the (level,digit)-entry, overwriting any previous value;
// a zero n empties the entry. Callers are responsible for the protocol
// rule of only filling empty entries; Set itself is unconditional so that
// the diagonal self-entries can be installed.
func (t *Table) Set(level, digit int, n Neighbor) {
	w, bit := t.slot(level, digit)
	k := rank(w, bit)
	var step uint64 // added to the level words above
	switch {
	case w&bit == 0 && n.IsZero():
		return
	case w&bit == 0:
		if len(t.cells) == cap(t.cells) {
			t.grow()
		}
		t.cells = slices.Insert(t.cells, k, cell{ID: n.ID, Addr: n.Addr, State: n.State, idx: uint32(level*t.params.B + digit)})
		t.levels[level] |= bit
		step = 1 << rankShift
	case n.IsZero():
		t.cells = slices.Delete(t.cells, k, k+1)
		t.levels[level] &^= bit
		step = 1<<64 - 1<<rankShift // minus one cell, modulo 2^64
	case t.cells[k].neighbor() == n:
		return
	default:
		t.cells[k].ID, t.cells[k].Addr, t.cells[k].State = n.ID, n.Addr, n.State
	}
	for l := level + 1; step != 0 && l < len(t.levels); l++ {
		t.levels[l] += step
	}
	t.version++
}

// grow makes room for more cells. The first allocation holds the d
// diagonal entries and two full levels, which a network of b² members
// mostly fills; each later one adds a level's worth, b cells, rather
// than doubling.
func (t *Table) grow() {
	p := t.params
	c := make([]cell, len(t.cells), min(p.D*p.B, max(len(t.cells)+p.B, p.D+2*p.B)))
	copy(c, t.cells)
	t.cells = c
}

// SetState updates the state bit of the (level,digit)-entry if it
// currently holds node x; it reports whether an update happened. An
// empty entry holds no node and has no state.
func (t *Table) SetState(level, digit int, x id.ID, s State) bool {
	w, bit := t.slot(level, digit)
	if w&bit == 0 || t.cells[rank(w, bit)].ID != x {
		return false
	}
	if c := &t.cells[rank(w, bit)]; c.State != s {
		c.State = s
		t.version++
	}
	return true
}

// Version returns the mutation counter, usable for change detection.
func (t *Table) Version() uint64 { return t.version }

// DesiredSuffix returns the ID suffix every occupant of the (level,digit)-
// entry must have: digit · owner[level-1..0].
func (t *Table) DesiredSuffix(level, digit int) id.Suffix {
	if level < 0 || level >= t.params.D || digit < 0 || digit >= t.params.B {
		panic(fmt.Sprintf("table: entry (%d,%d) out of range", level, digit))
	}
	return t.owner.Suffix(level).Extend(digit)
}

// Qualifies reports whether node x may legally occupy the (level,digit)-
// entry, i.e. x has the entry's desired suffix.
func (t *Table) Qualifies(level, digit int, x id.ID) bool {
	t.slot(level, digit) // panics out of range, like DesiredSuffix
	return Qualifies(t.owner, level, digit, x)
}

// Qualifies reports whether x carries digit · owner[level-1..0], the
// desired suffix of the (level,digit)-entry of owner's table (§2.1). It
// compares digits in place — x shares owner's low level digits and holds
// digit at level — so the per-entry checks on the message path
// (Snapshot.Validate, the guard) never build the suffix.
func Qualifies(owner id.ID, level, digit int, x id.ID) bool {
	return level < x.Len() && x.CommonSuffixLen(owner) >= level && x.Digit(level) == digit
}

// FilledCount returns the number of non-empty entries.
func (t *Table) FilledCount() int { return len(t.cells) }

// ForEach calls fn for every non-empty entry in (level, digit) order. fn
// may change the table: the walk goes on from the first entry past the
// one just visited, as it stands then.
func (t *Table) ForEach(fn func(level, digit int, n Neighbor)) {
	for k := 0; k < len(t.cells); k++ {
		c, v := t.cells[k], t.version
		fn(int(c.idx)/t.params.B, int(c.idx)%t.params.B, c.neighbor())
		if t.version != v {
			k = sort.Search(len(t.cells), func(j int) bool { return t.cells[j].idx > c.idx }) - 1
		}
	}
}

// Snapshot returns an immutable deep copy suitable for embedding in a
// protocol message. Consecutive calls between mutations return the same
// shared (immutable) copy.
func (t *Table) Snapshot() Snapshot {
	if t.snapValid && t.snapVersion == t.version {
		return t.snapCache
	}
	t.snapCache = t.pack(0, t.params.D-1)
	t.snapVersion = t.version
	t.snapValid = true
	return t.snapCache
}

// SnapshotLevels returns a snapshot restricted to levels lo..hi inclusive,
// implementing the paper's §6.2 message-size reduction (only the levels a
// receiver can use are shipped). Entries outside the range read as empty.
func (t *Table) SnapshotLevels(lo, hi int) Snapshot {
	lo, hi = max(lo, 0), min(hi, t.params.D-1)
	if lo > hi {
		return Snapshot{params: t.params, owner: t.owner, lo: 0, hi: -1}
	}
	return t.pack(lo, hi)
}

// pack copies the cells of levels lo..hi, one contiguous run, into a
// snapshot, in one allocation of exactly their number.
func (t *Table) pack(lo, hi int) Snapshot {
	s := Snapshot{params: t.params, owner: t.owner, lo: lo, hi: hi}
	from, to := int(t.levels[lo]>>rankShift), len(t.cells)
	if hi+1 < t.params.D {
		to = int(t.levels[hi+1] >> rankShift)
	}
	if to > from {
		s.cells = slices.Clone(t.cells[from:to])
	}
	return s
}

// FillVector returns the bit vector of §6.2: bit (level*b+digit) is set
// iff the entry is filled. A peer replying to a JoinNotiMsg uses it to
// ship only neighbors the requester is missing. Consecutive calls
// between mutations return the same shared vector; callers must not
// modify it.
func (t *Table) FillVector() BitVector {
	if t.fillValid && t.fillVersion == t.version {
		return t.fillCache
	}
	v := NewBitVector(t.params.D * t.params.B)
	for _, c := range t.cells {
		v.Set(int(c.idx))
	}
	t.fillCache, t.fillVersion, t.fillValid = v, t.version, true
	return v
}

// String renders the table in the style of the paper's Figure 1: levels
// from high to low, one row per digit value, empty entries blank.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Neighbor table of node %v (b=%d, d=%d)\n", t.owner, t.params.B, t.params.D)
	for j := 0; j < t.params.B; j++ {
		for i := t.params.D - 1; i >= 0; i-- {
			e := t.Get(i, j)
			cell := strings.Repeat(".", t.params.D)
			if !e.IsZero() {
				cell = fmt.Sprintf("%v/%v", e.ID, e.State)
			} else {
				cell += "  "
			}
			fmt.Fprintf(&sb, "%-*s ", t.params.D+2, cell)
		}
		fmt.Fprintf(&sb, "| digit %d\n", j)
	}
	return sb.String()
}

// Snapshot is an immutable copy of a table (possibly restricted to a level
// range). It is safe to share across goroutines, and shares no memory
// with the table it copies.
type Snapshot struct {
	params id.Params
	owner  id.ID
	lo, hi int    // inclusive level range; hi < lo means empty
	cells  []cell // the filled entries in ascending index order; nil when none
}

// cell is one filled entry of a table or snapshot: the Neighbor's fields and the
// entry's index level·b+digit, which sits in what would be the
// Neighbor's padding, so a cell is no larger than a Neighbor.
type cell struct {
	ID    id.ID
	Addr  string
	State State
	idx   uint32
}

func (c cell) neighbor() Neighbor { return Neighbor{ID: c.ID, Addr: c.Addr, State: c.State} }

// NewSnapshot assembles a snapshot from explicit parts. entries maps
// coordinates to occupants; empty occupants are dropped and levels
// outside [lo,hi] are rejected. The input map is copied.
func NewSnapshot(p id.Params, owner id.ID, lo, hi int, entries map[[2]int]Neighbor) (Snapshot, error) {
	coords := make([][2]int, 0, len(entries))
	for pos, n := range entries {
		if !n.IsZero() {
			coords = append(coords, pos)
		}
	}
	slices.SortFunc(coords, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	k := 0
	return SnapshotFrom(p, owner, lo, hi, len(coords), func() (int, int, Neighbor, error) {
		pos := coords[k]
		k++
		return pos[0], pos[1], entries[pos], nil
	})
}

// SnapshotFrom assembles a snapshot of levels lo..hi from count filled
// entries that next yields in strictly ascending (level,digit) order, the
// order of the wire's table record, into one allocation of exactly count
// cells. It returns next's first error as is.
func SnapshotFrom(p id.Params, owner id.ID, lo, hi, count int, next func() (level, digit int, n Neighbor, err error)) (Snapshot, error) {
	if err := p.Validate(); err != nil {
		return Snapshot{}, err
	}
	if owner.Len() != p.D {
		return Snapshot{}, fmt.Errorf("table: snapshot owner %v has %d digits, want %d", owner, owner.Len(), p.D)
	}
	if hi < lo {
		lo, hi = 0, -1
	} else if lo < 0 || hi >= p.D {
		return Snapshot{}, fmt.Errorf("table: snapshot level range [%d,%d] out of bounds", lo, hi)
	}
	s := Snapshot{params: p, owner: owner, lo: lo, hi: hi}
	if count < 0 || count > (hi-lo+1)*p.B {
		return Snapshot{}, fmt.Errorf("table: %d snapshot entries for levels [%d,%d]", count, lo, hi)
	}
	if count == 0 {
		return s, nil
	}
	s.cells = make([]cell, count)
	last := -1
	for k := range s.cells {
		level, digit, n, err := next()
		if err != nil {
			return Snapshot{}, err
		}
		idx := level*p.B + digit
		switch {
		case level < lo || level > hi || digit < 0 || digit >= p.B:
			return Snapshot{}, fmt.Errorf("table: snapshot entry (%d,%d) outside range", level, digit)
		case idx <= last:
			return Snapshot{}, fmt.Errorf("table: snapshot entry (%d,%d) out of order", level, digit)
		case n.IsZero():
			return Snapshot{}, fmt.Errorf("table: snapshot entry (%d,%d) is empty", level, digit)
		}
		last = idx
		s.cells[k] = cell{ID: n.ID, Addr: n.Addr, State: n.State, idx: uint32(idx)}
	}
	return s, nil
}

// Validate checks the invariants a snapshot received from an untrusted
// peer must satisfy before any entry of it is harvested: every occupant's
// state is T or S, its ID has exactly d digits, it carries the entry's
// desired suffix — digit · owner[level-1..0] (§2.1) — and its address
// is at most MaxAddr bytes. The constructors already enforce coordinate
// ranges; Validate covers the semantic rest. The zero snapshot (no table
// attached) is valid.
func (s Snapshot) Validate() error {
	for _, c := range s.cells {
		level, digit := int(c.idx)/s.params.B, int(c.idx)%s.params.B
		switch {
		case c.State != StateT && c.State != StateS:
			return fmt.Errorf("table: entry (%d,%d) has invalid state %d", level, digit, c.State)
		case c.ID.Len() != s.params.D:
			return fmt.Errorf("table: entry (%d,%d) occupant %v has %d digits, want %d",
				level, digit, c.ID, c.ID.Len(), s.params.D)
		case !Qualifies(s.owner, level, digit, c.ID):
			return fmt.Errorf("table: entry (%d,%d) occupant %v lacks suffix %v",
				level, digit, c.ID, s.owner.Suffix(level).Extend(digit))
		case len(c.Addr) > MaxAddr:
			return fmt.Errorf("table: entry (%d,%d) address of %d bytes exceeds %d",
				level, digit, len(c.Addr), MaxAddr)
		}
	}
	return nil
}

// Params returns the ID-space parameters of the snapshot.
func (s Snapshot) Params() id.Params { return s.params }

// Owner returns the node whose table was snapshotted.
func (s Snapshot) Owner() id.ID { return s.owner }

// LevelRange returns the inclusive level range captured by the snapshot.
// An empty snapshot returns hi < lo.
func (s Snapshot) LevelRange() (lo, hi int) { return s.lo, s.hi }

// IsZero reports whether the snapshot carries no table at all (the zero
// value), as opposed to a snapshot of an empty table.
func (s Snapshot) IsZero() bool { return s.owner.IsNull() }

// search returns the position of the first cell whose index is at least
// idx.
func (s Snapshot) search(idx int) int {
	return sort.Search(len(s.cells), func(k int) bool { return int(s.cells[k].idx) >= idx })
}

// Get returns the (level,digit)-entry, or the zero Neighbor if the entry
// is empty or outside the captured level range.
func (s Snapshot) Get(level, digit int) Neighbor {
	if level < s.lo || level > s.hi || digit < 0 || digit >= s.params.B {
		return Neighbor{}
	}
	idx := level*s.params.B + digit
	if k := s.search(idx); k < len(s.cells) && int(s.cells[k].idx) == idx {
		return s.cells[k].neighbor()
	}
	return Neighbor{}
}

// ForEach calls fn for every non-empty captured entry in (level, digit)
// order.
func (s Snapshot) ForEach(fn func(level, digit int, n Neighbor)) {
	for _, c := range s.cells {
		level, digit := int(c.idx)/s.params.B, int(c.idx)%s.params.B
		fn(level, digit, c.neighbor())
	}
}

// ForEachInLevel calls fn for every non-empty captured entry of one
// level in digit order, finding the level's first entry by binary search.
func (s Snapshot) ForEachInLevel(level int, fn func(digit int, n Neighbor)) {
	if level < s.lo || level > s.hi {
		return
	}
	base := level * s.params.B
	for _, c := range s.cells[s.search(base):] {
		if int(c.idx) >= base+s.params.B {
			return
		}
		fn(int(c.idx)-base, c.neighbor())
	}
}

// FilledCount returns the number of non-empty entries captured.
func (s Snapshot) FilledCount() int { return len(s.cells) }

// WireSize estimates the encoded size of the snapshot in bytes, used by
// the cost accounting of §5.2. Each filled entry costs the ID digits plus
// a 6-byte address and a state byte; empty entries cost one presence bit.
func (s Snapshot) WireSize() int {
	bits := (s.hi - s.lo + 1) * s.params.B
	return (bits+7)/8 + len(s.cells)*(s.params.D+6+1)
}

// Filtered returns a copy of the snapshot containing only entries whose
// index bit is clear in mask, i.e. entries the requester reported missing.
// Levels at or above keepFrom are always included, matching §6.2 ("as well
// as all level-i' neighbors, noti_level <= i' <= d-1").
func (s Snapshot) Filtered(mask BitVector, keepFrom int) Snapshot {
	return filter(s, s.cells, func(c cell) bool {
		return int(c.idx) >= keepFrom*s.params.B || !mask.Get(int(c.idx))
	})
}

// MissingIn returns a snapshot of the whole table holding only the
// occupants whose canonical entry in peer's table is empty according to
// peer's fill vector. An occupant u of any entry belongs, in peer's
// table, at (k, u[k]) with k = |csuf(peer, u)| — computable from the two
// IDs alone — so the result carries exactly the nodes peer is missing:
// between two converged tables it is empty, and after a partition heals
// it shrinks to nothing as the anti-entropy rounds progress. It reads
// the table's cells in place, so only the entries shipped are copied.
func (t *Table) MissingIn(peer id.ID, fill BitVector) Snapshot {
	b, d := t.params.B, t.params.D
	return filter(Snapshot{params: t.params, owner: t.owner, lo: 0, hi: d - 1}, t.cells, func(c cell) bool {
		k := peer.CommonSuffixLen(c.ID)
		// k = d: the occupant is peer itself, never shipped to itself.
		return k < d && !fill.Get(k*b+c.ID.Digit(k))
	})
}

// filter returns out holding only the cells of from that keep accepts.
// It counts them first, so the copy is one exact-size allocation, and
// none at all when keep accepts nothing.
func filter(out Snapshot, from []cell, keep func(c cell) bool) Snapshot {
	out.cells = nil
	n := 0
	for _, c := range from {
		if keep(c) {
			n++
		}
	}
	if n == 0 {
		return out
	}
	out.cells = make([]cell, 0, n)
	for _, c := range from {
		if keep(c) {
			out.cells = append(out.cells, c)
		}
	}
	return out
}

// BitVector is a fixed-size bit set indexed by entry number
// (level*b + digit), used for the §6.2 message-size reduction.
type BitVector struct {
	bits []uint64
	n    int
}

// NewBitVector returns a vector of n clear bits.
func NewBitVector(n int) BitVector {
	return BitVector{bits: make([]uint64, (n+63)/64), n: n}
}

// WordCount returns the number of 64-bit words backing the vector,
// always ⌈Len/64⌉. With Word it gives codecs allocation-free access to
// the wire representation.
func (v BitVector) WordCount() int { return len(v.bits) }

// Word returns the i-th backing word (bits 64i..64i+63, LSB first).
func (v BitVector) Word(i int) uint64 { return v.bits[i] }

// SetWord stores the i-th backing word, the decode-side counterpart of
// Word. Bits beyond Len in the final word are masked off so a hostile
// word can never make a vector carry phantom bits.
func (v BitVector) SetWord(i int, w uint64) {
	if i < 0 || i >= len(v.bits) {
		panic(fmt.Sprintf("table: word %d out of range %d", i, len(v.bits)))
	}
	if i == len(v.bits)-1 && v.n%64 != 0 {
		w &= (1 << (v.n % 64)) - 1
	}
	v.bits[i] = w
}

// Len returns the number of bits.
func (v BitVector) Len() int { return v.n }

// Set sets bit i.
func (v BitVector) Set(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("table: bit %d out of range %d", i, v.n))
	}
	v.bits[i/64] |= 1 << (i % 64)
}

// Get reports bit i; out-of-range bits read as clear so that vectors from
// smaller tables compose safely.
func (v BitVector) Get(i int) bool {
	if i < 0 || i >= v.n {
		return false
	}
	return v.bits[i/64]&(1<<(i%64)) != 0
}

// Count returns the number of set bits.
func (v BitVector) Count() int {
	c := 0
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			c++
		}
	}
	return c
}

// WireSize is the encoded size of the vector in bytes.
func (v BitVector) WireSize() int { return (v.n + 7) / 8 }
