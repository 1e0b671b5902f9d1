// Package table implements the neighbor tables of the hypercube routing
// scheme: d levels of b entries, where the (i,j)-entry of node x points to
// a node whose ID shares the rightmost i digits with x.ID and whose i-th
// digit is j (Liu & Lam, ICDCS 2003, §2.1).
//
// As in the paper's join-protocol analysis, each entry stores a single
// primary neighbor together with a state bit (T = still joining,
// S = in system). Tables attached to protocol messages travel as
// immutable Snapshots.
package table

import (
	"fmt"
	"strings"

	"hypercube/internal/id"
)

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
	owner   id.ID
	entries []Neighbor // d*b entries, row-major by level
	version uint64     // bumped on every mutation

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

// New returns an empty table for the given owner in space p.
func New(p id.Params, owner id.ID) *Table {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("table: invalid params: %v", err))
	}
	if owner.Len() != p.D {
		panic(fmt.Sprintf("table: owner %v has %d digits, want %d", owner, owner.Len(), p.D))
	}
	return &Table{
		params:  p,
		owner:   owner,
		entries: make([]Neighbor, p.D*p.B),
	}
}

// Params returns the ID-space parameters of the table.
func (t *Table) Params() id.Params { return t.params }

// Owner returns the ID of the node owning this table.
func (t *Table) Owner() id.ID { return t.owner }

func (t *Table) index(level, digit int) int {
	if level < 0 || level >= t.params.D || digit < 0 || digit >= t.params.B {
		panic(fmt.Sprintf("table: entry (%d,%d) out of range for b=%d d=%d",
			level, digit, t.params.B, t.params.D))
	}
	return level*t.params.B + digit
}

// Get returns the (level,digit)-entry; the zero Neighbor if empty.
func (t *Table) Get(level, digit int) Neighbor {
	return t.entries[t.index(level, digit)]
}

// Set stores n in the (level,digit)-entry, overwriting any previous value.
// Callers are responsible for the protocol rule of only filling empty
// entries; Set itself is unconditional so that the diagonal self-entries
// can be installed.
func (t *Table) Set(level, digit int, n Neighbor) {
	i := t.index(level, digit)
	if t.entries[i] == n {
		return
	}
	t.entries[i] = n
	t.version++
}

// SetState updates the state bit of the (level,digit)-entry if it
// currently holds node x; it reports whether an update happened.
func (t *Table) SetState(level, digit int, x id.ID, s State) bool {
	i := t.index(level, digit)
	if t.entries[i].ID != x {
		return false
	}
	if t.entries[i].State != s {
		t.entries[i].State = s
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
	t.index(level, digit) // panics out of range, like DesiredSuffix
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
func (t *Table) FilledCount() int {
	c := 0
	for _, e := range t.entries {
		if !e.IsZero() {
			c++
		}
	}
	return c
}

// ForEach calls fn for every non-empty entry in (level, digit) order.
func (t *Table) ForEach(fn func(level, digit int, n Neighbor)) {
	for i, e := range t.entries {
		if !e.IsZero() {
			fn(i/t.params.B, i%t.params.B, e)
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
	entries := make([]Neighbor, len(t.entries))
	copy(entries, t.entries)
	t.snapCache = Snapshot{params: t.params, owner: t.owner, lo: 0, hi: t.params.D - 1, entries: entries}
	t.snapVersion = t.version
	t.snapValid = true
	return t.snapCache
}

// SnapshotLevels returns a snapshot restricted to levels lo..hi inclusive,
// implementing the paper's §6.2 message-size reduction (only the levels a
// receiver can use are shipped). Entries outside the range read as empty.
func (t *Table) SnapshotLevels(lo, hi int) Snapshot {
	if lo < 0 {
		lo = 0
	}
	if hi >= t.params.D {
		hi = t.params.D - 1
	}
	if lo > hi {
		return Snapshot{params: t.params, owner: t.owner, lo: 0, hi: -1}
	}
	n := (hi - lo + 1) * t.params.B
	entries := make([]Neighbor, n)
	copy(entries, t.entries[lo*t.params.B:(hi+1)*t.params.B])
	return Snapshot{params: t.params, owner: t.owner, lo: lo, hi: hi, entries: entries}
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
	for i, e := range t.entries {
		if !e.IsZero() {
			v.Set(i)
		}
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
// range). It is safe to share across goroutines.
type Snapshot struct {
	params  id.Params
	owner   id.ID
	lo, hi  int        // inclusive level range; hi < lo means empty
	entries []Neighbor // (hi-lo+1)*b cells, or none when all are empty
}

// NewSnapshot assembles a snapshot from explicit parts — the inverse of a
// wire decoding. entries lists the non-empty entries with their
// coordinates; levels outside [lo,hi] are rejected. The input map is
// copied.
func NewSnapshot(p id.Params, owner id.ID, lo, hi int, entries map[[2]int]Neighbor) (Snapshot, error) {
	s, err := snapshotShell(p, owner, lo, hi)
	if err != nil || hi < lo {
		return s, err
	}
	s.entries = make([]Neighbor, (hi-lo+1)*p.B)
	for pos, n := range entries {
		level, digit := pos[0], pos[1]
		if level < lo || level > hi || digit < 0 || digit >= p.B {
			return Snapshot{}, fmt.Errorf("table: snapshot entry (%d,%d) outside range", level, digit)
		}
		s.entries[(level-lo)*p.B+digit] = n
	}
	return s, nil
}

// SnapshotOfCells is NewSnapshot for a caller that already holds the
// dense form: cells[(level-lo)·b+digit] for every cell of levels lo..hi,
// empty ones zero. The slice is adopted, not copied; the caller gives it
// up.
func SnapshotOfCells(p id.Params, owner id.ID, lo, hi int, cells []Neighbor) (Snapshot, error) {
	s, err := snapshotShell(p, owner, lo, hi)
	if err != nil || hi < lo {
		return s, err
	}
	if len(cells) != (hi-lo+1)*p.B {
		return Snapshot{}, fmt.Errorf("table: %d cells for levels [%d,%d], want %d", len(cells), lo, hi, (hi-lo+1)*p.B)
	}
	s.entries = cells
	return s, nil
}

// snapshotShell checks a snapshot's header and returns it without cells.
func snapshotShell(p id.Params, owner id.ID, lo, hi int) (Snapshot, error) {
	if err := p.Validate(); err != nil {
		return Snapshot{}, err
	}
	if owner.Len() != p.D {
		return Snapshot{}, fmt.Errorf("table: snapshot owner %v has %d digits, want %d", owner, owner.Len(), p.D)
	}
	if hi < lo {
		return Snapshot{params: p, owner: owner, lo: 0, hi: -1}, nil
	}
	if lo < 0 || hi >= p.D {
		return Snapshot{}, fmt.Errorf("table: snapshot level range [%d,%d] out of bounds", lo, hi)
	}
	return Snapshot{params: p, owner: owner, lo: lo, hi: hi}, nil
}

// Validate checks the invariants a snapshot received from an untrusted
// peer must satisfy before any entry of it is harvested: every occupant's
// state is T or S, its ID has exactly d digits, and it carries the
// entry's desired suffix — digit · owner[level-1..0] (§2.1). NewSnapshot
// already enforces coordinate ranges; Validate covers the semantic rest.
// The zero snapshot (no table attached) is valid.
func (s Snapshot) Validate() error {
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
		case !Qualifies(s.owner, level, digit, n.ID):
			bad = fmt.Errorf("table: entry (%d,%d) occupant %v lacks suffix %v",
				level, digit, n.ID, s.owner.Suffix(level).Extend(digit))
		}
	})
	return bad
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

// Get returns the (level,digit)-entry, or the zero Neighbor if the entry
// is empty or outside the captured level range.
func (s Snapshot) Get(level, digit int) Neighbor {
	if level < s.lo || level > s.hi || digit < 0 || digit >= s.params.B || len(s.entries) == 0 {
		return Neighbor{}
	}
	return s.entries[(level-s.lo)*s.params.B+digit]
}

// ForEach calls fn for every non-empty captured entry in (level, digit)
// order.
func (s Snapshot) ForEach(fn func(level, digit int, n Neighbor)) {
	for i, e := range s.entries {
		if !e.IsZero() {
			fn(s.lo+i/s.params.B, i%s.params.B, e)
		}
	}
}

// FilledCount returns the number of non-empty entries captured.
func (s Snapshot) FilledCount() int {
	c := 0
	for _, e := range s.entries {
		if !e.IsZero() {
			c++
		}
	}
	return c
}

// WireSize estimates the encoded size of the snapshot in bytes, used by
// the cost accounting of §5.2. Each filled entry costs the ID digits plus
// a 6-byte address and a state byte; empty entries cost one presence bit.
func (s Snapshot) WireSize() int {
	bits := (s.hi - s.lo + 1) * s.params.B
	filled := s.FilledCount()
	return (bits+7)/8 + filled*(s.params.D+6+1)
}

// Filtered returns a copy of the snapshot containing only entries whose
// index bit is clear in mask, i.e. entries the requester reported missing.
// Levels at or above keepFrom are always included, matching §6.2 ("as well
// as all level-i' neighbors, noti_level <= i' <= d-1").
func (s Snapshot) Filtered(mask BitVector, keepFrom int) Snapshot {
	out := make([]Neighbor, len(s.entries))
	for i, e := range s.entries {
		if e.IsZero() {
			continue
		}
		level := s.lo + i/s.params.B
		digit := i % s.params.B
		if level >= keepFrom || !mask.Get(level*s.params.B+digit) {
			out[i] = e
		}
	}
	return Snapshot{params: s.params, owner: s.owner, lo: s.lo, hi: s.hi, entries: out}
}

// MissingIn returns a copy of the snapshot containing only the occupants
// whose canonical entry in peer's table is empty according to peer's fill
// vector. An occupant u of any entry belongs, in peer's table, at
// (k, u[k]) with k = |csuf(peer, u)| — computable from the two IDs alone —
// so the result carries exactly the nodes peer is missing: between two
// converged tables it is empty, and after a partition heals it shrinks to
// nothing as the anti-entropy rounds progress.
func (s Snapshot) MissingIn(peer id.ID, fill BitVector) Snapshot {
	var out []Neighbor // allocated at the first missing occupant
	for i, e := range s.entries {
		if e.IsZero() || e.ID == peer {
			continue
		}
		k := peer.CommonSuffixLen(e.ID)
		if k >= s.params.D {
			continue // e is peer itself under a different address
		}
		if !fill.Get(k*s.params.B + e.ID.Digit(k)) {
			if out == nil {
				out = make([]Neighbor, len(s.entries))
			}
			out[i] = e
		}
	}
	return Snapshot{params: s.params, owner: s.owner, lo: s.lo, hi: s.hi, entries: out}
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
