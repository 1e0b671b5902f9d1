package table_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
	"hypercube/internal/wire"
)

// dense is the form snapshots had before they held only their filled
// entries: every cell of levels lo..hi, empty ones zero. It is built here
// from the table's own Get and answers every question the way the dense
// Snapshot did, so the sparse form can be checked against it.
type dense struct {
	p      id.Params
	owner  id.ID
	lo, hi int
	cells  []table.Neighbor // (hi-lo+1)·b cells, row-major by level
}

func denseOf(t *table.Table, lo, hi int) dense {
	p := t.Params()
	lo, hi = max(lo, 0), min(hi, p.D-1)
	if lo > hi {
		return dense{p: p, owner: t.Owner(), lo: 0, hi: -1}
	}
	d := dense{p: p, owner: t.Owner(), lo: lo, hi: hi}
	for level := lo; level <= hi; level++ {
		for digit := 0; digit < p.B; digit++ {
			d.cells = append(d.cells, t.Get(level, digit))
		}
	}
	return d
}

func (d dense) get(level, digit int) table.Neighbor {
	if level < d.lo || level > d.hi || digit < 0 || digit >= d.p.B {
		return table.Neighbor{}
	}
	return d.cells[(level-d.lo)*d.p.B+digit]
}

type visit struct {
	level, digit int
	n            table.Neighbor
}

func (d dense) visits() []visit {
	var out []visit
	for i, n := range d.cells {
		if !n.IsZero() {
			out = append(out, visit{d.lo + i/d.p.B, i % d.p.B, n})
		}
	}
	return out
}

func (d dense) wireSize() int {
	return ((d.hi-d.lo+1)*d.p.B+7)/8 + len(d.visits())*(d.p.D+6+1)
}

// keep returns d with only the cells keep accepts.
func (d dense) keep(keep func(level, digit int, n table.Neighbor) bool) dense {
	out := d
	out.cells = make([]table.Neighbor, len(d.cells))
	for _, v := range d.visits() {
		if keep(v.level, v.digit, v.n) {
			out.cells[(v.level-d.lo)*d.p.B+v.digit] = v.n
		}
	}
	return out
}

func (d dense) filtered(mask table.BitVector, keepFrom int) dense {
	return d.keep(func(level, digit int, _ table.Neighbor) bool {
		return level >= keepFrom || !mask.Get(level*d.p.B+digit)
	})
}

func (d dense) missingIn(peer id.ID, fill table.BitVector) dense {
	return d.keep(func(_, _ int, n table.Neighbor) bool {
		k := peer.CommonSuffixLen(n.ID)
		return n.ID != peer && k < d.p.D && !fill.Get(k*d.p.B+n.ID.Digit(k))
	})
}

// validate is the dense Validate: the first entry, in (level,digit)
// order, with an invalid state, a wrong length, a missing suffix or an
// address over the bound.
func (d dense) validate() error {
	for _, v := range d.visits() {
		switch {
		case v.n.State != table.StateT && v.n.State != table.StateS:
			return fmt.Errorf("table: entry (%d,%d) has invalid state %d", v.level, v.digit, v.n.State)
		case v.n.ID.Len() != d.p.D:
			return fmt.Errorf("table: entry (%d,%d) occupant %v has %d digits, want %d",
				v.level, v.digit, v.n.ID, v.n.ID.Len(), d.p.D)
		case !v.n.ID.HasSuffix(d.owner.Suffix(v.level).Extend(v.digit)):
			return fmt.Errorf("table: entry (%d,%d) occupant %v lacks suffix %v",
				v.level, v.digit, v.n.ID, d.owner.Suffix(v.level).Extend(v.digit))
		case len(v.n.Addr) > table.MaxAddr:
			return fmt.Errorf("table: entry (%d,%d) address of %d bytes exceeds %d",
				v.level, v.digit, len(v.n.Addr), table.MaxAddr)
		}
	}
	return nil
}

// requireMatches checks every read of s against the dense reference ref.
func requireMatches(t *testing.T, what string, s table.Snapshot, ref dense) {
	t.Helper()
	if lo, hi := s.LevelRange(); lo != ref.lo || hi != ref.hi || s.Owner() != ref.owner || s.Params() != ref.p {
		t.Fatalf("%s: range [%d,%d] owner %v, want [%d,%d] %v", what, lo, hi, s.Owner(), ref.lo, ref.hi, ref.owner)
	}
	for level := -1; level <= ref.p.D; level++ {
		for digit := -1; digit <= ref.p.B; digit++ {
			if got, want := s.Get(level, digit), ref.get(level, digit); got != want {
				t.Fatalf("%s: Get(%d,%d) = %v, want %v", what, level, digit, got, want)
			}
		}
	}
	var got []visit
	s.ForEach(func(level, digit int, n table.Neighbor) { got = append(got, visit{level, digit, n}) })
	want := ref.visits()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ForEach visited %v, want %v", what, got, want)
	}
	var byLevel []visit
	for level := -1; level <= ref.p.D; level++ {
		s.ForEachInLevel(level, func(digit int, n table.Neighbor) { byLevel = append(byLevel, visit{level, digit, n}) })
	}
	if !reflect.DeepEqual(byLevel, want) {
		t.Fatalf("%s: ForEachInLevel over every level visited %v, want %v", what, byLevel, want)
	}
	if s.FilledCount() != len(want) {
		t.Fatalf("%s: FilledCount = %d, want %d", what, s.FilledCount(), len(want))
	}
	if s.WireSize() != ref.wireSize() {
		t.Fatalf("%s: WireSize = %d, want %d", what, s.WireSize(), ref.wireSize())
	}
	if got, want := fmt.Sprint(s.Validate()), fmt.Sprint(ref.validate()); got != want {
		t.Fatalf("%s: Validate = %s, want %s", what, got, want)
	}
}

// requireRoundTrip encodes s in a CpRly and requires the decoder to
// rebuild exactly s.
func requireRoundTrip(t *testing.T, what string, s table.Snapshot) {
	t.Helper()
	p := s.Params()
	env := msg.Envelope{
		From: table.Ref{ID: s.Owner(), Addr: "from"},
		To:   table.Ref{ID: s.Owner(), Addr: "to"},
		Msg:  msg.CpRly{Table: s},
	}
	payload, err := wire.EncodePayload(p, env)
	if err != nil {
		t.Fatalf("%s: encode: %v", what, err)
	}
	var back table.Snapshot
	if err := wire.DecodePayload(p, payload, func(e msg.Envelope) error {
		back = e.Msg.(msg.CpRly).Table
		return nil
	}); err != nil {
		t.Fatalf("%s: decode: %v", what, err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatalf("%s: decoded %v, want %v", what, back, s)
	}
}

// occupant returns an ID for owner's (level,digit)-entry: one that
// qualifies, or with probability bad a random one, which mostly does not.
func occupant(p id.Params, owner id.ID, level, digit int, bad float64, rng *rand.Rand) id.ID {
	if rng.Float64() < bad {
		return id.Random(p, rng)
	}
	x := id.Random(p, rng)
	for i := 0; i < level; i++ {
		x = x.WithDigit(i, owner.Digit(i))
	}
	return x.WithDigit(level, digit)
}

// TestSparseSnapshotMatchesDense fills tables empty, at random and full,
// in the paper's space and in a wide and a deep one, and checks every
// snapshot read — Get on every cell and off the range, ForEach order,
// FilledCount, WireSize and Validate — on Snapshot, SnapshotLevels,
// Filtered and MissingIn against the dense reference, and each snapshot
// through the wire codec.
func TestSparseSnapshotMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, p := range []id.Params{{B: 16, D: 8}, {B: 36, D: 40}, {B: 2, D: 64}} {
		for _, fill := range []float64{0, 0.4, 1} {
			owner := id.Random(p, rng)
			tbl := table.New(p, owner)
			for level := 0; level < p.D; level++ {
				for digit := 0; digit < p.B; digit++ {
					if rng.Float64() >= fill {
						continue
					}
					x := occupant(p, owner, level, digit, 0.02, rng)
					addr := fmt.Sprintf("10.0.%d.%d:7000", level, digit)
					tbl.Set(level, digit, table.Neighbor{ID: x, Addr: addr, State: table.StateT + table.State(rng.Intn(2))})
				}
			}
			name := fmt.Sprintf("b=%d d=%d fill=%.1f", p.B, p.D, fill)
			full := tbl.Snapshot()
			requireMatches(t, name+" Snapshot", full, denseOf(tbl, 0, p.D-1))
			requireRoundTrip(t, name+" Snapshot", full)
			for _, r := range [][2]int{{0, 0}, {1, 2}, {p.D - 1, p.D - 1}, {-3, p.D + 3}, {3, 1}} {
				part := tbl.SnapshotLevels(r[0], r[1])
				what := fmt.Sprintf("%s SnapshotLevels(%d,%d)", name, r[0], r[1])
				requireMatches(t, what, part, denseOf(tbl, r[0], r[1]))
				requireRoundTrip(t, what, part)
			}

			mask := table.NewBitVector(p.D * p.B)
			for i := 0; i < mask.Len(); i++ {
				if rng.Intn(2) == 0 {
					mask.Set(i)
				}
			}
			for _, keepFrom := range []int{0, 2, p.D} {
				what := fmt.Sprintf("%s Filtered(keepFrom=%d)", name, keepFrom)
				got := full.Filtered(mask, keepFrom)
				requireMatches(t, what, got, denseOf(tbl, 0, p.D-1).filtered(mask, keepFrom))
				requireRoundTrip(t, what, got)
			}

			// Peers: a stranger and an occupant, each with an empty, a
			// random and a full fill vector.
			peers := []id.ID{id.Random(p, rng)}
			tbl.ForEach(func(_, _ int, n table.Neighbor) {
				if len(peers) < 2 {
					peers = append(peers, n.ID)
				}
			})
			all := table.NewBitVector(p.D * p.B)
			for i := 0; i < all.Len(); i++ {
				all.Set(i)
			}
			for _, peer := range peers {
				for _, fv := range []table.BitVector{table.NewBitVector(p.D * p.B), mask, all} {
					what := fmt.Sprintf("%s MissingIn(%v, %d bits)", name, peer, fv.Count())
					got := tbl.MissingIn(peer, fv)
					requireMatches(t, what, got, denseOf(tbl, 0, p.D-1).missingIn(peer, fv))
					requireRoundTrip(t, what, got)
				}
				if n := testing.AllocsPerRun(10, func() { tbl.MissingIn(peer, all) }); n != 0 {
					t.Errorf("%s: MissingIn with nothing missing made %v allocations, want 0", name, n)
				}
			}
		}
	}
}

// TestSparseSnapshotValidateMatchesDense gives random tables occupants
// that break each rule — a wrong suffix, an invalid state, an address
// over the bound — and requires the sparse Validate to name the same
// first offender as the dense walk.
func TestSparseSnapshotValidateMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	long := strings.Repeat("a", table.MaxAddr+1)
	for _, p := range []id.Params{{B: 16, D: 8}, {B: 36, D: 40}, {B: 2, D: 64}} {
		for trial := 0; trial < 20; trial++ {
			owner := id.Random(p, rng)
			tbl := table.New(p, owner)
			for k := 0; k < 3*p.D; k++ {
				level, digit := rng.Intn(p.D), rng.Intn(p.B)
				n := table.Neighbor{ID: occupant(p, owner, level, digit, 0.05, rng), Addr: "a", State: table.StateS}
				switch rng.Intn(40) {
				case 0:
					n.State = table.State(rng.Intn(4))
				case 1:
					n.Addr = long
				}
				tbl.Set(level, digit, n)
			}
			what := fmt.Sprintf("b=%d d=%d trial %d", p.B, p.D, trial)
			requireMatches(t, what, tbl.Snapshot(), denseOf(tbl, 0, p.D-1))
		}
	}
}

// TestFilledCountMatchesWalk drives a table through a random history of
// Set and SetState calls — fills, overwrites, clears, state flips, and
// writes of a null ID that leave the entry empty — and compares the
// table's kept count with a walk after every step.
func TestFilledCountMatchesWalk(t *testing.T) {
	p := id.Params{B: 4, D: 3}
	rng := rand.New(rand.NewSource(46))
	tbl := table.New(p, id.Random(p, rng))
	pool := make([]id.ID, 6)
	for i := range pool {
		pool[i] = id.Random(p, rng)
	}
	for step := 0; step < 5000; step++ {
		level, digit := rng.Intn(p.D), rng.Intn(p.B)
		state := table.StateT + table.State(rng.Intn(2))
		switch rng.Intn(5) {
		case 0, 1:
			tbl.Set(level, digit, table.Neighbor{ID: pool[rng.Intn(len(pool))], State: state})
		case 2:
			tbl.Set(level, digit, table.Neighbor{})
		case 3:
			tbl.Set(level, digit, table.Neighbor{State: state})
		case 4:
			x := id.Null
			if rng.Intn(4) > 0 {
				x = pool[rng.Intn(len(pool))]
			}
			tbl.SetState(level, digit, x, state)
		}
		walked := 0
		tbl.ForEach(func(int, int, table.Neighbor) { walked++ })
		if tbl.FilledCount() != walked {
			t.Fatalf("step %d: FilledCount = %d, a walk counts %d", step, tbl.FilledCount(), walked)
		}
		if got := tbl.Snapshot().FilledCount(); got != walked {
			t.Fatalf("step %d: snapshot holds %d entries, a walk counts %d", step, got, walked)
		}
	}
}

// model is the dense table the sparse one replaced: every entry, empty
// ones zero, and the version counted by the same rules — a write that
// changes an entry and a state flip each bump it once.
type model struct {
	p       id.Params
	owner   id.ID
	cells   []table.Neighbor // d·b entries, row-major by level
	version uint64
	visits  []visit // requireTable's buffer
}

func (m *model) set(level, digit int, n table.Neighbor) {
	if n.IsZero() {
		n = table.Neighbor{}
	}
	if i := level*m.p.B + digit; m.cells[i] != n {
		m.cells[i] = n
		m.version++
	}
}

func (m *model) setState(level, digit int, x id.ID, s table.State) bool {
	c := &m.cells[level*m.p.B+digit]
	if c.IsZero() || c.ID != x {
		return false
	}
	if c.State != s {
		c.State = s
		m.version++
	}
	return true
}

// requireVisits requires s to hold levels lo..hi (clamped as
// SnapshotLevels clamps them) of the table whose filled entries are all,
// in order.
func requireVisits(t *testing.T, what string, s table.Snapshot, lo, hi int, all []visit) {
	t.Helper()
	p := s.Params()
	lo, hi = max(lo, 0), min(hi, p.D-1)
	if lo > hi {
		lo, hi = 0, -1
	}
	from := sort.Search(len(all), func(k int) bool { return all[k].level >= lo })
	to := sort.Search(len(all), func(k int) bool { return all[k].level > hi })
	want := all[from:max(from, to)]
	k := 0
	s.ForEach(func(level, digit int, n table.Neighbor) {
		if k >= len(want) || want[k] != (visit{level, digit, n}) {
			t.Fatalf("%s: visit %d is (%d,%d) %v, want the visits %v", what, k, level, digit, n, want)
		}
		k++
	})
	if l, h := s.LevelRange(); k != len(want) || l != lo || h != hi {
		t.Fatalf("%s: levels [%d,%d] with %d entries, want [%d,%d] with %d", what, l, h, k, lo, hi, len(want))
	}
}

// requireTable checks every read of tbl against m.
func requireTable(t *testing.T, what string, tbl *table.Table, m *model) {
	t.Helper()
	want := m.visits[:0]
	fv := tbl.FillVector()
	for i, n := range m.cells {
		if got := tbl.Get(i/m.p.B, i%m.p.B); got != n {
			t.Fatalf("%s: Get(%d,%d) = %v, want %v", what, i/m.p.B, i%m.p.B, got, n)
		}
		if fv.Get(i) == n.IsZero() {
			t.Fatalf("%s: fill bit %d is %v for entry %v", what, i, fv.Get(i), n)
		}
		if !n.IsZero() {
			want = append(want, visit{i / m.p.B, i % m.p.B, n})
		}
	}
	m.visits = want
	if fv.Len() != len(m.cells) {
		t.Fatalf("%s: fill vector of %d bits, want %d", what, fv.Len(), len(m.cells))
	}
	k := 0
	tbl.ForEach(func(level, digit int, n table.Neighbor) {
		if k >= len(want) || want[k] != (visit{level, digit, n}) {
			t.Fatalf("%s: ForEach visit %d is (%d,%d) %v", what, k, level, digit, n)
		}
		k++
	})
	if k != len(want) || tbl.FilledCount() != len(want) || tbl.Version() != m.version {
		t.Fatalf("%s: %d visits, FilledCount %d, Version %d, want %d, %d and %d",
			what, k, tbl.FilledCount(), tbl.Version(), len(want), len(want), m.version)
	}
	d := m.p.D
	requireVisits(t, what+" Snapshot", tbl.Snapshot(), 0, d-1, want)
	for _, r := range [][2]int{{0, 0}, {0, d / 2}, {1, d - 1}, {d / 2, d / 2}, {d - 1, d - 1}, {-2, d + 2}, {3, 1}} {
		requireVisits(t, fmt.Sprintf("%s SnapshotLevels(%d,%d)", what, r[0], r[1]), tbl.SnapshotLevels(r[0], r[1]), r[0], r[1], want)
	}
}

// TestSparseTableMatchesDense drives tables through 5,000 random steps —
// fills, overwrites, rewrites of the same value, clears, null-ID writes,
// SetState on held, other and empty entries, and walks that clear or
// refill entries as they go — and after each step compares every read
// with the dense model. The spaces cross the level words kept inside the
// table (d ≤ 8) and outside it, and the counts of lower cells past 255.
func TestSparseTableMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, p := range []id.Params{{B: 16, D: 8}, {B: 16, D: 40}, {B: 36, D: 40}, {B: 2, D: 64}, {B: 7, D: 90}} {
		owner := id.Random(p, rng)
		tbl := table.New(p, owner)
		m := &model{p: p, owner: owner, cells: make([]table.Neighbor, p.D*p.B)}
		states := []table.State{table.StateT, table.StateS}
		fresh := func(level, digit int) table.Neighbor {
			return table.Neighbor{
				ID:    occupant(p, owner, level, digit, 0, rng),
				Addr:  fmt.Sprintf("10.0.%d.%d:%d", level, digit, rng.Intn(3)),
				State: states[rng.Intn(2)],
			}
		}
		for step := 0; step < 5000; step++ {
			level, digit := rng.Intn(p.D), rng.Intn(p.B)
			held := m.cells[level*p.B+digit]
			switch k := rng.Intn(10); k {
			case 0, 1, 2, 3:
				n := fresh(level, digit)
				tbl.Set(level, digit, n)
				m.set(level, digit, n)
			case 4:
				tbl.Set(level, digit, held)
				m.set(level, digit, held)
			case 5, 6:
				n := table.Neighbor{}
				if k == 6 {
					n.State, n.Addr = table.StateS, "null"
				}
				tbl.Set(level, digit, n)
				m.set(level, digit, n)
			case 7, 8:
				x := held.ID
				switch rng.Intn(3) {
				case 0:
					x = id.Null
				case 1:
					x = occupant(p, owner, level, digit, 0, rng)
				}
				s := states[rng.Intn(2)]
				if got, want := tbl.SetState(level, digit, x, s), m.setState(level, digit, x, s); got != want {
					t.Fatalf("b=%d d=%d step %d: SetState(%d,%d,%v) = %v, want %v", p.B, p.D, step, level, digit, x, got, want)
				}
			case 9:
				// A walk that empties some entries it visits and fills
				// others, as a leave's repairs do: it must go on from the
				// entry past the one it visited, as the table then stands.
				// The walks over the model and the table draw their
				// writes from one seed, in visit order.
				seed := rng.Int63()
				walk := func(r *rand.Rand, l, d int, set func(l, d int, n table.Neighbor)) {
					switch r.Intn(4) {
					case 0:
						set(l, d, table.Neighbor{})
					case 2:
						l, d = r.Intn(p.D), r.Intn(p.B)
						fallthrough
					case 1:
						set(l, d, table.Neighbor{ID: occupant(p, owner, l, d, 0, r), Addr: "w", State: table.StateS})
					}
				}
				var got, want []visit
				r := rand.New(rand.NewSource(seed))
				for i := range m.cells {
					if n := m.cells[i]; !n.IsZero() {
						want = append(want, visit{i / p.B, i % p.B, n})
						walk(r, i/p.B, i%p.B, m.set)
					}
				}
				r = rand.New(rand.NewSource(seed))
				tbl.ForEach(func(l, d int, n table.Neighbor) {
					got = append(got, visit{l, d, n})
					walk(r, l, d, tbl.Set)
				})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("b=%d d=%d step %d: a writing walk visited %v, want %v", p.B, p.D, step, got, want)
				}
			}
			requireTable(t, fmt.Sprintf("b=%d d=%d step %d", p.B, p.D, step), tbl, m)
		}
	}
}
