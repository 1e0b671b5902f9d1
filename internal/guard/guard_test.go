package guard

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
)

var tp = id.Params{B: 4, D: 4}

func ref(t *testing.T, s string) table.Ref {
	t.Helper()
	return table.Ref{ID: id.MustParse(tp, s), Addr: "sim://" + s}
}

// snapOf builds a minimal valid snapshot owned by owner: just the
// owner's diagonal entries, like a fresh seed table.
func snapOf(t *testing.T, owner table.Ref) table.Snapshot {
	t.Helper()
	tbl := table.New(tp, owner.ID)
	for i := 0; i < tp.D; i++ {
		tbl.Set(i, owner.ID.Digit(i), table.Neighbor{ID: owner.ID, Addr: owner.Addr, State: table.StateS})
	}
	return tbl.Snapshot()
}

// TestCheckValidMessages asserts Check accepts one well-formed envelope
// of every message type — the guard must never reject honest traffic.
func TestCheckValidMessages(t *testing.T) {
	self := ref(t, "0321")
	from := ref(t, "1201")
	snap := snapOf(t, from)
	fill := table.NewBitVector(tp.D * tp.B)
	valid := []msg.Message{
		msg.CpRst{Level: 2},
		msg.CpRly{Table: snap},
		msg.JoinWait{},
		msg.JoinWaitRly{R: msg.Positive, U: self, Table: snap},
		msg.JoinNoti{Table: snap, NotiLevel: 1, FillVector: fill},
		msg.JoinNotiRly{R: msg.Negative, Table: snap, F: true},
		msg.InSysNoti{},
		msg.SpeNoti{X: from, Y: ref(t, "2211")},
		msg.SpeNotiRly{X: self, Y: ref(t, "2211")},
		msg.RvNghNoti{Level: 0, Digit: self.ID.Digit(0), State: table.StateS},
		msg.RvNghNotiRly{Level: 1, Digit: 2, State: table.StateT},
		msg.Leave{Table: snap},
		msg.LeaveRly{},
		msg.Find{Want: id.MustParseSuffix(tp, "21"), Origin: from},
		msg.FindRly{Want: id.MustParseSuffix(tp, "21"), Found: table.Neighbor{ID: id.MustParse(tp, "3021"), State: table.StateS}},
		&msg.Ping{Seq: 7, Origin: from, Target: ref(t, "2211")},
		msg.Pong{Seq: 7},
		msg.FailedNoti{Failed: ref(t, "2211")},
		msg.SyncReq{Fill: fill},
		msg.SyncRly{Table: snap, Fill: fill},
		msg.SyncPush{Table: snap},
		msg.SamplePush{},
		msg.SamplePullReq{},
		msg.SamplePullRly{Refs: ascending(t)},
	}
	if len(valid) != len(msg.Types()) {
		t.Fatalf("valid list covers %d types, want %d", len(valid), len(msg.Types()))
	}
	seen := make(map[msg.Type]bool)
	for _, m := range valid {
		seen[m.Type()] = true
		env := msg.Envelope{From: from, To: self, Msg: m}
		if err := Check(tp, self.ID, env); err != nil {
			t.Errorf("Check rejected valid %v: %v", m.Type(), err)
		}
	}
	if len(seen) != len(msg.Types()) {
		t.Errorf("valid list covers %d distinct types, want %d", len(seen), len(msg.Types()))
	}
}

// TestCheckHonestMessagesDoNotAllocate guards the per-message cost of
// admission: the largest honest message — a CpRly carrying a table with
// every entry filled — and the most frequent ones must pass without a
// single allocation.
func TestCheckHonestMessagesDoNotAllocate(t *testing.T) {
	self, from := ref(t, "0321"), ref(t, "1201")
	tbl := table.New(tp, from.ID)
	for level := 0; level < tp.D; level++ {
		for digit := 0; digit < tp.B; digit++ {
			// The occupant is the owner with digit substituted at level: it
			// shares the owner's lower digits, which is all the entry asks.
			occ := from.ID.WithDigit(level, digit)
			tbl.Set(level, digit, table.Neighbor{ID: occ, Addr: "sim://" + occ.String(), State: table.StateS})
		}
	}
	env := msg.Envelope{From: from, To: self, Msg: msg.CpRly{Table: tbl.Snapshot()}}
	var err error
	if got := testing.AllocsPerRun(100, func() { err = Check(tp, self.ID, env) }); got != 0 || err != nil {
		t.Errorf("Check on an honest full CpRly: %v allocations, err %v; want 0, nil", got, err)
	}
	// And the most frequent one: 0321 and 1201 share one digit, so 1201
	// stores 0321 at level 1, digit 2.
	env.Msg = msg.RvNghNoti{Level: 1, Digit: 2, State: table.StateS}
	if got := testing.AllocsPerRun(100, func() { err = Check(tp, self.ID, env) }); got != 0 || err != nil {
		t.Errorf("Check on an honest RvNghNoti: %v allocations, err %v; want 0, nil", got, err)
	}
	// A probe is checked through its pointer, never copied into a value.
	env.Msg = &msg.Ping{Seq: 1 << 20, Origin: from, Target: ref(t, "2211")}
	if got := testing.AllocsPerRun(100, func() { err = Check(tp, self.ID, env) }); got != 0 || err != nil {
		t.Errorf("Check on an honest Ping: %v allocations, err %v; want 0, nil", got, err)
	}
}

// TestRvNghNotiSuffixCheckMatchesDefinition compares Check's verdict on
// every coordinate pair with the invariant as §2.1 states it: the
// receiver carries the suffix Digit · from[Level-1..0].
func TestRvNghNotiSuffixCheckMatchesDefinition(t *testing.T) {
	self := ref(t, "0321")
	for _, fromID := range []string{"1201", "3321", "0121", "2320", "1321"} {
		from := ref(t, fromID)
		for level := 0; level < tp.D; level++ {
			for digit := 0; digit < tp.B; digit++ {
				env := msg.Envelope{From: from, To: self, Msg: msg.RvNghNoti{Level: level, Digit: digit, State: table.StateT}}
				want := self.ID.HasSuffix(from.ID.Suffix(level).Extend(digit))
				if err := Check(tp, self.ID, env); (err == nil) != want {
					t.Errorf("RvNghNoti (%d,%d) from %s: Check = %v, receiver qualifies = %v", level, digit, fromID, err, want)
				}
			}
		}
	}
}

// ascending returns two valid refs in ascending ID order.
func ascending(t *testing.T) []table.Ref {
	t.Helper()
	a, b := ref(t, "1201"), ref(t, "2211")
	if a.ID.Less(b.ID) {
		return []table.Ref{a, b}
	}
	return []table.Ref{b, a}
}

// outOfOrder returns two valid refs in descending ID order.
func outOfOrder(t *testing.T) []table.Ref {
	t.Helper()
	a, b := ref(t, "1201"), ref(t, "2211")
	if a.ID.Less(b.ID) {
		return []table.Ref{b, a}
	}
	return []table.Ref{a, b}
}

type unknownMsg struct{}

func (unknownMsg) Type() msg.Type { return msg.Type(99) }
func (unknownMsg) Big() bool      { return false }
func (unknownMsg) WireSize() int  { return 1 }

// TestCheckRejectsMalformed drives one malformed variant of every attack
// class through Check; each must be rejected with a descriptive error.
func TestCheckRejectsMalformed(t *testing.T) {
	self := ref(t, "0321")
	from := ref(t, "1201")
	other := ref(t, "2211")
	snap := snapOf(t, from)
	shortID := id.MustParse(id.Params{B: 4, D: 2}, "31")
	outOfBase := id.MustParse(id.Params{B: 8, D: 4}, "7777")

	// A snapshot whose entry occupant lacks the entry's desired suffix.
	badTbl := table.New(tp, from.ID)
	badTbl.Set(2, 3, table.Neighbor{ID: other.ID, State: table.StateS}) // other "2211" lacks suffix "301"
	// A snapshot with an out-of-range state.
	badState := table.New(tp, from.ID)
	badState.Set(0, from.ID.Digit(0), table.Neighbor{ID: from.ID, State: table.State(9)})
	// A snapshot whose honest entry carries an address over the bound.
	longAddr := table.New(tp, from.ID)
	longAddr.Set(0, from.ID.Digit(0), table.Neighbor{ID: from.ID, Addr: strings.Repeat("a", table.MaxAddr+1), State: table.StateS})

	longWant := id.MustParseSuffix(tp, "0321").Extend(1) // 5 digits > d

	cases := []struct {
		name string
		env  msg.Envelope
		want string // substring of the expected error
	}{
		{"misaddressed", msg.Envelope{From: from, To: other, Msg: msg.JoinWait{}}, "misaddressed"},
		{"nil message", msg.Envelope{From: from, To: self}, "nil message"},
		{"zero sender", msg.Envelope{To: self, Msg: msg.JoinWait{}}, "bad sender"},
		{"self sender", msg.Envelope{From: self, To: self, Msg: msg.JoinWait{}}, "from self"},
		{"short sender id", msg.Envelope{From: table.Ref{ID: shortID}, To: self, Msg: msg.JoinWait{}}, "digits"},
		{"out-of-base sender id", msg.Envelope{From: table.Ref{ID: outOfBase}, To: self, Msg: msg.JoinWait{}}, "out of base"},
		{"oversized addr", msg.Envelope{From: table.Ref{ID: from.ID, Addr: strings.Repeat("a", 300)}, To: self, Msg: msg.JoinWait{}}, "address"},
		{"unknown type", msg.Envelope{From: from, To: self, Msg: unknownMsg{}}, "unknown message"},
		{"CpRst level high", msg.Envelope{From: from, To: self, Msg: msg.CpRst{Level: tp.D}}, "level"},
		{"CpRst level negative", msg.Envelope{From: from, To: self, Msg: msg.CpRst{Level: -1}}, "level"},
		{"table wrong owner", msg.Envelope{From: from, To: self, Msg: msg.CpRly{Table: snapOf(t, other)}}, "owned by"},
		{"table wrong suffix", msg.Envelope{From: from, To: self, Msg: msg.CpRly{Table: badTbl.Snapshot()}}, "suffix"},
		{"table bad state", msg.Envelope{From: from, To: self, Msg: msg.Leave{Table: badState.Snapshot()}}, "state"},
		{"table oversized addr", msg.Envelope{From: from, To: self, Msg: msg.SyncPush{Table: longAddr.Snapshot()}}, "address of 257 bytes exceeds 256"},
		{"JoinWaitRly bad result", msg.Envelope{From: from, To: self, Msg: msg.JoinWaitRly{R: 9, U: self, Table: snap}}, "result"},
		{"JoinWaitRly zero U", msg.Envelope{From: from, To: self, Msg: msg.JoinWaitRly{R: msg.Positive, Table: snap}}, "null ref"},
		{"JoinWaitRly self redirect", msg.Envelope{From: from, To: self, Msg: msg.JoinWaitRly{R: msg.Negative, U: self, Table: snap}}, "redirects to self"},
		{"JoinNoti bad noti level", msg.Envelope{From: from, To: self, Msg: msg.JoinNoti{Table: snap, NotiLevel: -2}}, "noti_level"},
		{"JoinNoti huge fill", msg.Envelope{From: from, To: self, Msg: msg.JoinNoti{Table: snap, FillVector: table.NewBitVector(1 << 16)}}, "fill vector"},
		{"JoinNotiRly bad result", msg.Envelope{From: from, To: self, Msg: msg.JoinNotiRly{R: 0, Table: snap}}, "result"},
		{"SpeNoti zero X", msg.Envelope{From: from, To: self, Msg: msg.SpeNoti{Y: other}}, "X"},
		{"SpeNoti self Y", msg.Envelope{From: from, To: self, Msg: msg.SpeNoti{X: from, Y: self}}, "receiver to itself"},
		{"RvNghNoti level out", msg.Envelope{From: from, To: self, Msg: msg.RvNghNoti{Level: 99, Digit: 0, State: table.StateS}}, "level"},
		{"RvNghNoti digit out", msg.Envelope{From: from, To: self, Msg: msg.RvNghNoti{Level: 0, Digit: -1, State: table.StateS}}, "digit"},
		{"RvNghNoti bad state", msg.Envelope{From: from, To: self, Msg: msg.RvNghNoti{Level: 0, Digit: self.ID.Digit(0), State: 7}}, "state"},
		{"RvNghNoti wrong suffix", msg.Envelope{From: from, To: self, Msg: msg.RvNghNoti{Level: 2, Digit: 0, State: table.StateS}}, "qualify"},
		{"RvNghNotiRly level out", msg.Envelope{From: from, To: self, Msg: msg.RvNghNotiRly{Level: -3, Digit: 0, State: table.StateS}}, "level"},
		{"Find empty want", msg.Envelope{From: from, To: self, Msg: msg.Find{Origin: from}}, "empty suffix"},
		{"Find long want", msg.Envelope{From: from, To: self, Msg: msg.Find{Want: longWant, Origin: from}}, "exceeds"},
		{"Find zero origin", msg.Envelope{From: from, To: self, Msg: msg.Find{Want: id.MustParseSuffix(tp, "1")}}, "origin"},
		{"Find short avoid", msg.Envelope{From: from, To: self, Msg: msg.Find{Want: id.MustParseSuffix(tp, "1"), Origin: from, Avoid: shortID}}, "avoid"},
		{"FindRly wrong suffix", msg.Envelope{From: from, To: self, Msg: msg.FindRly{Want: id.MustParseSuffix(tp, "3"), Found: table.Neighbor{ID: other.ID, State: table.StateS}}}, "suffix"},
		{"FindRly bad state", msg.Envelope{From: from, To: self, Msg: msg.FindRly{Want: id.MustParseSuffix(tp, "1"), Found: table.Neighbor{ID: id.MustParse(tp, "3021"), State: 5}}}, "state"},
		{"FailedNoti zero", msg.Envelope{From: from, To: self, Msg: msg.FailedNoti{}}, "failed"},
		{"SyncReq huge fill", msg.Envelope{From: from, To: self, Msg: msg.SyncReq{Fill: table.NewBitVector(17)}}, "fill vector"},
		{"SyncRly wrong owner", msg.Envelope{From: from, To: self, Msg: msg.SyncRly{Table: snapOf(t, other)}}, "owned by"},
		{"SyncPush wrong owner", msg.Envelope{From: from, To: self, Msg: msg.SyncPush{Table: snapOf(t, other)}}, "owned by"},
		{"SamplePullRly zero ref", msg.Envelope{From: from, To: self, Msg: msg.SamplePullRly{Refs: []table.Ref{{}}}}, "null ref"},
		{"SamplePullRly out of order", msg.Envelope{From: from, To: self, Msg: msg.SamplePullRly{Refs: outOfOrder(t)}}, "out of order"},
		{"SamplePullRly duplicate ref", msg.Envelope{From: from, To: self, Msg: msg.SamplePullRly{Refs: []table.Ref{other, other}}}, "out of order"},
		{"SamplePullRly oversized", msg.Envelope{From: from, To: self, Msg: msg.SamplePullRly{Refs: make([]table.Ref, msg.MaxSampleRefs+1)}}, "exceeds"},
	}
	for _, tc := range cases {
		err := Check(tp, self.ID, tc.env)
		if err == nil {
			t.Errorf("%s: Check accepted malformed envelope", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestScorerQuarantineLifecycle walks the full lifecycle: charges
// accumulate to the threshold, the peer is quarantined for the
// cooldown, then released with a clean score.
func TestScorerQuarantineLifecycle(t *testing.T) {
	s := NewScorer()
	x := id.MustParse(tp, "1201")
	now := time.Duration(0)

	if s.Quarantined(x, now) {
		t.Fatal("fresh peer quarantined")
	}
	for i := 1; i < threshold; i++ {
		if s.Charge(x, 1, now) {
			t.Fatalf("quarantined at charge %d, below threshold %d", i, threshold)
		}
	}
	if !s.Charge(x, 1, now) {
		t.Fatalf("charge %d should quarantine", threshold)
	}
	if !s.Quarantined(x, now) {
		t.Fatal("peer not quarantined after crossing threshold")
	}
	// Mid-cooldown: still quarantined; further charges don't extend it.
	mid := cooldown / 2
	s.Charge(x, 1, mid)
	if !s.Quarantined(x, mid) {
		t.Fatal("peer released mid-cooldown")
	}
	// After the cooldown: released, score reset.
	if s.Quarantined(x, cooldown) {
		t.Fatal("peer still quarantined after cooldown")
	}
	if s.Charge(x, 1, cooldown) {
		t.Fatal("released peer re-quarantined by a single charge")
	}
	st := s.Stats()
	if st.Quarantines != 1 || st.Releases != 1 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want 1 quarantine, 1 release, 0 active", st)
	}
}

// TestScorerDecay: a slow trickle of violations below 1/decay never
// quarantines — the score drains between charges.
func TestScorerDecay(t *testing.T) {
	s := NewScorer()
	x := id.MustParse(tp, "1201")
	for i := 0; i < 100; i++ {
		now := time.Duration(i) * 2 * decay // one charge per 2 decay units
		if s.Charge(x, 1, now) {
			t.Fatalf("slow offender quarantined at charge %d", i)
		}
	}
}

// wide has room for thousands of distinct peer IDs, more than maxPeers.
var wide = id.Params{B: 16, D: 8}

// TestScorerEviction: the tracked-peer map is bounded; rotating spoofed
// IDs cannot grow it past maxPeers.
func TestScorerEviction(t *testing.T) {
	s := NewScorer()
	for i := 0; i < 2*maxPeers; i++ {
		s.Charge(id.FromName(wide, fmt.Sprintf("spoof-%d", i)), 1, 0)
	}
	if len(s.peers) > maxPeers {
		t.Fatalf("scorer tracks %d peers, want <= %d", len(s.peers), maxPeers)
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

// TestScorerEvictionTieBreak: when every tracked peer holds the same
// score, the evicted one is the lowest ID, whatever order the peers
// arrived in.
func TestScorerEvictionTieBreak(t *testing.T) {
	peers := make([]id.ID, maxPeers)
	for i := range peers {
		peers[i] = id.FromName(wide, fmt.Sprintf("peer-%d", i))
	}
	lowest := slices.MinFunc(peers, id.ID.Compare)
	newcomer := id.FromName(wide, "newcomer")
	for seed := int64(0); seed < 8; seed++ {
		order := slices.Clone(peers)
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		s := NewScorer()
		for _, x := range order {
			s.Charge(x, 1, 0)
		}
		s.Charge(newcomer, 1, 0)
		if s.Stats().Evictions != 1 {
			t.Fatalf("seed %d: %d evictions, want 1", seed, s.Stats().Evictions)
		}
		if _, kept := s.peers[lowest]; kept {
			t.Fatalf("seed %d: the lowest ID %v was not the one evicted", seed, lowest)
		}
	}
}

// TestScorerConcurrentHammer drives one scorer from many goroutines the
// way production does — under a shared mutex (the tcptransport node
// serializes scorer access behind the machine lock). Run under -race
// this verifies the locking discipline is sufficient, and the final
// counters must still be coherent: charges accounted exactly, releases
// never exceeding quarantines, and the active-quarantine gauge inside
// its lifetime bounds.
func TestScorerConcurrentHammer(t *testing.T) {
	s := NewScorer()
	var mu sync.Mutex

	// Every other operation hits one of a few hot peers, which cross the
	// threshold, sit out the cooldown and are released while the clock
	// runs; the rest rotate through a pool twice maxPeers, so eviction
	// churns too.
	hot := make([]id.ID, 16)
	for i := range hot {
		hot[i] = id.FromName(wide, fmt.Sprintf("hot-%d", i))
	}
	cold := make([]id.ID, 2*maxPeers)
	for i := range cold {
		cold[i] = id.FromName(wide, fmt.Sprintf("cold-%d", i))
	}

	const workers = 8
	const iters = 2000
	// Each operation advances the shared clock by step, so the run spans
	// more than two cooldowns.
	const step = 3 * cooldown / (workers * iters)
	var clock atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				x := cold[(w*31+i)%len(cold)]
				if i%2 == 1 {
					x = hot[(w*7+i)%len(hot)]
				}
				now := time.Duration(clock.Add(int64(step)))
				mu.Lock()
				if i%3 == 0 {
					s.Quarantined(x, now)
				} else {
					s.Charge(x, 1, now)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	wantCharges := 0
	for w := 0; w < workers; w++ {
		for i := 0; i < iters; i++ {
			if i%3 != 0 {
				wantCharges++
			}
		}
	}
	if st.Charges != wantCharges {
		t.Errorf("charges = %d, want %d", st.Charges, wantCharges)
	}
	if st.Releases == 0 || st.Evictions == 0 {
		t.Errorf("stats = %+v: the hammer never released a quarantine or evicted a peer", st)
	}
	if st.Releases > st.Quarantines {
		t.Errorf("releases %d exceed quarantines %d", st.Releases, st.Quarantines)
	}
	if st.Quarantined < 0 || st.Quarantined > st.Quarantines {
		t.Errorf("active quarantines %d outside [0, %d]", st.Quarantined, st.Quarantines)
	}
	if len(s.peers) > maxPeers {
		t.Errorf("scorer tracks %d peers, want <= maxPeers %d", len(s.peers), maxPeers)
	}
}
