package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/guard"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
)

// hostileMsg is a message type no protocol handler knows about.
type hostileMsg struct{}

func (hostileMsg) Type() msg.Type { return msg.Type(77) }
func (hostileMsg) Big() bool      { return false }
func (hostileMsg) WireSize() int  { return 1 }

// Regression for the Deliver panic on unknown message types: the machine
// must count and drop, never crash.
func TestDeliverUnknownTypeDropped(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	seed := core.NewSeed(p, ref(p, "3210"), core.Options{})
	out := seed.Deliver(msg.Envelope{From: ref(p, "0123"), To: seed.Self(), Msg: hostileMsg{}})
	if len(out) != 0 {
		t.Errorf("unknown message produced %d replies, want 0", len(out))
	}
	if got := seed.GuardStats().Rejected; got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
	if got := seed.Counters().TotalRejected(); got != 1 {
		t.Errorf("TotalRejected = %d, want 1", got)
	}
}

// Regression: a hostile RvNghNotiRly with out-of-range coordinates used to
// reach Table.SetState and panic.
func TestDeliverOutOfRangeCoordsRejected(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	seed := core.NewSeed(p, ref(p, "3210"), core.Options{})
	for _, pm := range []msg.Message{
		msg.RvNghNotiRly{Level: 17, Digit: 0, State: table.StateS},
		msg.RvNghNotiRly{Level: 0, Digit: -4, State: table.StateS},
		msg.RvNghNoti{Level: -1, Digit: 0, State: table.StateS},
		msg.CpRst{Level: p.D},
	} {
		out := seed.Deliver(msg.Envelope{From: ref(p, "0123"), To: seed.Self(), Msg: pm})
		if len(out) != 0 {
			t.Errorf("%v: produced %d replies, want 0", pm.Type(), len(out))
		}
	}
	if got := seed.GuardStats().Rejected; got != 4 {
		t.Errorf("Rejected = %d, want 4", got)
	}
}

// Regression: a Find whose wanted suffix is fully carried by the receiver
// while the receiver is the avoided node used to index entry (|Want|, ·)
// and panic. It must answer Blocked.
func TestFindAvoidingSelfAnswersBlocked(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	self := ref(p, "3210")
	origin := ref(p, "0123")
	seed := core.NewSeed(p, self, core.Options{})
	out := seed.Deliver(msg.Envelope{From: origin, To: self, Msg: msg.Find{
		Want:   id.MustParseSuffix(p, "3210"),
		Origin: origin,
		Avoid:  self.ID,
	}})
	if len(out) != 1 {
		t.Fatalf("produced %d replies, want 1", len(out))
	}
	rly, ok := out[0].Msg.(msg.FindRly)
	if !ok || !rly.Blocked {
		t.Fatalf("reply = %#v, want blocked FindRly", out[0].Msg)
	}
}

// quarantine delivers env until the machine quarantines its sender and
// returns how many deliveries that took.
func quarantine(t *testing.T, m *core.Machine, env msg.Envelope) int {
	t.Helper()
	for i := 1; i <= 100; i++ {
		m.Deliver(env)
		if m.PeerQuarantined(env.From.ID) {
			return i
		}
	}
	t.Fatalf("%v never quarantined", env.From.ID)
	return 0
}

// TestMachineQuarantineLifecycle drives the full quarantine loop through
// Deliver: repeated malformed messages quarantine the sender, whose
// traffic is then dropped at ingress until the cooldown expires.
func TestMachineQuarantineLifecycle(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	self := ref(p, "3210")
	attacker := ref(p, "0123")
	seed := core.NewSeed(p, self, core.Options{Guard: &guard.Policy{}})
	var now time.Duration

	bad := msg.Envelope{From: attacker, To: self, Msg: msg.CpRst{Level: 99}}
	charges := quarantine(t, seed, bad)
	gs := seed.GuardStats()
	if gs.Rejected != charges || gs.Scorer.Quarantines != 1 || gs.Scorer.Quarantined != 1 {
		t.Fatalf("after charges: %+v, want %d rejected, 1 quarantine", gs, charges)
	}

	// A perfectly valid request from the quarantined peer is dropped at
	// ingress — no reply, no handler side effects.
	good := msg.Envelope{From: attacker, To: self, Msg: msg.CpRst{Level: 0}}
	if out := seed.Deliver(good); len(out) != 0 {
		t.Fatalf("quarantined peer got %d replies, want 0", len(out))
	}
	if gs = seed.GuardStats(); gs.IngressDropped != 1 {
		t.Fatalf("IngressDropped = %d, want 1", gs.IngressDropped)
	}

	// The quarantined peer must not be reinstalled from gossip: harvest a
	// table carrying it and check it stays out of ours.
	gossiper := ref(p, "1110")
	gtbl := table.New(p, gossiper.ID)
	gtbl.Set(0, attacker.ID.Digit(0), table.Neighbor{ID: attacker.ID, Addr: attacker.Addr, State: table.StateS})
	seed.Deliver(msg.Envelope{From: gossiper, To: self, Msg: msg.SyncPush{Table: gtbl.Snapshot()}})
	k := self.ID.CommonSuffixLen(attacker.ID)
	if got := seed.Table().Get(k, attacker.ID.Digit(k)); got.ID == attacker.ID {
		t.Fatal("quarantined peer was installed from gossiped table")
	}

	// After the cooldown the peer is released and served again.
	for seed.PeerQuarantined(attacker.ID) {
		if now += time.Second; now > time.Hour {
			t.Fatal("quarantine never expired")
		}
		seed.Advance(now)
	}
	out := seed.Deliver(good)
	if len(out) != 1 {
		t.Fatalf("released peer got %d replies, want 1", len(out))
	}
	if _, ok := out[0].Msg.(msg.CpRly); !ok {
		t.Fatalf("released peer got %T, want CpRly", out[0].Msg)
	}
	if gs = seed.GuardStats(); gs.Scorer.Releases != 1 || gs.Scorer.Quarantined != 0 {
		t.Fatalf("after cooldown: %+v, want 1 release, 0 active", gs)
	}
}

// distinctRefs returns n distinct refs of p, none of them self.
func distinctRefs(p id.Params, self id.ID, n int, rng *rand.Rand) []table.Ref {
	seen := map[id.ID]bool{self: true}
	refs := make([]table.Ref, 0, n)
	for len(refs) < n {
		if x := id.Random(p, rng); !seen[x] {
			seen[x] = true
			refs = append(refs, table.Ref{ID: x, Addr: "sim://" + x.String()})
		}
	}
	return refs
}

// TestDeferredJoinBudget: a T-node parks at most MaxDeferredJoins waiters;
// excess JoinWaits are shed and counted.
func TestDeferredJoinBudget(t *testing.T) {
	p := id.Params{B: 16, D: 4}
	j := core.NewJoiner(p, ref(p, "3210"), core.Options{})
	waiters := distinctRefs(p, j.Self().ID, core.MaxDeferredJoins+1, rand.New(rand.NewSource(3)))
	for _, w := range waiters {
		j.Deliver(msg.Envelope{From: w, To: j.Self(), Msg: msg.JoinWait{}})
	}
	gs := j.GuardStats()
	if gs.BusyDeferred != 1 {
		t.Errorf("BusyDeferred = %d, want 1", gs.BusyDeferred)
	}
	if got := j.JoinStateSize(); got != core.MaxDeferredJoins {
		t.Errorf("JoinStateSize = %d, want %d parked joins", got, core.MaxDeferredJoins)
	}
	// A repeat from an already-parked waiter is not shed.
	j.Deliver(msg.Envelope{From: waiters[0], To: j.Self(), Msg: msg.JoinWait{}})
	if gs = j.GuardStats(); gs.BusyDeferred != 1 {
		t.Errorf("repeat JoinWait shed: BusyDeferred = %d, want 1", gs.BusyDeferred)
	}
}

// TestReverseNeighborBudget: the reverse set stops growing at MaxReverse.
func TestReverseNeighborBudget(t *testing.T) {
	p := id.Params{B: 16, D: 4}
	seed := core.NewSeed(p, ref(p, "3210"), core.Options{})
	for _, r := range distinctRefs(p, seed.Self().ID, core.MaxReverse+2, rand.New(rand.NewSource(4))) {
		seed.AddReverseNeighbor(r)
	}
	if got := len(seed.ReverseNeighbors()); got != core.MaxReverse {
		t.Errorf("reverse set size = %d, want %d", got, core.MaxReverse)
	}
	if gs := seed.GuardStats(); gs.BusyDeferred != 2 {
		t.Errorf("BusyDeferred = %d, want 2", gs.BusyDeferred)
	}
}

// TestReverseSetMatchesAMap drives a random history of registrations,
// re-addressings, drops, LeaveMsgs and failure drops against a model of
// the reverse set: after every step the machine's set must be the
// model's refs ascending by ID with the latest address, hold no more
// than MaxReverse, and ReverseGen must have moved exactly when the
// model changed — and on every LeaveMsg and DropUnreachable, which bump
// it whatever they find. The history starts from a full set and draws
// from twice as many nodes, registering more often than it removes, so
// the set hovers at its budget.
func TestReverseSetMatchesAMap(t *testing.T) {
	p := id.Params{B: 16, D: 4}
	rng := rand.New(rand.NewSource(9))
	self := ref(p, "3210")
	m := core.NewSeed(p, self, core.Options{})
	pool := distinctRefs(p, self.ID, 2*core.MaxReverse, rng)
	// want is the model, ascending by ID.
	var want []table.Ref
	find := func(x id.ID) (int, bool) {
		return slices.BinarySearchFunc(want, x, func(r table.Ref, x id.ID) int { return r.ID.Compare(x) })
	}
	gen := m.ReverseGen()
	register := func(r table.Ref) {
		m.AddReverseNeighbor(r)
		switch i, ok := find(r.ID); {
		case ok && want[i] != r:
			want[i] = r
			gen++
		case !ok && len(want) < core.MaxReverse:
			want = slices.Insert(want, i, r)
			gen++
		}
	}
	forget := func(x id.ID) bool {
		i, ok := find(x)
		if ok {
			want = slices.Delete(want, i, i+1)
		}
		return ok
	}
	for _, r := range pool[:core.MaxReverse] {
		register(r)
	}
	for step := 0; step < 5000; step++ {
		x := pool[rng.Intn(len(pool))].ID
		switch op := rng.Intn(8); op {
		case 0, 1, 2, 3, 4: // register, often re-addressing a known node
			register(table.Ref{ID: x, Addr: fmt.Sprintf("sim://%v/%d", x, rng.Intn(3))})
		case 5:
			m.DropReverseNeighbor(x)
			if forget(x) {
				gen++
			}
		case 6:
			m.Deliver(msg.Envelope{From: table.Ref{ID: x, Addr: "sim://" + x.String()}, To: self, Msg: msg.Leave{}})
			forget(x)
			gen++
		case 7:
			m.DropUnreachable(table.Ref{ID: x, Addr: "sim://" + x.String()})
			forget(x)
			gen++
		}
		if got := m.ReverseNeighbors(); !slices.Equal(got, want) {
			t.Fatalf("step %d: reverse set of %d differs from the model's %d", step, len(got), len(want))
		}
		if m.ReverseGen() != gen {
			t.Fatalf("step %d: ReverseGen %d, want %d", step, m.ReverseGen(), gen)
		}
	}
	if gs := m.GuardStats(); gs.BusyDeferred == 0 {
		t.Error("the history never reached the budget")
	}
}
