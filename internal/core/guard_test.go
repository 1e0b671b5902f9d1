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
	seed.SetClock(func() time.Duration { return now })

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

// TestDeferredJoinBudget: a T-node parks at most MaxDeferredJoins waiters;
// excess JoinWaits are shed and counted.
func TestDeferredJoinBudget(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	j := core.NewJoiner(p, ref(p, "3210"), core.Options{Budgets: core.Budgets{MaxDeferredJoins: 2}})
	for _, s := range []string{"0123", "1111", "2222"} {
		j.Deliver(msg.Envelope{From: ref(p, s), To: j.Self(), Msg: msg.JoinWait{}})
	}
	gs := j.GuardStats()
	if gs.BusyDeferred != 1 {
		t.Errorf("BusyDeferred = %d, want 1", gs.BusyDeferred)
	}
	if got := j.JoinStateSize(); got != 2 {
		t.Errorf("JoinStateSize = %d, want 2 parked joins", got)
	}
	// A repeat from an already-parked waiter is not shed.
	j.Deliver(msg.Envelope{From: ref(p, "0123"), To: j.Self(), Msg: msg.JoinWait{}})
	if gs = j.GuardStats(); gs.BusyDeferred != 1 {
		t.Errorf("repeat JoinWait shed: BusyDeferred = %d, want 1", gs.BusyDeferred)
	}
}

// TestReverseNeighborBudget: the reverse set stops growing at MaxReverse.
func TestReverseNeighborBudget(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	seed := core.NewSeed(p, ref(p, "3210"), core.Options{Budgets: core.Budgets{MaxReverse: 2}})
	for _, s := range []string{"0123", "1111", "2222", "0001"} {
		seed.AddReverseNeighbor(ref(p, s))
	}
	if got := len(seed.ReverseNeighbors()); got != 2 {
		t.Errorf("reverse set size = %d, want 2", got)
	}
	if gs := seed.GuardStats(); gs.BusyDeferred != 2 {
		t.Errorf("BusyDeferred = %d, want 2", gs.BusyDeferred)
	}
}

// TestReverseSetMatchesAMap drives a random history of registrations,
// re-addressings, drops, LeaveMsgs and failure drops against a map of
// the reverse set: after every step the machine's set must be the map's
// refs ascending by ID with the latest address, hold no more than
// MaxReverse, and ReverseGen must have moved exactly when the map
// changed — and on every LeaveMsg and DropUnreachable, which bump it
// whatever they find.
func TestReverseSetMatchesAMap(t *testing.T) {
	const maxReverse = 40
	p := id.Params{B: 4, D: 5}
	rng := rand.New(rand.NewSource(9))
	self := ref(p, "32100")
	m := core.NewSeed(p, self, core.Options{Budgets: core.Budgets{MaxReverse: maxReverse}})
	pool := make([]id.ID, 0, 64)
	for len(pool) < cap(pool) {
		if x := id.Random(p, rng); x != self.ID && !slices.Contains(pool, x) {
			pool = append(pool, x)
		}
	}
	want := make(map[id.ID]table.Ref)
	gen := m.ReverseGen()
	for step := 0; step < 5000; step++ {
		x := pool[rng.Intn(len(pool))]
		switch op := rng.Intn(5); op {
		case 0, 1: // register, often re-addressing a known node
			r := table.Ref{ID: x, Addr: fmt.Sprintf("sim://%v/%d", x, rng.Intn(3))}
			m.AddReverseNeighbor(r)
			if old, ok := want[x]; ok && old != r || !ok && len(want) < maxReverse {
				want[x] = r
				gen++
			}
		case 2:
			m.DropReverseNeighbor(x)
			if _, ok := want[x]; ok {
				delete(want, x)
				gen++
			}
		case 3:
			m.Deliver(msg.Envelope{From: table.Ref{ID: x, Addr: "sim://" + x.String()}, To: self, Msg: msg.Leave{}})
			delete(want, x)
			gen++
		case 4:
			m.DropUnreachable(table.Ref{ID: x, Addr: "sim://" + x.String()})
			delete(want, x)
			gen++
		}
		got := m.ReverseNeighbors()
		refs := make([]table.Ref, 0, len(want))
		for _, r := range want {
			refs = append(refs, r)
		}
		slices.SortFunc(refs, func(a, b table.Ref) int { return a.ID.Compare(b.ID) })
		if !slices.Equal(got, refs) {
			t.Fatalf("step %d: reverse set %v, want %v", step, got, refs)
		}
		if m.ReverseGen() != gen {
			t.Fatalf("step %d: ReverseGen %d, want %d", step, m.ReverseGen(), gen)
		}
	}
}
