package overlay

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/msg"
	"hypercube/internal/netcheck"
	"hypercube/internal/table"
)

func requireConsistent(t *testing.T, net *Network) {
	t.Helper()
	if v := net.CheckConsistency(); len(v) != 0 {
		t.Fatalf("network inconsistent (%d violations), first: %v", len(v), v[0])
	}
}

// requireForgotten fails if any survivor still stores one of gone.
func requireForgotten(t *testing.T, net *Network, gone ...id.ID) {
	t.Helper()
	for x, tbl := range net.Tables() {
		tbl.ForEach(func(level, digit int, nb table.Neighbor) {
			for _, d := range gone {
				if nb.ID == d {
					t.Errorf("node %v still stores crashed %v at (%d,%d)", x, d, level, digit)
				}
			}
		})
	}
}

// healWindow is the virtual time the survivors get per crash. E11 gives
// 20 s in its sparse ID space; in p164's a prober can watch every other
// member (79 at n=80), its round-robin reaches each once per 250 ms ×
// 79 ≈ 20 s, and detection takes up to that plus (SuspectAfter +
// ConfirmRounds) × ProbeTimeout = 5 s.
const healWindow = 30 * time.Second

// newHealing builds members into a network on p whose survivors detect
// crashes and repair their own tables — a failure detector at the
// liveness package defaults on every node and clock-driven repair —
// with declared as its event sink. It then runs the clock for
// healWindow, in which every detector hears from each of its peers: a
// peer never heard from is dropped on a crash as unreachable, not
// declared.
func newHealing(p id.Params, declared declaredSink, members []table.Ref, rng *rand.Rand) *Network {
	net := New(Config{
		Params:       p,
		Liveness:     &liveness.Config{},
		Opts:         core.Options{Timeouts: core.Timeouts{RetryAfter: 500 * time.Millisecond}},
		TickInterval: 100 * time.Millisecond,
		Sink:         declared,
	})
	net.BuildDirect(members, rng)
	net.RunFor(healWindow)
	return net
}

// crashAndHeal crashes x, tells no one, and runs the clock for
// healWindow; afterwards no survivor may store x. It returns how many
// survivors stored x before the crash.
func crashAndHeal(t *testing.T, net *Network, x id.ID) (holders int) {
	t.Helper()
	for _, tbl := range net.Tables() {
		stored := false
		tbl.ForEach(func(_, _ int, nb table.Neighbor) { stored = stored || nb.ID == x })
		if stored {
			holders++
		}
	}
	if err := net.InjectFailure(x); err != nil {
		t.Fatal(err)
	}
	net.RunFor(healWindow)
	requireForgotten(t, net, x)
	return holders
}

func TestGracefulLeaveSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := New(Config{Params: p164})
	refs := RandomRefs(p164, 60, rng, nil)
	net.BuildDirect(refs, rng)

	leaver := refs[10].ID
	if err := net.ScheduleLeave(leaver, 0); err != nil {
		t.Fatal(err)
	}
	net.Run()
	gone := net.FinalizeLeaves()
	if len(gone) != 1 || gone[0] != leaver {
		t.Fatalf("FinalizeLeaves = %v", gone)
	}
	if net.Size() != 59 {
		t.Fatalf("Size = %d", net.Size())
	}
	requireConsistent(t, net)
	// No survivor may still point at the leaver.
	for x, tbl := range net.Tables() {
		tbl.ForEach(func(level, digit int, n table.Neighbor) {
			if n.ID == leaver {
				t.Errorf("node %v still stores leaver at (%d,%d)", x, level, digit)
			}
		})
	}
}

func TestGracefulLeaveSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := New(Config{Params: p164})
	refs := RandomRefs(p164, 80, rng, nil)
	net.BuildDirect(refs, rng)

	// 30 nodes leave one at a time; consistency must hold after each.
	perm := rng.Perm(len(refs))
	for i := 0; i < 30; i++ {
		leaver := refs[perm[i]].ID
		if err := net.ScheduleLeave(leaver, net.Engine().Now()); err != nil {
			t.Fatal(err)
		}
		net.Run()
		if gone := net.FinalizeLeaves(); len(gone) != 1 {
			t.Fatalf("leave %d: FinalizeLeaves = %v", i, gone)
		}
		requireConsistent(t, net)
	}
	if net.Size() != 50 {
		t.Fatalf("Size = %d", net.Size())
	}
}

func TestGracefulLeaveConcurrent(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			net := New(Config{
				Params:  p164,
				Latency: HashedUniformLatency(5*time.Millisecond, 90*time.Millisecond, seed),
			})
			refs := RandomRefs(p164, 100, rng, nil)
			net.BuildDirect(refs, rng)

			// 20 nodes leave at the same instant — leavers may have been
			// each other's repair candidates; the RvNghNoti/Leave handshake
			// must re-repair those cases.
			perm := rng.Perm(len(refs))
			for i := 0; i < 20; i++ {
				if err := net.ScheduleLeave(refs[perm[i]].ID, 0); err != nil {
					t.Fatal(err)
				}
			}
			net.Run()
			gone := net.FinalizeLeaves()
			if len(gone) != 20 {
				t.Fatalf("only %d of 20 leaves completed", len(gone))
			}
			requireConsistent(t, net)
		})
	}
}

func TestLeaveLastMemberOfSuffix(t *testing.T) {
	// A leaver that is the sole member of deep suffixes must leave the
	// corresponding entries empty (false-positive freedom), which
	// CheckConsistency verifies on the shrunken member set.
	p := id.Params{B: 4, D: 5}
	rng := rand.New(rand.NewSource(3))
	net := New(Config{Params: p})
	refs := RandomRefs(p, 12, rng, nil) // sparse: most deep suffixes are singletons
	net.BuildDirect(refs, rng)
	if err := net.ScheduleLeave(refs[0].ID, 0); err != nil {
		t.Fatal(err)
	}
	net.Run()
	net.FinalizeLeaves()
	requireConsistent(t, net)
}

// TestLeaveWhileRejoining: a leave scheduled while its member is
// rejoining is carried out once the member is back in system, at the
// first clock-pump round after; a drain without the pump leaves it
// pending.
func TestLeaveWhileRejoining(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := New(Config{Params: p164, Opts: core.Options{Timeouts: core.Timeouts{RetryAfter: 500 * time.Millisecond}}})
	refs := RandomRefs(p164, 30, rng, nil)
	net.BuildDirect(refs, rng)

	leaver := refs[10]
	m, _ := net.Machine(leaver.ID)
	net.nodes[leaver.ID].Advance(net.Engine().Now())
	out, err := m.StartRejoin(refs[0])
	if err != nil {
		t.Fatal(err)
	}
	net.transmit(out)
	if err := net.ScheduleLeave(leaver.ID, net.Engine().Now()); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if st := m.Status(); st != core.StatusInSystem {
		t.Fatalf("rejoin ended in %v", st)
	}
	if gone := net.FinalizeLeaves(); len(gone) != 0 {
		t.Fatalf("FinalizeLeaves = %v before any pump round", gone)
	}
	net.RunFor(time.Second)
	if gone := net.FinalizeLeaves(); len(gone) != 1 || gone[0] != leaver.ID {
		t.Fatalf("FinalizeLeaves = %v, want the rejoined leaver %v", gone, leaver.ID)
	}
	requireConsistent(t, net)
}

func TestLeaveUnknownNode(t *testing.T) {
	net := New(Config{Params: p164})
	if err := net.ScheduleLeave(id.MustParse(p164, "dead"), 0); err == nil {
		t.Fatal("leave of unknown node accepted")
	}
}

func TestLeaveThenJoin(t *testing.T) {
	// Churn both ways: nodes leave, then new nodes join; the network must
	// absorb both transitions.
	rng := rand.New(rand.NewSource(4))
	net := New(Config{Params: p164})
	taken := make(map[id.ID]bool)
	refs := RandomRefs(p164, 70, rng, taken)
	net.BuildDirect(refs, rng)

	for i := 0; i < 10; i++ {
		if err := net.ScheduleLeave(refs[i].ID, 0); err != nil {
			t.Fatal(err)
		}
	}
	net.Run()
	net.FinalizeLeaves()
	requireConsistent(t, net)

	joiners := RandomRefs(p164, 25, rng, taken)
	for _, j := range joiners {
		net.ScheduleJoin(j, refs[30], net.Engine().Now())
	}
	net.Run()
	requireConsistent(t, net)
	for _, j := range joiners {
		m, _ := net.Machine(j.ID)
		if !m.IsSNode() {
			t.Errorf("joiner %v stuck in %v", j.ID, m.Status())
		}
	}
}

func TestFailureRecoverySingle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	declared := declaredSink{}
	refs := RandomRefs(p164, 80, rng, nil)
	net := newHealing(p164, declared, refs, rng)

	dead := refs[7].ID
	if crashAndHeal(t, net, dead) == 0 {
		t.Fatal("nobody stored the dead node — setup broken")
	}
	requireConsistent(t, net)
	if !declared[dead] {
		t.Error("the crash was never declared")
	}
}

func TestFailureRecoverySeries(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	refs := RandomRefs(p164, 100, rng, nil)
	net := newHealing(p164, declaredSink{}, refs, rng)

	perm := rng.Perm(len(refs))
	for i := 0; i < 15; i++ {
		crashAndHeal(t, net, refs[perm[i]].ID)
		requireConsistent(t, net)
	}
	if net.Size() != 85 {
		t.Fatalf("Size = %d", net.Size())
	}
}

func TestFailureRecoveryRoutedPath(t *testing.T) {
	// In small dense ID spaces most repairs are local; force routed ones
	// by using a large sparse space where holders rarely know an
	// alternative member of the dead node's suffix sets.
	p := id.Params{B: 16, D: 8}
	rng := rand.New(rand.NewSource(7))
	refs := RandomRefs(p, 300, rng, nil)
	net := newHealing(p, declaredSink{}, refs, rng)

	perm := rng.Perm(len(refs))
	for i := 0; i < 10; i++ {
		crashAndHeal(t, net, refs[perm[i]].ID)
		requireConsistent(t, net)
	}
	if traffic := net.AggregateTraffic(); traffic.SentOf(msg.TFind) == 0 {
		t.Error("no FindMsg sent; Find path untested at this scale")
	}
}

func TestInjectFailureUnknown(t *testing.T) {
	net := New(Config{Params: p164})
	if err := net.InjectFailure(id.MustParse(p164, "beef")); err == nil {
		t.Fatal("failure of unknown node accepted")
	}
}

func TestLeaveStatusTransitions(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := New(Config{Params: p164})
	refs := RandomRefs(p164, 20, rng, nil)
	net.BuildDirect(refs, rng)
	m, _ := net.Machine(refs[0].ID)
	if err := net.ScheduleLeave(refs[0].ID, 0); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if m.Status() != core.StatusLeft {
		t.Fatalf("leaver status %v, want left", m.Status())
	}
	if got := core.StatusLeaving.String(); got != "leaving" {
		t.Errorf("StatusLeaving renders %q", got)
	}
	if got := core.StatusLeft.String(); got != "left" {
		t.Errorf("StatusLeft renders %q", got)
	}
}

func TestStartLeaveErrorsOnJoiner(t *testing.T) {
	j := core.NewJoiner(p164, table.Ref{ID: id.MustParse(p164, "1234"), Addr: "x"}, core.Options{})
	if _, err := j.StartLeave(); err == nil {
		t.Error("StartLeave on joiner did not error")
	}
	if j.Status() != core.StatusCopying {
		t.Errorf("failed StartLeave changed status to %v", j.Status())
	}
}

func TestChurnMixKeepsReachability(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			churnMix(t, seed)
		})
	}
}

// churnMix runs a long mixed scenario: waves of joins, graceful leaves and
// crashes; after every quiescent phase the survivors form a consistent
// network and can all reach each other.
func churnMix(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	taken := make(map[id.ID]bool)
	refs := RandomRefs(p164, 60, rng, taken)
	net := newHealing(p164, declaredSink{}, refs, rng)
	// live is kept sorted for deterministic selection.
	var live []table.Ref
	live = append(live, refs...)

	pickLive := func() table.Ref { return live[rng.Intn(len(live))] }
	removeLive := func(i int) table.Ref {
		r := live[i]
		live = append(live[:i], live[i+1:]...)
		return r
	}

	for phase := 0; phase < 8; phase++ {
		switch phase % 3 {
		case 0: // join wave
			joiners := RandomRefs(p164, 10, rng, taken)
			for _, j := range joiners {
				net.ScheduleJoin(j, pickLive(), net.Engine().Now())
				live = append(live, j)
			}
			net.Run()
		case 1: // graceful leaves
			scheduled := 0
			for ; scheduled < 5 && len(live) >= 20; scheduled++ {
				x := removeLive(rng.Intn(len(live)))
				if err := net.ScheduleLeave(x.ID, net.Engine().Now()); err != nil {
					t.Fatal(err)
				}
			}
			net.Run()
			if gone := net.FinalizeLeaves(); len(gone) != scheduled {
				t.Fatalf("phase %d: %d of %d scheduled leavers finalized (%v)", phase, len(gone), scheduled, gone)
			}
		case 2: // crash, detected and repaired by the survivors
			if len(live) >= 20 {
				crashAndHeal(t, net, removeLive(rng.Intn(len(live))).ID)
			}
		}
		if v := net.CheckConsistency(); len(v) != 0 {
			t.Fatalf("phase %d: network inconsistent (%d violations), first: %v", phase, len(v), v[0])
		}
		if bad := netcheck.CheckAllPairsReachability(p164, net.Tables()); len(bad) != 0 {
			t.Fatalf("phase %d: %d unreachable pairs", phase, len(bad))
		}
	}
}

func TestGracefulLeaveUnderLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := New(Config{
		Params: p164,
		Loss:   &Loss{Rate: 0.10, Seed: 29},
	})
	refs := RandomRefs(p164, 50, rng, nil)
	net.BuildDirect(refs, rng)

	leaver := refs[7].ID
	if err := net.ScheduleLeave(leaver, 0); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if gone := net.FinalizeLeaves(); len(gone) != 1 {
		t.Fatalf("leave did not complete under loss: FinalizeLeaves = %v", gone)
	}
	requireConsistent(t, net)
	for x, tbl := range net.Tables() {
		tbl.ForEach(func(level, digit int, n table.Neighbor) {
			if n.ID == leaver {
				t.Errorf("node %v still stores leaver at (%d,%d)", x, level, digit)
			}
		})
	}
	if net.Retransmits() == 0 {
		t.Error("loss model inert during leave")
	}
	if net.LostMessages() != 0 {
		t.Errorf("%d leave-protocol messages dead-lettered", net.LostMessages())
	}
}
