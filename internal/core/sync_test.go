package core_test

import (
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
	"hypercube/internal/trace"
)

// syncNet builds a consistent 6-node network for sync/audit tests.
func syncNet(t *testing.T) (*pump, id.Params) {
	t.Helper()
	p := id.Params{B: 4, D: 4}
	pp := newPump(t, p, nil)
	seed := core.NewSeed(p, ref(p, "0000"), core.Options{})
	pp.add(seed)
	var joiners []*core.Machine
	for _, s := range []string{"1111", "2222", "3333", "0011", "0101"} {
		joiners = append(joiners, core.NewJoiner(p, ref(p, s), core.Options{}))
	}
	joinAll(pp, seed.Self(), joiners)
	pp.requireConsistent()
	return pp, p
}

// occupants returns the set of distinct non-self occupants of m's table.
func occupants(m *core.Machine) map[id.ID]bool {
	out := make(map[id.ID]bool)
	self := m.Self().ID
	m.Table().ForEach(func(_, _ int, n table.Neighbor) {
		if n.ID != self {
			out[n.ID] = true
		}
	})
	return out
}

func TestSyncRoundRepairsDivergence(t *testing.T) {
	pp, p := syncNet(t)
	a := pp.machines[id.MustParse(p, "1111")]
	b := pp.machines[id.MustParse(p, "2222")]
	inB := occupants(b)
	inA := occupants(a)

	// Simulate lost notifications: blank one entry on each side, each
	// holding a node the other side still knows. The sets are disjoint so
	// the A<->B exchange is the only way back.
	var coordA, coordB [2]int
	var lostA, lostB id.ID
	a.Table().ForEach(func(level, digit int, n table.Neighbor) {
		if lostA.IsNull() && n.ID != a.Self().ID && inB[n.ID] {
			coordA, lostA = [2]int{level, digit}, n.ID
		}
	})
	b.Table().ForEach(func(level, digit int, n table.Neighbor) {
		if lostB.IsNull() && n.ID != b.Self().ID && n.ID != lostA && inA[n.ID] {
			coordB, lostB = [2]int{level, digit}, n.ID
		}
	})
	if lostA.IsNull() || lostB.IsNull() {
		t.Fatal("test network too sparse to stage divergence")
	}
	a.Table().Set(coordA[0], coordA[1], table.Neighbor{})
	b.Table().Set(coordB[0], coordB[1], table.Neighbor{})

	// One push-pull round initiated by A repairs both sides.
	pp.enqueue(a.StartSync(b.Self(), trace.Context{}))
	pp.run()
	if got := a.Table().Get(coordA[0], coordA[1]).ID; got != lostA {
		t.Fatalf("A entry %v = %v after sync, want %v", coordA, got, lostA)
	}
	if got := b.Table().Get(coordB[0], coordB[1]).ID; got != lostB {
		t.Fatalf("B entry %v = %v after sync (push leg), want %v", coordB, got, lostB)
	}
	if a.SyncPulled() == 0 {
		t.Fatal("SyncPulled did not count the repaired entry")
	}
	pp.requireConsistent()
}

func TestSyncGatedToSNodes(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	pp := newPump(t, p, nil)
	seed := core.NewSeed(p, ref(p, "0000"), core.Options{})
	pp.add(seed)
	joiner := core.NewJoiner(p, ref(p, "1111"), core.Options{})
	pp.add(joiner)
	// A node that has not joined yet neither initiates nor answers syncs.
	if out := joiner.StartSync(seed.Self(), trace.Context{}); out != nil {
		t.Fatalf("joiner initiated a sync: %v", out)
	}
	fill := seed.Table().FillVector()
	out := joiner.Deliver(msg.Envelope{From: seed.Self(), To: joiner.Self(), Msg: msg.SyncReq{Fill: fill}})
	if len(out) != 0 {
		t.Fatalf("joiner answered a sync request: %v", out)
	}
	// Self- and zero-peer syncs are no-ops.
	if out := seed.StartSync(seed.Self(), trace.Context{}); out != nil {
		t.Fatalf("self-sync produced traffic: %v", out)
	}
	if out := seed.StartSync(table.Ref{}, trace.Context{}); out != nil {
		t.Fatalf("zero-peer sync produced traffic: %v", out)
	}
}

func TestAuditPurgesGhostAndWrongSuffix(t *testing.T) {
	pp, p := syncNet(t)
	a := pp.machines[id.MustParse(p, "1111")]
	victim := pp.machines[id.MustParse(p, "2222")]
	stray := pp.machines[id.MustParse(p, "3333")] // distinct from victim: DeclareFailed below wipes victim everywhere

	// Wrong suffix: plant a live node in an entry it does not qualify
	// for. In a consistent table every empty entry has no qualifying
	// member, so after the purge it legally stays empty.
	var wrongCoord [2]int
	found := false
	for level := 0; level < p.D && !found; level++ {
		for digit := 0; digit < p.B && !found; digit++ {
			if a.Table().Get(level, digit).IsZero() && !a.Table().Qualifies(level, digit, stray.Self().ID) {
				wrongCoord = [2]int{level, digit}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no empty non-qualifying entry to corrupt")
	}
	a.Table().Set(wrongCoord[0], wrongCoord[1], table.Neighbor{ID: stray.Self().ID, Addr: stray.Self().Addr, State: table.StateS})

	// Ghost: a node A knows failed creeps back in (e.g. via a stale
	// peer's table copy) at its canonical coordinate.
	_ = a.DeclareFailed(victim.Self()) // traffic dropped: only A's verdict matters here
	k := a.Self().ID.CommonSuffixLen(victim.Self().ID)
	ghostCoord := [2]int{k, victim.Self().ID.Digit(k)}
	a.Table().Set(ghostCoord[0], ghostCoord[1], table.Neighbor{ID: victim.Self().ID, Addr: victim.Self().Addr, State: table.StateS})

	purged, _ := a.AuditTable()
	if purged != 2 || a.AuditPurged() != 2 {
		t.Fatalf("purged %d (total %d), want both corruptions gone", purged, a.AuditPurged())
	}
	if got := a.Table().Get(wrongCoord[0], wrongCoord[1]); !got.IsZero() {
		t.Fatalf("wrong-suffix entry still occupied: %+v", got)
	}
	if got := a.Table().Get(ghostCoord[0], ghostCoord[1]).ID; got == victim.Self().ID {
		t.Fatal("ghost survived the audit")
	}

	// Audit is idempotent once the table is clean.
	if again, _ := a.AuditTable(); again != 0 {
		t.Fatalf("second audit purged %d entries from a clean table", again)
	}
}

// TestUnreachableDropStaysDropped: a node this machine dropped as
// unreachable is not handed back by a sync until it is heard from; a
// message from it lifts the tombstone and the next sync re-installs it.
func TestUnreachableDropStaysDropped(t *testing.T) {
	pp, p := syncNet(t)
	a := pp.machines[id.MustParse(p, "1111")]
	b := pp.machines[id.MustParse(p, "2222")]
	var gone table.Ref
	var at [2]int
	a.Table().ForEach(func(level, digit int, n table.Neighbor) {
		if gone.IsZero() && n.ID != a.Self().ID && n.ID != b.Self().ID && occupants(b)[n.ID] {
			gone, at = n.Ref(), [2]int{level, digit}
		}
	})
	if gone.IsZero() {
		t.Fatal("no occupant of 1111 that 2222 also holds")
	}
	pp.enqueue(a.DropUnreachable(gone))
	pp.run()
	pp.enqueue(a.StartSync(b.Self(), trace.Context{}))
	pp.run()
	if got := a.Table().Get(at[0], at[1]).ID; got == gone.ID {
		t.Fatalf("entry %v re-adopted %v from a sync after its unreachable drop", at, gone.ID)
	}

	// Heard from: any delivered message lifts the tombstone.
	pp.enqueue(pp.machines[gone.ID].StartSync(a.Self(), trace.Context{}))
	pp.run()
	pp.enqueue(a.StartSync(b.Self(), trace.Context{}))
	pp.run()
	if got := a.Table().Get(at[0], at[1]).ID; got != gone.ID {
		t.Fatalf("entry %v = %v after %v was heard from and a sync ran, want it back", at, got, gone.ID)
	}
}
