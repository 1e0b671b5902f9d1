package node

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hypercube/internal/antientropy"
	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/msg"
	"hypercube/internal/persist"
	"hypercube/internal/sampling"
	"hypercube/internal/table"
)

// TestRetargetGateChangesNothing drives two identically seeded
// full-stack nodes through the same randomized history — table writes
// and clears, reverse neighbors added and re-addressed, leaves, direct
// and detector-made declarations, unreachable drops, restarts from a
// persisted table, and a last quarter spent departed, when the machine
// ignores what the detector reports — while peers die and come back. One
// node gates
// SetTargets on what moved; the other has its gate reset before every
// Tick, so it rebuilds the monitored set each time as Tick used to.
// Every output and the monitored-set size must match.
func TestRetargetGateChangesNothing(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { driveGated(t, seed, 3000) })
	}
}

func driveGated(t *testing.T, seed int64, steps int) {
	p := id.Params{B: 4, D: 4}
	rng := rand.New(rand.NewSource(seed))
	me := table.Ref{ID: id.MustParse(p, "0000"), Addr: "test://0000"}
	var peers []id.ID
	for len(peers) < 40 {
		if x := id.Random(p, rng); x != me.ID {
			peers = append(peers, x)
		}
	}
	refOf := func(x id.ID) table.Ref {
		return table.Ref{ID: x, Addr: fmt.Sprintf("test://%v#%d", x, rng.Intn(2))}
	}
	cfg := Config{
		Liveness:    &liveness.Config{ProbeInterval: 10 * time.Millisecond, ProbeTimeout: 20 * time.Millisecond},
		AntiEntropy: &antientropy.Config{Interval: 200 * time.Millisecond},
		Sampling:    &sampling.Config{Interval: 100 * time.Millisecond, Seed: seed},
	}
	opts := core.Options{Timeouts: core.Timeouts{RetryAfter: 100 * time.Millisecond}}
	boot := func(tbl *table.Table) *Node { return New(core.NewEstablished(p, me, tbl, opts), cfg) }
	fresh := func() *table.Table {
		tbl := table.New(p, me.ID)
		for i := 0; i < p.D; i++ {
			tbl.Set(i, 0, table.Neighbor{ID: me.ID, Addr: me.Addr, State: table.StateS})
		}
		return tbl
	}
	gated, always := boot(fresh()), boot(fresh())
	both := func(f func(n *Node) []msg.Envelope) {
		t.Helper()
		if a, b := f(gated), f(always); !reflect.DeepEqual(a, b) {
			t.Fatalf("outputs differ:\n gated  %v\n always %v", a, b)
		}
	}

	dead := map[id.ID]bool{}
	now := time.Duration(0)
	for step := 0; step < steps; step++ {
		x := peers[rng.Intn(len(peers))]
		k := me.ID.CommonSuffixLen(x)
		switch op := rng.Intn(14); op {
		case 0, 1, 2:
			nb := table.Neighbor{ID: x, Addr: refOf(x).Addr, State: table.State(1 + rng.Intn(2))}
			both(func(n *Node) []msg.Envelope { n.Table().Set(k, x.Digit(k), nb); return nil })
		case 3:
			s := table.State(1 + rng.Intn(2))
			both(func(n *Node) []msg.Envelope { n.Table().SetState(k, x.Digit(k), x, s); return nil })
		case 4:
			both(func(n *Node) []msg.Envelope { n.Table().Set(k, x.Digit(k), table.Neighbor{}); return nil })
		case 5, 6:
			r := refOf(x)
			both(func(n *Node) []msg.Envelope { n.Machine().AddReverseNeighbor(r); return nil })
		case 7:
			env := msg.Envelope{From: refOf(x), To: me, Msg: msg.Leave{}}
			both(func(n *Node) []msg.Envelope { return n.Deliver(env, now) })
		case 8:
			dead[x] = !dead[x]
		case 9:
			if rng.Intn(4) == 0 {
				r := refOf(x)
				both(func(n *Node) []msg.Envelope { n.Advance(now); return n.Machine().DeclareFailed(r) })
			}
		case 10:
			if rng.Intn(4) == 0 {
				r := refOf(x)
				both(func(n *Node) []msg.Envelope { n.Advance(now); return n.Machine().DropUnreachable(r) })
			}
		case 11:
			if rng.Intn(40) == 0 && step < steps*3/4 {
				gated, always = boot(persist.Restore(gated.Table().Snapshot())), boot(persist.Restore(always.Table().Snapshot()))
			}
		default:
			if !dead[x] {
				env := msg.Envelope{From: refOf(x), To: me, Msg: msg.InSysNoti{}}
				both(func(n *Node) []msg.Envelope { return n.Deliver(env, now) })
			}
		}

		if step == steps*3/4 {
			var acks []msg.Envelope
			both(func(n *Node) []msg.Envelope {
				n.Advance(now)
				out, err := n.Machine().StartLeave()
				if err != nil {
					t.Fatal(err)
				}
				acks = append(acks[:0], out...)
				return out
			})
			for _, env := range acks {
				ack := msg.Envelope{From: env.To, To: me, Msg: msg.LeaveRly{}}
				both(func(n *Node) []msg.Envelope { return n.Deliver(ack, now) })
			}
			if got := gated.Machine().Status(); got != core.StatusLeft {
				t.Fatalf("status %v after every holder acknowledged the leave", got)
			}
		}

		now += time.Duration(1+rng.Intn(4)) * 5 * time.Millisecond
		always.monitored = [3]uint64{}
		var pings []msg.Envelope
		both(func(n *Node) []msg.Envelope {
			out := n.Tick(now)
			pings = append(pings[:0], out...)
			return out
		})
		if a, b := gated.Prober().TargetCount(), always.Prober().TargetCount(); a != b {
			t.Fatalf("step %d: %d targets gated, %d rebuilt every tick", step, a, b)
		}
		// Live peers answer direct probes, and indirect ones relayed by a
		// live helper.
		for _, env := range pings {
			pm, ok := env.Msg.(*msg.Ping)
			target := env.To
			if ok && !pm.Target.IsZero() {
				target = pm.Target
			}
			if !ok || dead[env.To.ID] || dead[target.ID] {
				continue
			}
			pong := msg.Envelope{From: target, To: me, Msg: msg.Pong{Seq: pm.Seq}}
			both(func(n *Node) []msg.Envelope { return n.Deliver(pong, now) })
		}
	}

	a, b := gated.Stats(), always.Stats()
	if a.Liveness.Retargets >= b.Liveness.Retargets {
		t.Errorf("the gate never held: %d rebuilds gated, %d ungated", a.Liveness.Retargets, b.Liveness.Retargets)
	}
	t.Logf("rebuilds: %d gated, %d ungated; declared %d, unreachable %d, suspects %d",
		a.Liveness.Retargets, b.Liveness.Retargets, a.Liveness.Declared, a.Liveness.Unreachable, a.Liveness.Suspects)
	a.Liveness.Retargets, b.Liveness.Retargets = 0, 0
	if a != b {
		t.Errorf("final counters differ:\n gated  %+v\n always %+v", a, b)
	}
}
