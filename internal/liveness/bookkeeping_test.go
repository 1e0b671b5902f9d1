package liveness

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/rtt"
	"hypercube/internal/table"
)

// checkBookkeeping recomputes, by walking every target and every
// in-flight probe, what the prober maintains incrementally.
func checkBookkeeping(t *testing.T, p *Prober, when string) {
	t.Helper()
	distressed := 0
	for x, tg := range p.targets {
		if tg.distressed() {
			distressed++
		}
		if tg.ref.ID != x {
			t.Fatalf("%s: target %v filed under %v", when, tg.ref.ID, x)
		}
	}
	if p.distressed != distressed {
		t.Fatalf("%s: distressed = %d, a walk counts %d", when, p.distressed, distressed)
	}
	strays := 0
	owned := map[*target]int{}
	for seq, pr := range p.inflight {
		if pr.deadline < p.earliest {
			t.Fatalf("%s: probe %d expires at %v, before earliest = %v", when, seq, pr.deadline, p.earliest)
		}
		if pr.owner.ref.ID != pr.target {
			t.Fatalf("%s: probe %d for %v owned by target %v", when, seq, pr.target, pr.owner.ref.ID)
		}
		owned[pr.owner]++
		if p.targets[pr.target] != pr.owner {
			strays++
		}
	}
	if p.strays != strays {
		t.Fatalf("%s: strays = %d, a walk counts %d", when, p.strays, strays)
	}
	for _, tg := range p.targets {
		if len(tg.seqs) != owned[tg] {
			t.Fatalf("%s: target %v lists %d probes, %d are in flight", when, tg.ref.ID, len(tg.seqs), owned[tg])
		}
		for _, seq := range tg.seqs {
			if pr, ok := p.inflight[seq]; !ok || pr.owner != tg {
				t.Fatalf("%s: target %v lists probe %d, which is not its own in-flight probe", when, tg.ref.ID, seq)
			}
		}
	}
}

// TestBookkeepingMatchesAWalk drives a prober through random target-set
// changes (including targets dropped with probes in flight and brought
// back before they expire), traffic, answers on time, late and never,
// and partitions, checking the incremental counts after every call.
func TestBookkeepingMatchesAWalk(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		t.Run(fmt.Sprint("adaptive=", adaptive), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			self := mkRef(t, "0000")
			var pool []table.Ref
			for len(pool) < 24 {
				if x := id.Random(p44, rng); x != self.ID {
					pool = append(pool, table.Ref{ID: x, Addr: "sim://" + x.String()})
				}
			}
			p := NewProber(Config{ProbeInterval: 10 * time.Millisecond, ProbeTimeout: 40 * time.Millisecond, SuspectAfter: 2}, self)
			now := time.Duration(0)
			if adaptive {
				p.SetRTT(rtt.New())
			}
			silent := map[id.ID]bool{}
			var delayed []msg.Envelope
			sawStrays := false
			for step := 0; step < 6000; step++ {
				switch op := rng.Intn(60); {
				case op == 0:
					var refs []table.Ref
					for _, r := range pool {
						if rng.Intn(6) > 0 {
							refs = append(refs, r)
						}
					}
					p.SetTargets(refs)
					checkBookkeeping(t, p, "SetTargets")
					sawStrays = sawStrays || p.strays > 0
				case op == 1:
					x := pool[rng.Intn(len(pool))].ID
					silent[x] = !silent[x]
				case op == 2:
					// A partition's worth of peers falls silent, or recovers.
					for _, r := range pool[:16] {
						silent[r.ID] = step%2 == 0
					}
				case op < 10:
					if r := pool[rng.Intn(len(pool))]; !silent[r.ID] {
						p.Observe(r.ID)
						checkBookkeeping(t, p, "Observe")
					}
				default:
					now += time.Duration(rng.Intn(15)) * time.Millisecond
					out, _, _ := p.Tick(now)
					checkBookkeeping(t, p, "Tick")
					pongs := delayed
					delayed = nil
					for _, env := range out {
						pm := env.Msg.(*msg.Ping)
						target := env.To
						if !pm.Target.IsZero() {
							target = pm.Target
						}
						if silent[env.To.ID] || silent[target.ID] {
							continue
						}
						pong := msg.Envelope{From: target, To: self, Msg: msg.Pong{Seq: pm.Seq}}
						if rng.Intn(5) == 0 {
							delayed = append(delayed, pong) // answers a tick late
						} else {
							pongs = append(pongs, pong)
						}
					}
					for _, pong := range pongs {
						p.HandleMessage(pong, now)
						checkBookkeeping(t, p, "Pong")
					}
				}
			}
			st := p.Stats()
			if st.Declared == 0 || st.Unreachable == 0 || st.Recovered == 0 || st.PartitionsExited == 0 || !sawStrays {
				t.Errorf("history too tame to mean much (strays seen: %v): %+v", sawStrays, st)
			}
		})
	}
}

// A target dropped with a probe in flight and monitored again before
// the probe expires: traffic from it must clear that stray probe too,
// as the search of every in-flight probe by ID used to, or its expiry
// would charge the new target a miss.
func TestTrafficClearsAStrayProbe(t *testing.T) {
	self, a := mkRef(t, "0000"), mkRef(t, "1111")
	p := NewProber(cfgFast(), self)
	p.SetTargets([]table.Ref{a})
	if out, _, _ := p.Tick(0); len(out) != 1 {
		t.Fatalf("first tick sent %v, want one probe", out)
	}
	p.SetTargets(nil)
	p.SetTargets([]table.Ref{a})
	checkBookkeeping(t, p, "target back")
	if p.strays != 1 {
		t.Fatalf("strays = %d with the old target's probe still in flight, want 1", p.strays)
	}
	p.Observe(a.ID)
	checkBookkeeping(t, p, "Observe")
	if len(p.inflight) != 0 || p.strays != 0 {
		t.Fatalf("%d probes in flight, %d strays after traffic from their target", len(p.inflight), p.strays)
	}
	p.Tick(time.Second)
	if tg := p.targets[a.ID]; tg.missed != 0 || tg.pending != 1 {
		t.Errorf("missed = %d, pending = %d after the stray's deadline; want 0 and the one fresh probe", tg.missed, tg.pending)
	}
}
