package liveness

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
)

var p44 = id.Params{B: 4, D: 4}

func mkRef(t *testing.T, s string) table.Ref {
	t.Helper()
	return table.Ref{ID: id.MustParse(p44, s), Addr: "sim://" + s}
}

func cfgFast() Config {
	return Config{
		ProbeInterval: 100 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		SuspectAfter:  2,
		ConfirmRounds: 2,
	}
}

// drive ticks the prober in small steps up to deadline, feeding every
// probe through respond at the tick's time (nil = blackhole) and
// collecting declarations and unreachable drops.
func drive(p *Prober, deadline time.Duration, respond func(now time.Duration, env msg.Envelope) []msg.Envelope) (declared, unreachable []table.Ref) {
	for now := time.Duration(0); now <= deadline; now += 25 * time.Millisecond {
		out, dec, unr := p.Tick(now)
		declared = append(declared, dec...)
		unreachable = append(unreachable, unr...)
		for len(out) > 0 {
			var next []msg.Envelope
			for _, env := range out {
				if respond == nil {
					continue
				}
				next = append(next, respond(now, env)...)
			}
			out = next
		}
	}
	return declared, unreachable
}

func TestRoutineProbeAnswered(t *testing.T) {
	self := mkRef(t, "0000")
	a := mkRef(t, "1111")
	p := NewProber(cfgFast(), self)
	p.SetTargets([]table.Ref{a})

	// A responsive target is never suspected, let alone declared.
	peer := NewProber(cfgFast(), a)
	declared, _ := drive(p, 3*time.Second, func(now time.Duration, env msg.Envelope) []msg.Envelope {
		if env.To.ID == a.ID {
			return peer.HandleMessage(env, now)
		}
		if env.To.ID == self.ID {
			return p.HandleMessage(env, now)
		}
		return nil
	})
	if len(declared) != 0 {
		t.Fatalf("responsive target declared failed: %v", declared)
	}
	st := p.Stats()
	if st.ProbesSent == 0 || st.PongsReceived == 0 {
		t.Fatalf("no probe round trips recorded: %+v", st)
	}
	if st.Suspects != 0 || st.Declared != 0 {
		t.Fatalf("spurious suspicion: %+v", st)
	}
}

func TestSilentTargetDeclared(t *testing.T) {
	self := mkRef(t, "0000")
	dead := mkRef(t, "1111")
	helper := mkRef(t, "2222")
	p := NewProber(cfgFast(), self)
	p.SetTargets([]table.Ref{dead, helper})

	// The helper answers (and relays indirect probes); dead answers its
	// first probe — proving it was alive once, which is what makes its
	// later silence a declarable crash rather than an unreachable drop —
	// and nothing after that.
	relayed := 0
	deadAnswers := 1
	declared, _ := drive(p, 10*time.Second, func(now time.Duration, env msg.Envelope) []msg.Envelope {
		switch env.To.ID {
		case helper.ID:
			out := RespondPing(nil, helper, env.From, env.Msg.(*msg.Ping))
			for _, e := range out {
				if e.To.ID == dead.ID {
					relayed++
				}
			}
			// Relayed pings vanish into the dead node.
			var keep []msg.Envelope
			for _, e := range out {
				if e.To.ID != dead.ID {
					keep = append(keep, e)
				}
			}
			return keep
		case self.ID:
			return p.HandleMessage(env, now)
		case dead.ID:
			if pm, ok := env.Msg.(*msg.Ping); ok && deadAnswers > 0 {
				deadAnswers--
				return RespondPing(nil, dead, env.From, pm)
			}
			return nil
		}
		return nil
	})
	if len(declared) != 1 || declared[0].ID != dead.ID {
		t.Fatalf("declared = %v, want exactly %v", declared, dead.ID)
	}
	st := p.Stats()
	if st.Suspects != 1 || st.Declared != 1 {
		t.Fatalf("stats %+v, want 1 suspect and 1 declaration", st)
	}
	if st.IndirectSent == 0 || relayed == 0 {
		t.Fatalf("confirmation rounds sent no indirect probes (stats %+v, relayed %d)", st, relayed)
	}
	if p.TargetCount() != 1 {
		t.Fatalf("declared target still monitored (%d targets)", p.TargetCount())
	}

	// Tombstone: a stale table re-offering the dead node must not revive it.
	p.SetTargets([]table.Ref{dead, helper})
	if p.TargetCount() != 1 {
		t.Fatal("tombstoned target re-adopted from stale table")
	}
}

func TestNeverAnsweredDroppedUnreachable(t *testing.T) {
	// A target adopted from someone else's table that never once answers
	// is dropped as unreachable, not declared: there is no evidence it was
	// ever alive from here, so no tombstone and no gossip — and it is
	// welcome back should it ever turn up reachable (e.g. delivered by an
	// anti-entropy round after a partition heals).
	self := mkRef(t, "0000")
	ghost := mkRef(t, "1111")
	helper := mkRef(t, "2222")
	p := NewProber(cfgFast(), self)
	p.SetTargets([]table.Ref{ghost, helper})

	peer := NewProber(cfgFast(), helper)
	declared, unreachable := drive(p, 10*time.Second, func(now time.Duration, env msg.Envelope) []msg.Envelope {
		switch env.To.ID {
		case helper.ID:
			out := peer.HandleMessage(env, now)
			var keep []msg.Envelope
			for _, e := range out {
				if e.To.ID != ghost.ID {
					keep = append(keep, e)
				}
			}
			return keep
		case self.ID:
			return p.HandleMessage(env, now)
		}
		return nil
	})
	if len(declared) != 0 {
		t.Fatalf("never-answered target declared failed: %v", declared)
	}
	if len(unreachable) != 1 || unreachable[0].ID != ghost.ID {
		t.Fatalf("unreachable = %v, want exactly %v", unreachable, ghost.ID)
	}
	st := p.Stats()
	if st.Declared != 0 || st.Unreachable != 1 {
		t.Fatalf("stats %+v, want 0 declared and 1 unreachable", st)
	}
	if p.TargetCount() != 1 {
		t.Fatalf("dropped target still monitored (%d targets)", p.TargetCount())
	}

	// No tombstone: unlike a declared failure, an unreachable drop is
	// re-adopted when the table offers the node again.
	p.SetTargets([]table.Ref{ghost, helper})
	if p.TargetCount() != 2 {
		t.Fatal("unreachable target not re-adopted after drop")
	}
}

// TestDetectionWindowIndependentOfTableSize: on the package defaults a
// silent target is declared (SuspectAfter + ConfirmRounds) ×
// ProbeTimeout after its first probe whether 4 or 64 live targets share
// the round-robin cycle, because a miss re-probes at once instead of
// waiting one cycle (5 or 65 ProbeIntervals here) for the target's turn.
func TestDetectionWindowIndependentOfTableSize(t *testing.T) {
	def := Config{}.WithDefaults()
	window := time.Duration(def.SuspectAfter+def.ConfirmRounds) * def.ProbeTimeout
	for _, alive := range []int{4, 64} {
		self := mkRef(t, "0000")
		var refs []table.Ref
		for i := 1; i <= alive+1; i++ {
			refs = append(refs, mkRef(t, fmt.Sprintf("%04s", strconv.FormatInt(int64(i), 4))))
		}
		// The cycle is sorted, so the smallest ID is probed first, at 0.
		dead := slices.MinFunc(refs, func(a, b table.Ref) int { return a.ID.Compare(b.ID) })
		p := NewProber(Config{}, self)
		p.SetTargets(refs)
		p.Observe(dead.ID) // alive once, so its silence is declarable
		declared, at := runDelayed(p, 2*window, func(_ time.Duration, env msg.Envelope) ([]msg.Envelope, time.Duration) {
			pm, ok := env.Msg.(*msg.Ping)
			if !ok || env.To.ID == dead.ID || pm.Target.ID == dead.ID {
				return nil, -1
			}
			return RespondPing(nil, env.To, env.From, pm), 10 * time.Millisecond
		})
		if len(declared) != 1 || declared[0].ID != dead.ID || at[0] != window {
			t.Errorf("%d live targets: declared %v at %v, want %v at %v", alive, declared, at, dead.ID, window)
		}
	}
}

// TestIndirectProbesOnByDefault: indirect probes have no off switch, so
// even with a zero Config a target whose direct probes all go unanswered
// but which answers probes relayed by its indirectProbes fellow targets
// is never declared — one-way loss on one path must not condemn a live
// node.
func TestIndirectProbesOnByDefault(t *testing.T) {
	self := mkRef(t, "0000")
	x := mkRef(t, "1111")
	var helpers []table.Ref
	for i := 0; i < indirectProbes; i++ {
		helpers = append(helpers, mkRef(t, fmt.Sprintf("%04s", strconv.FormatInt(int64(i+2), 4))))
	}
	p := NewProber(Config{}, self)
	p.SetTargets(append([]table.Ref{x}, helpers...))
	p.Observe(x.ID) // alive once, so its silence would be declarable
	declared, _ := drive(p, 30*time.Second, func(now time.Duration, env msg.Envelope) []msg.Envelope {
		switch pm, _ := env.Msg.(*msg.Ping); {
		case env.To.ID == self.ID:
			return p.HandleMessage(env, now)
		case env.To.ID == x.ID && pm.Target.IsZero():
			return nil // the direct path to x loses everything
		default:
			return RespondPing(nil, env.To, env.From, pm)
		}
	})
	if len(declared) != 0 {
		t.Fatalf("target reachable through relays declared: %v", declared)
	}
	if st := p.Stats(); st.IndirectSent < indirectProbes || st.Recovered == 0 {
		t.Fatalf("stats %+v: want relayed probes sent and the suspect recovered", st)
	}
}

func TestObserveClearsSuspicion(t *testing.T) {
	self := mkRef(t, "0000")
	a := mkRef(t, "1111")
	p := NewProber(cfgFast(), self)
	p.SetTargets([]table.Ref{a})

	// Let probes go unanswered until a is a suspect.
	for now := time.Duration(0); p.SuspectCount() == 0 && now < 5*time.Second; now += 25 * time.Millisecond {
		p.Tick(now)
	}
	if p.SuspectCount() != 1 {
		t.Fatal("target never became suspect")
	}
	// Any protocol traffic from a proves it alive.
	p.Observe(a.ID)
	if p.SuspectCount() != 0 {
		t.Fatal("Observe did not clear suspicion")
	}
	if p.Stats().Recovered != 1 {
		t.Fatalf("stats %+v, want Recovered=1", p.Stats())
	}
	// And its orphaned probes expiring later must not re-suspect it.
	_, declared, _ := p.Tick(10 * time.Second)
	if len(declared) != 0 || p.SuspectCount() != 0 {
		t.Fatal("stale probe expiry re-suspected a recovered target")
	}
}

func TestRespondPingDirectAndRelay(t *testing.T) {
	self := mkRef(t, "0000")
	origin := mkRef(t, "1111")
	target := mkRef(t, "2222")

	// Direct probe: pong to the origin.
	out := RespondPing(nil, self, origin, &msg.Ping{Seq: 9, Origin: origin})
	if len(out) != 1 || out[0].To.ID != origin.ID {
		t.Fatalf("direct ping answered %v", out)
	}
	if pong, ok := out[0].Msg.(msg.Pong); !ok || pong.Seq != 9 {
		t.Fatalf("direct ping answer = %v, want Pong{9}", out[0].Msg)
	}

	// Indirect probe addressed to someone else: relay unchanged.
	ping := &msg.Ping{Seq: 10, Origin: origin, Target: target}
	out = RespondPing(nil, self, origin, ping)
	if len(out) != 1 || out[0].To.ID != target.ID {
		t.Fatalf("indirect ping relayed %v", out)
	}
	got, ok := out[0].Msg.(*msg.Ping)
	if !ok || got != ping {
		t.Fatalf("relay forwarded %v, not the ping it received", out[0].Msg)
	}
	if *got != (msg.Ping{Seq: 10, Origin: origin, Target: target}) {
		t.Fatalf("relay mutated the ping: %v", *got)
	}

	// Indirect probe that reached its target: pong to the origin, not the relay.
	relay := mkRef(t, "3333")
	out = RespondPing(nil, target, relay, ping)
	if len(out) != 1 || out[0].To.ID != origin.ID {
		t.Fatalf("terminal indirect ping answered %v", out)
	}
}

func TestLatePongIgnored(t *testing.T) {
	self := mkRef(t, "0000")
	a := mkRef(t, "1111")
	p := NewProber(cfgFast(), self)
	p.SetTargets([]table.Ref{a})
	out, _, _ := p.Tick(0)
	if len(out) != 1 {
		t.Fatalf("first tick sent %d probes", len(out))
	}
	seq := out[0].Msg.(*msg.Ping).Seq
	// Let the probe expire, then answer it.
	p.Tick(time.Second)
	p.HandleMessage(msg.Envelope{From: a, To: self, Msg: msg.Pong{Seq: seq}}, time.Second)
	if p.Stats().PongsReceived != 0 {
		t.Fatal("expired probe's pong still counted")
	}
}

func TestSetTargetsRefreshesAndForgets(t *testing.T) {
	self := mkRef(t, "0000")
	a := mkRef(t, "1111")
	b := mkRef(t, "2222")
	p := NewProber(cfgFast(), self)
	p.SetTargets([]table.Ref{a, b, self}) // self is never monitored
	if p.TargetCount() != 2 {
		t.Fatalf("TargetCount = %d, want 2", p.TargetCount())
	}
	// b vanishes from the table (graceful leave): forgotten, not declared.
	p.SetTargets([]table.Ref{a})
	if p.TargetCount() != 1 {
		t.Fatalf("TargetCount = %d after removal, want 1", p.TargetCount())
	}
	_, declared, _ := p.Tick(time.Minute)
	if len(declared) != 0 {
		t.Fatalf("forgotten target declared: %v", declared)
	}
}

// A node retargets on every table change, so rebuilding an unchanged set
// must not allocate; a duplicate ref keeps its first occurrence.
func TestSetTargetsUnchangedAllocatesNothing(t *testing.T) {
	self := mkRef(t, "0000")
	refs := []table.Ref{self}
	for i := 1; i <= 32; i++ {
		refs = append(refs, mkRef(t, fmt.Sprintf("%04s", strconv.FormatInt(int64(i), 4))))
	}
	a := refs[1]
	refs = append(refs, table.Ref{ID: a.ID, Addr: "sim://moved"})
	p := NewProber(cfgFast(), self)
	p.SetTargets(refs)
	if allocs := testing.AllocsPerRun(100, func() { p.SetTargets(refs) }); allocs != 0 {
		t.Fatalf("retarget with an unchanged set allocates %v times, want 0", allocs)
	}
	if p.TargetCount() != 32 {
		t.Fatalf("TargetCount = %d, want 32", p.TargetCount())
	}
	if got := p.targets[a.ID].ref.Addr; got != a.Addr {
		t.Fatalf("duplicate ref: address %q, want the first occurrence's %q", got, a.Addr)
	}
}

// TestProbeCostsABatchSlot pins what a routine probe costs once the
// prober is warm: a slot of its Ping batch, a sixteenth of an
// allocation, and nothing else. A probe that boxed its own Ping would
// cost a whole one. Pongs are boxed before the count starts.
func TestProbeCostsABatchSlot(t *testing.T) {
	self := mkRef(t, "0000")
	var refs []table.Ref
	for _, s := range []string{"1111", "2222", "3333", "0123"} {
		refs = append(refs, mkRef(t, s))
	}
	p := NewProber(cfgFast(), self)
	p.SetTargets(refs)
	const warm, measured = 100, 1600
	pongs := make([]msg.Message, warm+measured+len(refs)+1)
	for i := range pongs {
		pongs[i] = msg.Pong{Seq: uint64(i)}
	}
	now, probes := time.Duration(0), 0
	run := func(ticks int) {
		for range ticks {
			now += cfgFast().ProbeInterval
			out, _, _ := p.Tick(now)
			for _, env := range out {
				probes++
				p.HandleMessage(msg.Envelope{From: env.To, To: self, Msg: pongs[env.Msg.(*msg.Ping).Seq]}, now)
			}
		}
	}
	run(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	probes = 0
	run(measured)
	runtime.ReadMemStats(&after)
	if probes < measured {
		t.Fatalf("%d probes in %d intervals", probes, measured)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(probes)
	t.Logf("%d probes, %.3f allocations each", probes, per)
	if per > 0.1 {
		t.Errorf("%.3f allocations per probe, want at most 0.1 (a sixteenth: one batch slot)", per)
	}
}

func TestPartitionHoldsDeclarationsThenRecovers(t *testing.T) {
	self := mkRef(t, "0000")
	targets := []table.Ref{mkRef(t, "1111"), mkRef(t, "2222"), mkRef(t, "3333"), mkRef(t, "0011")}
	p := NewProber(cfgFast(), self)
	p.SetTargets(targets)

	// The targets prove themselves alive once, then every one goes silent
	// at the same time: the classic partition signature.
	for _, tgt := range targets {
		p.Observe(tgt.ID)
	}
	declared, unreachable := drive(p, 10*time.Second, nil)
	if len(declared) != 0 || len(unreachable) != 0 {
		t.Fatalf("declared %v / dropped %v during partition, want all held", declared, unreachable)
	}
	if !p.Partitioned() {
		t.Fatal("prober did not enter partition mode")
	}
	st := p.Stats()
	if st.PartitionsEntered != 1 || st.DeclarationsHeld == 0 || st.Declared != 0 {
		t.Fatalf("stats %+v, want 1 partition entered, held declarations, 0 declared", st)
	}
	if p.SuspectCount() != len(targets) {
		t.Fatalf("SuspectCount = %d, want %d (held suspects stay suspects)", p.SuspectCount(), len(targets))
	}

	// The partition heals: traffic from the peers proves them alive, the
	// mode exits, and nothing was ever tombstoned.
	for _, tgt := range targets {
		p.Observe(tgt.ID)
	}
	p.Tick(11 * time.Second)
	if p.Partitioned() {
		t.Fatal("prober stuck in partition mode after recovery")
	}
	st = p.Stats()
	if st.PartitionsExited != 1 {
		t.Fatalf("stats %+v, want 1 partition exited", st)
	}
	if p.TargetCount() != len(targets) {
		t.Fatalf("TargetCount = %d after heal, want %d (no tombstones)", p.TargetCount(), len(targets))
	}

	// Normal service resumes: a single dead node among live peers is a
	// crash, not a partition, and must be declared.
	dead := targets[0]
	live := targets[1:]
	responders := make(map[id.ID]*Prober, len(live))
	for _, tgt := range live {
		responders[tgt.ID] = NewProber(cfgFast(), tgt)
	}
	declared, _ = drive(p, 25*time.Second, func(now time.Duration, env msg.Envelope) []msg.Envelope {
		if env.To.ID == self.ID {
			return p.HandleMessage(env, now)
		}
		if env.To.ID == dead.ID {
			return nil
		}
		if r, ok := responders[env.To.ID]; ok {
			out := r.HandleMessage(env, now)
			var keep []msg.Envelope
			for _, e := range out {
				if e.To.ID != dead.ID {
					keep = append(keep, e)
				}
			}
			return keep
		}
		return nil
	})
	if len(declared) != 1 || declared[0].ID != dead.ID {
		t.Fatalf("declared = %v after partition exit, want exactly %v", declared, dead.ID)
	}
	if p.Partitioned() {
		t.Fatal("single crash misread as a partition")
	}
}

func TestDeadSuspectDeclaredAfterPartitionExit(t *testing.T) {
	// A suspect that genuinely crashed during the partition never answers
	// after the heal. The exit wipe discards its partition-tainted
	// evidence but must relaunch its confirmation rounds — routine probing
	// skips suspects, so without the relaunch nothing would ever probe it
	// again and it would stay suspect forever. With the relaunch it falls
	// after ConfirmRounds of fresh silence against the healed network.
	self := mkRef(t, "0000")
	dead := mkRef(t, "1111")
	live := []table.Ref{mkRef(t, "2222"), mkRef(t, "3333"), mkRef(t, "0011")}
	all := append([]table.Ref{dead}, live...)
	p := NewProber(cfgFast(), self)
	p.SetTargets(all)
	for _, tgt := range all {
		p.Observe(tgt.ID) // all alive once, so silence is declarable
	}

	// Everyone goes silent at once: partition mode, declarations held.
	declared, unreachable := drive(p, 10*time.Second, nil)
	if len(declared) != 0 || len(unreachable) != 0 {
		t.Fatalf("declared %v / dropped %v during partition, want all held", declared, unreachable)
	}
	if !p.Partitioned() {
		t.Fatal("prober did not enter partition mode")
	}

	// The partition heals; the live peers answer again, dead stays silent.
	responders := make(map[id.ID]*Prober, len(live))
	for _, tgt := range live {
		responders[tgt.ID] = NewProber(cfgFast(), tgt)
	}
	var after []table.Ref
	for now := 10 * time.Second; now <= 40*time.Second; now += 25 * time.Millisecond {
		out, dec, _ := p.Tick(now)
		after = append(after, dec...)
		for len(out) > 0 {
			var next []msg.Envelope
			for _, env := range out {
				switch {
				case env.To.ID == self.ID:
					next = append(next, p.HandleMessage(env, now)...)
				case env.To.ID == dead.ID:
					// crashed for real: blackhole
				default:
					if r, ok := responders[env.To.ID]; ok {
						for _, e := range r.HandleMessage(env, now) {
							if e.To.ID != dead.ID {
								next = append(next, e)
							}
						}
					}
				}
			}
			out = next
		}
	}
	if p.Partitioned() {
		t.Fatal("prober stuck in partition mode after heal")
	}
	if len(after) != 1 || after[0].ID != dead.ID {
		t.Fatalf("declared = %v after heal, want exactly %v (dead suspect stuck unprobed)", after, dead.ID)
	}
	if p.TargetCount() != len(live) {
		t.Fatalf("TargetCount = %d after declaration, want %d", p.TargetCount(), len(live))
	}
}

func TestNoPartitionBelowMinTargets(t *testing.T) {
	// With fewer simultaneously-suspect peers than partitionMinTargets the
	// suspect fraction is not evidence of a partition — declarations
	// proceed (otherwise a small network could never declare anything).
	self := mkRef(t, "0000")
	var targets []table.Ref
	for i := 1; i < partitionMinTargets; i++ {
		targets = append(targets, mkRef(t, fmt.Sprintf("%04s", strconv.FormatInt(int64(i), 4))))
	}
	p := NewProber(cfgFast(), self)
	p.SetTargets(targets)
	for _, x := range targets {
		p.Observe(x.ID) // alive once, so silence is declarable
	}
	declared, _ := drive(p, 10*time.Second, nil)
	if len(declared) != len(targets) {
		t.Fatalf("declared %v, want all %d silent targets declared", declared, len(targets))
	}
	if p.Partitioned() || p.Stats().PartitionsEntered != 0 {
		t.Fatalf("partition mode entered below the target floor: %+v", p.Stats())
	}
}

func TestPartitionThresholdConfigurable(t *testing.T) {
	// A sub-threshold suspect cohort must not trip the mode even at the
	// minimum target count.
	self := mkRef(t, "0000")
	cfg := cfgFast()
	cfg.PartitionThreshold = 0.9
	p := NewProber(cfg, self)
	dead := mkRef(t, "1111")
	live := []table.Ref{mkRef(t, "2222"), mkRef(t, "3333"), mkRef(t, "0011")}
	if len(live)+1 < partitionMinTargets {
		t.Fatalf("%d targets: below partitionMinTargets, the threshold is never consulted", len(live)+1)
	}
	p.SetTargets(append([]table.Ref{dead}, live...))
	p.Observe(dead.ID) // alive once, so its crash is declarable
	responders := make(map[id.ID]*Prober, len(live))
	for _, tgt := range live {
		responders[tgt.ID] = NewProber(cfgFast(), tgt)
	}
	declared, _ := drive(p, 15*time.Second, func(now time.Duration, env msg.Envelope) []msg.Envelope {
		if env.To.ID == self.ID {
			return p.HandleMessage(env, now)
		}
		if r, ok := responders[env.To.ID]; ok {
			out := r.HandleMessage(env, now)
			var keep []msg.Envelope
			for _, e := range out {
				if e.To.ID != dead.ID {
					keep = append(keep, e)
				}
			}
			return keep
		}
		return nil
	})
	if len(declared) != 1 || declared[0].ID != dead.ID {
		t.Fatalf("declared = %v, want exactly %v", declared, dead.ID)
	}
	if p.Stats().PartitionsEntered != 0 {
		t.Fatalf("1/4 suspects tripped a 0.9 threshold: %+v", p.Stats())
	}
}
