package overlay

import (
	"math/rand"
	"testing"
	"time"

	"hypercube/internal/antientropy"
	"hypercube/internal/core"
	"hypercube/internal/guard"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/msg"
	"hypercube/internal/table"
)

func byzantineConfig(seed int64) Config {
	return Config{
		Params:  id.Params{B: 4, D: 4},
		Latency: ConstantLatency(5 * time.Millisecond),
		Opts: core.Options{
			Timeouts: core.Timeouts{
				RetryAfter:  300 * time.Millisecond,
				MaxAttempts: 4,
				RepairAfter: 400 * time.Millisecond,
			},
			Guard: &guard.Policy{},
		},
		Loss: &Loss{Rate: 0.10, Seed: seed},
		Liveness: &liveness.Config{
			ProbeInterval: 100 * time.Millisecond,
			ProbeTimeout:  400 * time.Millisecond,
			SuspectAfter:  3,
			ConfirmRounds: 3,
		},
		AntiEntropy:  &antientropy.Config{Interval: time.Second},
		TickInterval: 50 * time.Millisecond,
		Byzantine:    &Byzantine{Seed: seed},
	}
}

// markHostile marks count of the candidates byzantine, drawn by a
// permutation seeded with seed, and returns their IDs.
func markHostile(net *Network, candidates []table.Ref, count int, seed int64) []id.ID {
	out := make([]id.ID, 0, count)
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(candidates))[:count] {
		out = append(out, candidates[i].ID)
	}
	net.MarkByzantine(out...)
	return out
}

// TestByzantineSoak is the hostile-input tentpole scenario: a 32-node
// network (28 established, 4 joining through a wave) where ~10% of the
// established members are byzantine — their outgoing messages are
// randomly mutated, withheld, misaddressed, or replayed — on top of 10%
// message loss. No machine may panic, every hostile envelope must be
// rejected and charged by the guard layer, the wave must complete, and
// the network must still converge to Definition 3.8 consistency through
// its own retries, liveness, and anti-entropy machinery.
func TestByzantineSoak(t *testing.T) {
	cfg := byzantineConfig(21)
	rng := rand.New(rand.NewSource(21))
	net := New(cfg)
	taken := make(map[id.ID]bool)
	refs := RandomRefs(cfg.Params, 28, rng, taken)
	net.BuildDirect(refs, rng)

	// 3 of the 28 established members ≈ 10% of the final 32-node network.
	byz := markHostile(net, refs, 3, 21)
	byzSet := make(map[id.ID]bool)
	for _, x := range byz {
		byzSet[x] = true
	}
	// Gateways and fallbacks must be honest: a joiner bootstrapping
	// through an adversary is the bootstrap-trust problem, out of scope.
	var honest []table.Ref
	for _, r := range refs {
		if !byzSet[r.ID] {
			honest = append(honest, r)
		}
	}

	joiners := RandomRefs(cfg.Params, 4, rng, taken)
	machines := make([]*core.Machine, len(joiners))
	for i, ref := range joiners {
		g := honest[rng.Intn(len(honest))]
		machines[i] = net.ScheduleJoin(ref, g, time.Second, honest[0], honest[1])
	}

	net.RunFor(90 * time.Second)

	for i, m := range machines {
		if !m.IsSNode() {
			t.Errorf("joiner %v stuck in %v", joiners[i].ID, m.Status())
		}
	}
	requireConsistent(t, net)

	bz := net.ByzantineStats()
	if bz.Mutated == 0 || bz.Withheld == 0 || bz.Replayed == 0 {
		t.Errorf("fault model barely engaged: %+v", bz)
	}
	gs := net.GuardStats()
	if gs.Rejected == 0 {
		t.Errorf("no hostile envelope was rejected (guard stats %+v, byzantine stats %+v)", gs, bz)
	}
	if gs.Scorer.Charges == 0 {
		t.Errorf("no misbehavior was charged to a sender: %+v", gs)
	}
	t.Logf("byzantine: %+v", bz)
	t.Logf("guard: %+v", gs)
	if st := net.LivenessStats(); st.Declared != 0 {
		t.Errorf("live nodes were declared failed under byzantine noise: %+v", st)
	}
}

// TestByzantineDeterminism: two identically seeded runs
// must corrupt identically — the property that makes byzantine failures
// replayable.
func TestByzantineDeterminism(t *testing.T) {
	run := func() (ByzantineStats, core.GuardStats) {
		cfg := byzantineConfig(9)
		rng := rand.New(rand.NewSource(9))
		net := New(cfg)
		taken := make(map[id.ID]bool)
		refs := RandomRefs(cfg.Params, 12, rng, taken)
		net.BuildDirect(refs, rng)
		markHostile(net, refs, 1, 9)
		j := RandomRefs(cfg.Params, 1, rng, taken)[0]
		net.ScheduleJoin(j, refs[0], time.Second, refs[1])
		net.RunFor(15 * time.Second)
		return net.ByzantineStats(), net.GuardStats()
	}
	b1, g1 := run()
	b2, g2 := run()
	if b1 != b2 {
		t.Errorf("byzantine stats diverged across identical seeds:\n%+v\n%+v", b1, b2)
	}
	if g1 != g2 {
		t.Errorf("guard stats diverged across identical seeds:\n%+v\n%+v", g1, g2)
	}
}

// TestByzantineQuarantineInSim drives the full quarantine lifecycle
// through the simulator: a single byzantine node in a small network
// corrupts enough of what it sends that its peers' scorers cross the
// threshold, drop its traffic at ingress for the cooldown, and release
// it afterwards — the run spans several of the guard's cooldowns.
func TestByzantineQuarantineInSim(t *testing.T) {
	cfg := Config{
		Params:  id.Params{B: 4, D: 4},
		Latency: ConstantLatency(5 * time.Millisecond),
		Opts: core.Options{
			Guard: &guard.Policy{},
		},
		AntiEntropy:  &antientropy.Config{Interval: 200 * time.Millisecond},
		TickInterval: 50 * time.Millisecond,
		Byzantine:    &Byzantine{Seed: 5},
	}
	rng := rand.New(rand.NewSource(5))
	net := New(cfg)
	refs := RandomRefs(cfg.Params, 4, rng, nil)
	net.BuildDirect(refs, rng)
	net.MarkByzantine(refs[0].ID)

	net.RunFor(2 * time.Minute)

	gs := net.GuardStats()
	if gs.Scorer.Quarantines == 0 {
		t.Fatalf("aggressive byzantine node was never quarantined: %+v (byzantine %+v)",
			gs, net.ByzantineStats())
	}
	if gs.IngressDropped == 0 {
		t.Errorf("no traffic was dropped at ingress during quarantine: %+v", gs)
	}
	if gs.Scorer.Releases == 0 {
		t.Errorf("no quarantine was released within the run: %+v", gs)
	}
	t.Logf("guard: %+v", gs)
}

// TestHostileSnapshotRejected pins the corruption primitive itself: the
// snapshot corruptTable fabricates passes structural checks but fails
// semantic validation.
func TestHostileSnapshotRejected(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	from := table.Ref{ID: id.MustParse(p, "3210"), Addr: "sim://3210"}
	snap := hostileSnapshot(p, from)
	if err := snap.Validate(); err == nil {
		t.Fatal("hostile snapshot passed Snapshot.Validate — the fault model lost its teeth")
	}
	env := msg.Envelope{From: from, To: from, Msg: msg.SyncPush{Table: snap}}
	if _, ok := corruptTable(p, env); !ok {
		t.Fatal("corruptTable did not recognize a table-carrying message")
	}
}
