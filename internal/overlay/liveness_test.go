package overlay

import (
	"math/rand"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
)

func selfHealingConfig(seed int64) Config {
	return Config{
		Params:  id.Params{B: 4, D: 4},
		Latency: ConstantLatency(5 * time.Millisecond),
		Opts: core.Options{Timeouts: core.Timeouts{
			RetryAfter:  300 * time.Millisecond,
			MaxAttempts: 4,
			RepairAfter: 400 * time.Millisecond,
		}},
		Loss: &Loss{Rate: 0.10, Seed: seed},
		Liveness: &liveness.Config{
			ProbeInterval: 100 * time.Millisecond,
			ProbeTimeout:  400 * time.Millisecond,
			SuspectAfter:  3,
			ConfirmRounds: 3,
		},
		TickInterval: 50 * time.Millisecond,
	}
}

// TestSelfHealingSoak is the tentpole scenario: 16 nodes under 10%
// message loss, three unannounced crashes (one of them the gateway of a
// join in progress), no oracle. The only external inputs are the crashes
// themselves; detection, table repair, gossip, and the join restart all
// come from the nodes' own probe and timeout machinery. The test never
// tells any survivor who died.
func TestSelfHealingSoak(t *testing.T) {
	cfg := selfHealingConfig(42)
	rng := rand.New(rand.NewSource(42))
	net := New(cfg)
	taken := make(map[id.ID]bool)
	refs := RandomRefs(cfg.Params, 16, rng, taken)
	net.BuildDirect(refs, rng)

	crash := func(at time.Duration, x id.ID) {
		net.Engine().ScheduleAt(at, func() {
			if err := net.InjectFailure(x); err != nil {
				t.Errorf("crash of %v: %v", x, err)
			}
		})
	}
	dead1, gateway, dead3 := refs[3], refs[5], refs[9]
	crash(5*time.Second, dead1.ID)

	// A node joins through `gateway`, which crashes 2ms after the join
	// starts — before the first reply can arrive (5ms latency). The join
	// must reroute itself through a fallback.
	joiner := RandomRefs(cfg.Params, 1, rng, taken)[0]
	jm := net.ScheduleJoin(joiner, gateway, 12*time.Second, refs[6], refs[7])
	crash(12*time.Second+2*time.Millisecond, gateway.ID)

	crash(20*time.Second, dead3.ID)

	net.RunFor(90 * time.Second)

	if !jm.IsSNode() {
		t.Errorf("joiner stuck in %v after its gateway crashed", jm.Status())
	}
	requireConsistent(t, net)
	requireForgotten(t, net, dead1.ID, gateway.ID, dead3.ID)
	st := net.LivenessStats()
	if st.Declared == 0 {
		t.Error("no failures were declared — the crashes went undetected")
	}
	if st.ProbesSent == 0 || st.PongsReceived == 0 {
		t.Errorf("probe machinery idle: %+v", st)
	}
	if net.Size() != 14 { // 16 - 3 crashed + 1 joined
		t.Errorf("Size = %d, want 14", net.Size())
	}
}

// TestNoFalsePositivesUnderOneWayLoss: 20% loss confined to one
// direction per pair starves direct probes on the lossy paths, but the
// indirect probes of the confirmation rounds travel other paths; over 60
// virtual seconds no live node may be declared failed.
func TestNoFalsePositivesUnderOneWayLoss(t *testing.T) {
	cfg := selfHealingConfig(17)
	cfg.Loss = &Loss{Rate: 0.20, Seed: 17, OneWay: true}
	cfg.Opts.Timeouts = core.Timeouts{} // isolate the detector's behavior
	rng := rand.New(rand.NewSource(17))
	net := New(cfg)
	refs := RandomRefs(cfg.Params, 16, rng, nil)
	net.BuildDirect(refs, rng)

	net.RunFor(60 * time.Second)

	st := net.LivenessStats()
	if st.Declared != 0 {
		t.Fatalf("declared %d live nodes failed under one-way loss (stats %+v)", st.Declared, st)
	}
	if st.Suspects == 0 {
		t.Log("note: loss never even caused a suspicion at this seed")
	} else if st.Recovered == 0 {
		t.Error("suspects arose but none recovered — indirect probes ineffective")
	}
	if st.IndirectSent == 0 && st.Suspects > 0 {
		t.Error("suspicions raised without indirect confirmation probes")
	}
	requireConsistent(t, net)
}

// TestCrashesSimultaneous crashes two nodes at the same instant: the
// survivors must declare both and repair to a consistent network even
// when each dead node's potential repair helpers include the other.
func TestCrashesSimultaneous(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	declared := declaredSink{}
	refs := RandomRefs(p164, 80, rng, nil)
	net := newHealing(p164, declared, refs, rng)

	dead := []id.ID{refs[11].ID, refs[12].ID}
	for _, d := range dead {
		if err := net.InjectFailure(d); err != nil {
			t.Fatal(err)
		}
	}
	net.RunFor(healWindow)
	for _, d := range dead {
		if !declared[d] {
			t.Errorf("crashed %v was never declared", d)
		}
	}
	requireConsistent(t, net)
	requireForgotten(t, net, dead...)
}
