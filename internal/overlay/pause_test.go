package overlay

import (
	"math/rand"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/rtt"
)

// TestClockPauseNotDeclared is the clock-jump regression test: a node
// whose local clock stalls (GC pause, VM migration) and then bursts
// back must be suspected at most — never declared failed — when the
// pause is shorter than the declaration window, with both the fixed
// detector machinery and the adaptive RTT estimator attached. The
// resume burst of late pongs must clear the suspicion and leave the
// network consistent.
func TestClockPauseNotDeclared(t *testing.T) {
	cfg := Config{
		Params:  id.Params{B: 4, D: 4},
		Latency: ConstantLatency(5 * time.Millisecond),
		Liveness: &liveness.Config{
			ProbeInterval: 100 * time.Millisecond,
			ProbeTimeout:  400 * time.Millisecond,
			SuspectAfter:  2,
			ConfirmRounds: 4,
		},
		// The adaptive estimator must ride the pause out too: the burst
		// of late pongs feeds it without triggering a declaration.
		RTT:          &rtt.Config{},
		TickInterval: 50 * time.Millisecond,
	}
	rng := rand.New(rand.NewSource(7))
	net := New(cfg)
	refs := RandomRefs(cfg.Params, 10, rng, nil)
	net.BuildDirect(refs, rng)

	net.RunFor(3 * time.Second) // probers acquire targets, estimators warm
	if st := net.LivenessStats(); st.Declared != 0 || st.Suspects != 0 {
		t.Fatalf("pre-pause: %d declared, %d suspects; want a quiet network", st.Declared, st.Suspects)
	}

	victim := refs[4].ID
	// 1.5s of total stall: with misses accruing at one per ProbeTimeout
	// (400ms) and SuspectAfter 2, the victim turns suspect well inside
	// the pause, but the four confirmation rounds cannot all expire
	// before the resume burst answers them.
	if err := net.PauseNode(victim, 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	net.RunFor(5 * time.Second) // pause, burst, and settle

	st := net.LivenessStats()
	if st.Declared != 0 {
		t.Fatalf("paused-then-resumed node declared failed %d times; a pause below the declaration window must never declare", st.Declared)
	}
	if st.Suspects == 0 {
		t.Fatalf("victim was never suspected — the pause fault did not engage (deferred deliveries: %d)", net.PausedDeferred())
	}
	if st.Recovered == 0 {
		t.Fatalf("suspicion never cleared after the resume burst (suspects %d)", st.Suspects)
	}
	if net.PausedDeferred() == 0 {
		t.Fatal("no delivery was ever deferred — the pause fault did not engage")
	}
	requireConsistent(t, net)
}

// TestClockPauseLongEnoughDeclares is the contrast case: a stall longer
// than the whole declaration window is indistinguishable from a crash,
// and the detector is REQUIRED to declare it — holding the declaration
// would mask real failures. The node's machine is still alive, so after
// the burst it can rejoin; this test only pins the declaration.
func TestClockPauseLongEnoughDeclares(t *testing.T) {
	cfg := Config{
		Params:  id.Params{B: 4, D: 4},
		Latency: ConstantLatency(5 * time.Millisecond),
		Liveness: &liveness.Config{
			ProbeInterval: 100 * time.Millisecond,
			ProbeTimeout:  300 * time.Millisecond,
			SuspectAfter:  2,
			ConfirmRounds: 2,
		},
		TickInterval: 50 * time.Millisecond,
	}
	rng := rand.New(rand.NewSource(9))
	net := New(cfg)
	refs := RandomRefs(cfg.Params, 8, rng, nil)
	net.BuildDirect(refs, rng)
	net.RunFor(2 * time.Second)

	if err := net.PauseNode(refs[2].ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	net.RunFor(20 * time.Second)
	if st := net.LivenessStats(); st.Declared == 0 {
		t.Fatalf("a 30s stall was never declared (suspects %d) — an over-window pause must read as a crash", st.Suspects)
	}
}

// TestPauseNodeErrors pins the injector's error contract.
func TestPauseNodeErrors(t *testing.T) {
	cfg := Config{Params: id.Params{B: 4, D: 4}}
	rng := rand.New(rand.NewSource(1))
	net := New(cfg)
	refs := RandomRefs(cfg.Params, 2, rng, nil)
	net.BuildDirect(refs, rng)
	if err := net.PauseNode(refs[0].ID, 0); err == nil {
		t.Error("zero-duration pause accepted")
	}
	unknown := RandomRefs(cfg.Params, 1, rng, map[id.ID]bool{refs[0].ID: true, refs[1].ID: true})[0]
	if err := net.PauseNode(unknown.ID, time.Second); err == nil {
		t.Error("pause of unknown node accepted")
	}
	if err := net.SetLossRate(0.1); err == nil {
		t.Error("SetLossRate without Config.Loss accepted")
	}
}
