package overlay

import (
	"math/rand"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/rtt"
)

func grayConfig() Config {
	return Config{
		Params:  id.Params{B: 4, D: 4},
		Latency: ConstantLatency(5 * time.Millisecond),
		Liveness: &liveness.Config{
			ProbeInterval: 100 * time.Millisecond,
			ProbeTimeout:  400 * time.Millisecond,
			SuspectAfter:  3,
			ConfirmRounds: 3,
		},
		TickInterval: 50 * time.Millisecond,
	}
}

// TestGraySlowNodeAdaptiveVsFixed is the overlay-level gray-failure
// contrast: a node that ramps to 300ms per-side processing delay
// (round trips ~610ms, well past the 400ms fixed probe timeout) stays
// alive and answering. Under fixed timeouts the detector falsely
// declares it dead; under adaptive timeouts the estimators chase the
// ramp via late pongs and nobody is declared.
func TestGraySlowNodeAdaptiveVsFixed(t *testing.T) {
	run := func(adaptive bool) (declared int, marked int) {
		cfg := grayConfig()
		if adaptive {
			cfg.RTT = &rtt.Config{}
		}
		rng := rand.New(rand.NewSource(7))
		net := New(cfg)
		refs := RandomRefs(cfg.Params, 16, rng, nil)
		net.BuildDirect(refs, rng)

		// Warm-up: estimators learn the fast baseline before the ramp.
		net.RunFor(5 * time.Second)
		gray := refs[4].ID
		net.MarkSlow(300*time.Millisecond, gray)
		net.RunFor(40 * time.Second)

		if net.SlowDelayed() == 0 {
			t.Fatalf("slow-node model never delayed a message (adaptive=%v)", adaptive)
		}
		st := net.LivenessStats()
		return st.Declared, net.RTTStats().Marked
	}

	if declared, marked := run(true); declared != 0 {
		t.Errorf("adaptive run falsely declared %d nodes", declared)
	} else if marked == 0 {
		t.Error("adaptive run never flagged the slow node degraded")
	}
	if declared, _ := run(false); declared == 0 {
		t.Error("fixed run did not declare the slow node — the contrast scenario has no teeth")
	}
}

// TestSlowDelayRamp: the injected delay grows linearly from the mark
// time and recovery restores full speed.
func TestSlowDelayRamp(t *testing.T) {
	cfg := grayConfig()
	rng := rand.New(rand.NewSource(5))
	net := New(cfg)
	refs := RandomRefs(cfg.Params, 4, rng, nil)
	net.BuildDirect(refs, rng)

	x := refs[0].ID
	net.MarkSlow(300*time.Millisecond, x)
	if d := net.slowDelay(x, 0); d != 0 {
		t.Fatalf("delay at mark time = %v, want 0 (ramp start)", d)
	}
	if d := net.slowDelay(x, slowRamp/2); d != 150*time.Millisecond {
		t.Fatalf("delay mid-ramp = %v, want 150ms", d)
	}
	if d := net.slowDelay(x, slowRamp); d != 300*time.Millisecond {
		t.Fatalf("delay post-ramp = %v, want full 300ms", d)
	}
	net.UnmarkSlow(x)
	if d := net.slowDelay(x, slowRamp); d != 0 {
		t.Fatalf("delay after recovery = %v, want 0", d)
	}
	if other := refs[1].ID; net.slowDelay(other, time.Minute) != 0 {
		t.Fatal("unmarked node has injected delay")
	}
}
