package tcptransport

import (
	"context"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/node"
	"hypercube/internal/rtt"
)

// TestTCPAdaptiveRTTSampling: with Config.RTT set, a live two-node network
// feeds the shared estimator from real probe and exchange round trips,
// and the counters surface on /status.
func TestTCPAdaptiveRTTSampling(t *testing.T) {
	lc := liveness.Config{
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  300 * time.Millisecond,
		SuspectAfter:  3,
		ConfirmRounds: 2,
	}
	opts := core.Options{Timeouts: core.Timeouts{
		RetryAfter:  250 * time.Millisecond,
		MaxAttempts: 4,
	}}
	options := []Option{WithConfig(Config{Config: node.Config{Liveness: &lc, RTT: &rtt.Config{}}})}

	seed, err := StartSeed(p163, opts, id.MustParse(p163, "abc"), "127.0.0.1:0", options...)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	j, err := StartJoiner(p163, opts, id.MustParse(p163, "123"), "127.0.0.1:0", options...)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Join(seed.Ref()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.AwaitStatus(ctx, core.StatusInSystem); err != nil {
		t.Fatal(err)
	}

	// The join exchanges alone seed the estimator; probes keep feeding
	// it. Wait for both nodes to accumulate samples.
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range []*Node{seed, j} {
		for {
			st := n.Stats().RTT
			if st == nil {
				t.Fatalf("node %v reports no RTT stats despite Config.RTT", n.Ref().ID)
			}
			if st.Samples > 0 && st.Tracked > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %v never sampled an RTT: %+v", n.Ref().ID, st)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// On a loopback link nobody is degraded, and /status carries the
	// estimator section.
	st := adminStatus(t, seed)
	if st.RTT == nil {
		t.Fatal("/status has no rtt section despite Config.RTT")
	}
	if st.RTT.Samples == 0 || st.RTT.Tracked == 0 {
		t.Fatalf("/status rtt counters empty: %+v", st.RTT)
	}
	if st.RTT.Degraded != 0 {
		t.Fatalf("loopback peer flagged degraded: %+v", st.RTT)
	}
	if n := seed.Stats().RTT; n.Samples < st.RTT.Samples {
		t.Fatalf("Stats().RTT regressed vs /status: %+v vs %+v", n, st.RTT)
	}
}
