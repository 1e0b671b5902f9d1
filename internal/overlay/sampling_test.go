package overlay

import (
	"math/rand"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/sampling"
)

func samplingConfig(seed int64) Config {
	return Config{
		Params:  id.Params{B: 4, D: 4},
		Latency: ConstantLatency(5 * time.Millisecond),
		Opts: core.Options{Timeouts: core.Timeouts{
			RetryAfter:  300 * time.Millisecond,
			MaxAttempts: 2,
		}},
		Sampling: &sampling.Config{
			Interval: 500 * time.Millisecond,
			Seed:     seed,
		},
		TickInterval: 100 * time.Millisecond,
	}
}

// TestSamplingViewsConverge: with the gossip layer enabled, every node's
// view fills from push-pull rounds (bootstrapped off its table) and the
// min-wise samplers hold peers to hand out.
func TestSamplingViewsConverge(t *testing.T) {
	cfg := samplingConfig(7)
	rng := rand.New(rand.NewSource(7))
	net := New(cfg)
	refs := RandomRefs(cfg.Params, 24, rng, nil)
	net.BuildDirect(refs, rng)
	net.RunFor(10 * time.Second)

	for _, ref := range refs {
		st := net.nodes[ref.ID].Stats().Sampling
		if st.ViewSize == 0 {
			t.Errorf("node %v: empty view after 10s of rounds", ref.ID)
		}
		if st.SamplerFill == 0 {
			t.Errorf("node %v: samplers empty after 10s of rounds", ref.ID)
		}
	}
	st := net.SamplingStats()
	if st.Rounds == 0 || st.PushesReceived == 0 || st.PullsAnswered == 0 {
		t.Errorf("no gossip activity: %+v", st)
	}
}

// TestSamplingFeedsGatewayRestart: a joiner whose only gateway crashes
// mid-join — and is then declared failed — restarts through a peer from
// its sampling layer instead of wedging on the dead bootstrap.
func TestSamplingFeedsGatewayRestart(t *testing.T) {
	cfg := samplingConfig(11)
	rng := rand.New(rand.NewSource(11))
	net := New(cfg)
	taken := make(map[id.ID]bool)
	refs := RandomRefs(cfg.Params, 12, rng, taken)
	net.BuildDirect(refs, rng)

	deadGw := refs[0]
	joiner := RandomRefs(cfg.Params, 1, rng, taken)[0]
	jm := net.ScheduleJoin(joiner, deadGw, time.Second) // no static fallbacks
	// Three members' pushes reach the joiner's samplers before its join.
	for _, r := range refs[1:4] {
		net.nodes[joiner.ID].Deliver(msg.Envelope{From: r, To: joiner, Msg: msg.SamplePush{}}, 0)
	}

	net.Engine().ScheduleAt(500*time.Millisecond, func() {
		if err := net.InjectFailure(deadGw.ID); err != nil {
			t.Errorf("crash of %v: %v", deadGw.ID, err)
		}
	})
	// The failure detector (here: the oracle) tells the joiner its
	// bootstrap died; the restart must come from the sampled peers.
	net.Engine().ScheduleAt(3*time.Second, func() {
		net.transmit(jm.DeclareFailed(deadGw))
	})

	net.RunFor(30 * time.Second)
	if !jm.IsSNode() {
		t.Fatalf("joiner stuck in %v: sampled-peer restart did not happen", jm.Status())
	}
	// Only the joiner's recovery is under test; the survivors still
	// reference the crashed gateway because nothing gossiped the failure
	// (no detector in this config), so no whole-network consistency check.
}
