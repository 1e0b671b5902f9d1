package tcptransport

import (
	"context"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/sampling"
)

// TestTCPSamplingRounds runs a live four-node network with the gossip
// peer-sampling layer on: every node's view must fill from real
// push-pull traffic over TCP, and /status must expose the sampling
// counters.
func TestTCPSamplingRounds(t *testing.T) {
	sc := sampling.Config{
		Interval: 100 * time.Millisecond,
		Seed:     31,
	}
	options := []Option{WithSampling(sc)}

	seed, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "abc"), "127.0.0.1:0", options...)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	nodes := []*Node{seed}
	for _, s := range []string{"123", "2b3", "3ac"} {
		j, err := StartJoiner(p163, core.Options{}, id.MustParse(p163, s), "127.0.0.1:0", options...)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if err := j.Join(seed.Ref()); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := j.AwaitStatus(ctx, core.StatusInSystem); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
		nodes = append(nodes, j)
	}

	// Wait until every node's view is populated and gossip flowed both
	// ways (pushes received, pulls answered somewhere in the network).
	deadline := time.Now().Add(20 * time.Second)
	for _, n := range nodes {
		for {
			st := n.Stats().Sampling
			if st == nil {
				t.Fatalf("node %v reports no sampling despite WithSampling", n.Ref().ID)
			}
			if st.Rounds > 0 && st.ViewSize > 0 && st.SamplerFill > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %v sampling never converged: %+v", n.Ref().ID, st)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	total := sampling.Stats{}
	for _, n := range nodes {
		st := n.Stats().Sampling
		total.PushesReceived += st.PushesReceived
		total.PullsAnswered += st.PullsAnswered
	}
	if total.PushesReceived == 0 || total.PullsAnswered == 0 {
		t.Errorf("no gossip traffic crossed the wire: %+v", total)
	}

	st := adminStatus(t, seed)
	if st.Sampling == nil || st.Sampling.Rounds == 0 {
		t.Errorf("/status sampling section missing or dead: %+v", st.Sampling)
	}
}
