package tcptransport

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/table"
)

// TestTCPCrashDetectionAndRepair kills one node of a live four-node
// network without any goodbye. The survivors' probe goroutines must
// notice, declare the crash, and scrub the dead node from their tables —
// no test-side repair calls, only the node's own machinery. The admin
// /status endpoint must expose the detector's counters throughout.
func TestTCPCrashDetectionAndRepair(t *testing.T) {
	lc := liveness.Config{
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		SuspectAfter:  2,
		ConfirmRounds: 2,
	}
	opts := core.Options{Timeouts: core.Timeouts{
		RetryAfter:  250 * time.Millisecond,
		MaxAttempts: 4,
	}}
	options := []Option{WithLiveness(lc)}

	seed, err := StartSeed(p163, opts, id.MustParse(p163, "abc"), "127.0.0.1:0", options...)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	nodes := []*Node{seed}
	for _, s := range []string{"123", "2b3", "3ac"} {
		j, err := StartJoiner(p163, opts, id.MustParse(p163, s), "127.0.0.1:0", options...)
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

	// Sanity: /status reports the probe counters (acceptance criterion).
	if st := adminStatus(t, seed); st.Liveness == nil {
		t.Fatal("/status has no liveness section despite WithLiveness")
	}

	// A peer that never once answered is dropped as unreachable, not
	// declared. One full round-robin cycle over the seed's three targets
	// guarantees the seed has seen the victim alive before it dies.
	pongs := func() int {
		return seed.Stats().Liveness.PongsReceived
	}
	for base, deadline := pongs(), time.Now().Add(10*time.Second); pongs() < base+3; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("seed never completed a probe cycle")
		}
	}

	victim := nodes[2]
	victimID := victim.Ref().ID
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	survivors := []*Node{nodes[0], nodes[1], nodes[3]}

	// Every survivor must scrub the victim from its table autonomously.
	deadline := time.Now().Add(30 * time.Second)
	for _, n := range survivors {
		for {
			clean := true
			n.Snapshot().ForEach(func(level, digit int, nb table.Neighbor) {
				if nb.ID == victimID {
					clean = false
				}
			})
			if clean {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %v still stores crashed %v", n.Ref().ID, victimID)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	declared := 0
	for _, n := range survivors {
		stats := n.Stats().Liveness
		if stats == nil {
			t.Fatalf("node %v reports no liveness", n.Ref().ID)
		}
		if stats.ProbesSent == 0 {
			t.Errorf("node %v sent no probes", n.Ref().ID)
		}
		declared += stats.Declared
	}
	if declared == 0 {
		t.Error("crash was scrubbed but never declared — detection path untested")
	}
	st := adminStatus(t, seed)
	if st.Liveness == nil || st.Liveness.ProbesSent == 0 {
		t.Errorf("/status liveness counters dead after crash: %+v", st.Liveness)
	}
}

// adminStatus fetches and decodes GET /status from the node's handler.
func adminStatus(t *testing.T, n *Node) Stats {
	t.Helper()
	srv := httptest.NewServer(n.AdminHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}
