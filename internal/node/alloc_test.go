package node

import (
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/msg"
	"hypercube/internal/sampling"
	"hypercube/internal/table"
)

// warmShipped returns a node on the shipped profile, plus the peer
// sampler that the benchmark's crash workload still attaches, with peers
// X, Y and Z in its table and its sampler's view, after one call of
// every path the allocation guards below measure, so each has built its
// buffers and caches.
func warmShipped(t *testing.T) *Node {
	t.Helper()
	opts, parts := Shipped()
	parts.Sampling = &sampling.Config{Seed: 1}
	n := New(established(opts), parts)
	n.sampler.SeedPeers(peerX, peerY, peerZ)
	n.Tick(0)
	for _, m := range []msg.Message{msg.SamplePullReq{}, &msg.Ping{Seq: 1}, converged()} {
		if out := n.Deliver(to(peerY, m), 0); len(out) != 1 {
			t.Fatalf("%v answered with %v, want one reply", m.Type(), out)
		}
	}
	n.Machine().SyncPeers()
	return n
}

// converged is the digest of a peer whose table holds every canonical
// occupant of ours: nothing is missing on its side.
func converged() msg.SyncReq {
	fill := table.NewBitVector(p43.D * p43.B)
	for i := range fill.Len() {
		fill.Set(i)
	}
	return msg.SyncReq{Fill: fill}
}

// TestWarmNodeAllocatesOnlyWhatItSends pins the output contract's point:
// on a warm node, answering a message allocates at most the one reply
// it sends, and a call that sends nothing allocates nothing.
func TestWarmNodeAllocatesOnlyWhatItSends(t *testing.T) {
	n := warmShipped(t)
	pull, ping, digest := to(peerY, msg.SamplePullReq{}), to(peerY, &msg.Ping{Seq: 1 << 20}), to(peerY, converged())
	relay := to(peerY, &msg.Ping{Seq: 1 << 20, Origin: peerY, Target: peerZ})
	cases := []struct {
		name string
		run  func()
		max  float64
	}{
		// The reply is boxed once per view change, so an unchanged view
		// answers for free.
		{"Deliver(SamplePullReq)", func() { n.Deliver(pull, 0) }, 0},
		// A sequence number past 255 boxes its Pong, as a live prober's do.
		{"Deliver(Ping)", func() { n.Deliver(ping, 0) }, 1},
		// An indirect probe goes on as the pointer it arrived as.
		{"Deliver(Ping), relayed", func() { n.Deliver(relay, 0) }, 0},
		{"Deliver(SyncReq)", func() { n.Deliver(digest, 0) }, 1},
		{"SyncPeers", func() { n.Machine().SyncPeers() }, 0},
		{"Tick, nothing due", func() { n.Tick(0) }, 0},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(100, tc.run); got > tc.max {
			t.Errorf("%s: %v allocations, want at most %v", tc.name, got, tc.max)
		}
	}
}

// TestResultValidUntilNextCall pins the contract's other half: a result
// is the node's own buffer, so the next call overwrites it. A driver
// that keeps a result past its next call must copy it.
func TestResultValidUntilNextCall(t *testing.T) {
	for name, part := range map[string]msg.Message{
		"prober":  &msg.Ping{Seq: 1},
		"sampler": msg.SamplePullReq{},
		"machine": msg.CpRst{},
	} {
		n := New(established(core.Options{}), Config{Liveness: fastLiveness(), Sampling: &sampling.Config{}})
		n.sampler.SeedPeers(peerZ)
		first := n.Deliver(to(peerX, part), 0)
		if len(first) != 1 || first[0].To.ID != peerX.ID {
			t.Fatalf("%s: first reply %v, want one to %v", name, first, peerX.ID)
		}
		second := n.Deliver(to(peerY, part), 0)
		if len(second) != 1 || first[0].To.ID != peerY.ID {
			t.Errorf("%s: the first result still reads %v after the next call; want it overwritten by the reply to %v",
				name, first[0].To.ID, peerY.ID)
		}
	}
}
