package tcptransport

import (
	"context"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/node"
	"hypercube/internal/trace"
)

// TestShippedNodeIgnoresSamplingPeer: a node on node.Shipped runs no
// peer sampler, while a daemon from before it still gossips samples.
// That peer's SamplePush and SamplePullReq reach the machine, which
// answers none, counts each in UnknownDropped and charges its sender no
// misbehaviour score; the connection stays open, so the peer's next
// protocol request is answered on it.
func TestShippedNodeIgnoresSamplingPeer(t *testing.T) {
	const each = 20
	opts, parts := node.Shipped()
	n, err := StartSeed(p163, opts, id.MustParse(p163, "a1d"), "127.0.0.1:0", WithConfig(Config{Config: parts}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	old := newReplyPeer(t, id.MustParse(p163, "b2e"))
	var envs []msg.Envelope
	for range each {
		envs = append(envs,
			msg.Envelope{From: old.ref, To: n.Ref(), Msg: msg.SamplePush{}},
			msg.Envelope{From: old.ref, To: n.Ref(), Msg: msg.SamplePullReq{}})
	}
	conn := dialNode(t, n)
	if _, err := conn.Write(binaryFrame(t, envs...)); err != nil {
		t.Fatal(err)
	}
	awaitInt64(t, "sampling messages dropped as unknown", func() int64 { return int64(n.Stats().Guard.UnknownDropped) }, 2*each)

	// The same connection still carries a protocol request, and its
	// reply is the only thing the node sends the peer.
	if _, err := conn.Write(binaryFrame(t, msg.Envelope{From: old.ref, To: n.Ref(), Msg: msg.CpRst{Level: 0}})); err != nil {
		t.Fatal(err)
	}
	awaitInt64(t, "CpRly to the sampling peer", func() int64 { return int64(old.count(replyKey{msg.TCpRly, 0})) }, 1)
	if got := old.count(replyKey{msg.TSamplePullRly, 0}); got != 0 {
		t.Errorf("the node answered %d pull requests without a sampler", got)
	}
	st := n.Stats()
	if st.Guard.Rejected != 0 || st.Guard.Scorer.Charges != 0 {
		t.Errorf("sampling messages cost their sender: %d rejected, %d charges", st.Guard.Rejected, st.Guard.Scorer.Charges)
	}
	if st.Inbound.Disconnects != 0 || st.Inbound.DecodeErrors != 0 {
		t.Errorf("the peer was cut off: %d disconnects, %d decode errors", st.Inbound.Disconnects, st.Inbound.DecodeErrors)
	}
	if st.Sampling != nil {
		t.Errorf("/status reports a sampler on the shipped stack: %+v", st.Sampling)
	}
}

// TestOpaqueHopInterop: a cluster of traced nodes carries a trace
// context in every sampled record while one tracerless node joins and
// serves as a bootstrap gateway. A node without a tracer decodes the
// context and drops it, so it is an opaque hop: joins through and
// around it must succeed, traced nodes must keep producing spans, and
// the opaque node must emit no trace state at all.
func TestOpaqueHopInterop(t *testing.T) {
	traced := []Option{WithConfig(Config{
		Config:    node.Config{Tracer: trace.NewTracer(trace.NewRandomGen(), 1)},
		TraceRing: 8192,
	})}
	seed, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a1c"), "127.0.0.1:0", traced...)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	join := func(n *Node, via *Node) {
		t.Helper()
		if err := n.Join(via.Ref()); err != nil {
			t.Fatal(err)
		}
		if err := n.AwaitStatus(ctx, core.StatusInSystem); err != nil {
			t.Fatal(err)
		}
	}

	// A traced node joins the traced seed: every record traced.
	a, err := StartJoiner(p163, core.Options{}, id.MustParse(p163, "b2d"), "127.0.0.1:0", traced...)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	join(a, seed)

	// The opaque node: no tracer, so it drops every inbound context and
	// sends untraced records. The ring is tracing-agnostic, so we can
	// still watch its events.
	old, err := StartJoiner(p163, core.Options{}, id.MustParse(p163, "c3e"), "127.0.0.1:0", WithConfig(Config{TraceRing: 8192}))
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	join(old, seed)

	// A traced node bootstraps THROUGH the opaque node: its join's
	// first hop lands on a peer that strips trace context.
	c, err := StartJoiner(p163, core.Options{}, id.MustParse(p163, "d4f"), "127.0.0.1:0", traced...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	join(c, old)

	// Traced nodes produced sampled spans despite the mixed cluster.
	events, ok := seed.DrainTrace()
	if !ok {
		t.Fatal("seed has no trace ring")
	}
	sampled := 0
	for _, e := range events {
		if e.Trace != "" {
			sampled++
		}
	}
	if sampled == 0 {
		t.Error("traced seed emitted no events with trace context")
	}

	// The opaque node never originates or propagates trace state.
	events, ok = old.DrainTrace()
	if !ok {
		t.Fatal("old node has no trace ring")
	}
	if len(events) == 0 {
		t.Fatal("old node emitted no events")
	}
	for _, e := range events {
		if e.Trace != "" || e.Span != "" || e.Parent != "" {
			t.Fatalf("tracerless node emitted trace state: %+v", e)
		}
	}
}
