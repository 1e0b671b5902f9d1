package tcptransport

import (
	"context"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/node"
	"hypercube/internal/trace"
)

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
