package obs

import (
	"testing"
	"time"
)

// ev builds a traced event with millisecond timestamps.
func ev(tMs int, node string, kind Kind, trace, span, parent string) Event {
	return Event{
		T: time.Duration(tMs) * time.Millisecond, Node: node, Kind: kind,
		Trace: trace, Span: span, Parent: parent,
	}
}

func TestBuildTreesJoin(t *testing.T) {
	const tr = "0102030405060708090a0b0c0d0e0f10"
	joinStart := ev(0, "n1", KindJoinStart, tr, "aaaaaaaaaaaaaaaa", "")
	events := []Event{
		joinStart,
		func() Event {
			e := ev(0, "n1", KindStatus, tr, "aaaaaaaaaaaaaaaa", "")
			e.Detail = "copying"
			return e
		}(),
		// Hop 1: n1 -> n2 (CpMsg), 3ms on the wire.
		func() Event {
			e := ev(1, "n1", KindSend, tr, "bbbbbbbbbbbbbbbb", "aaaaaaaaaaaaaaaa")
			e.Msg = "CpMsg"
			return e
		}(),
		func() Event {
			e := ev(4, "n2", KindRecv, tr, "bbbbbbbbbbbbbbbb", "")
			e.Msg = "CpMsg"
			return e
		}(),
		// Hop 2: n2 -> n1 (CpRlyMsg), caused by hop 1's span.
		func() Event {
			e := ev(5, "n2", KindSend, tr, "cccccccccccccccc", "bbbbbbbbbbbbbbbb")
			e.Msg = "CpRlyMsg"
			return e
		}(),
		func() Event {
			e := ev(9, "n1", KindRecv, tr, "cccccccccccccccc", "")
			e.Msg = "CpRlyMsg"
			return e
		}(),
		func() Event {
			e := ev(9, "n1", KindStatus, tr, "cccccccccccccccc", "")
			e.Detail = "in_system"
			return e
		}(),
	}
	trees := BuildTrees(events)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	tree := trees[0]
	if !tree.Complete() {
		t.Fatalf("tree incomplete: root=%v orphans=%d", tree.Root, len(tree.Orphans))
	}
	if got := tree.RootKind(); got != KindJoinStart {
		t.Fatalf("RootKind = %q, want join_start", got)
	}
	if root, ok := tree.rootEvent(); !ok || root.Node != "n1" {
		t.Fatalf("root event = %+v (%v), want n1's join_start", root, ok)
	}
	if !tree.JoinComplete() {
		t.Fatal("JoinComplete = false, want true")
	}
	if got := tree.Depth(); got != 3 {
		t.Fatalf("Depth = %d, want 3 (root -> hop1 -> hop2)", got)
	}
	hops := tree.Hops()
	if len(hops) != 2 {
		t.Fatalf("got %d hops, want 2", len(hops))
	}
	if hops[0].Msg != "CpMsg" || hops[0].From != "n1" || hops[0].To != "n2" {
		t.Fatalf("hop 0 = %+v", hops[0])
	}
	if got := hops[0].Latency(); got != 3*time.Millisecond {
		t.Fatalf("hop 0 latency = %v, want 3ms", got)
	}
	if got := hops[1].Latency(); got != 4*time.Millisecond {
		t.Fatalf("hop 1 latency = %v, want 4ms", got)
	}
}

func TestBuildTreesOrphan(t *testing.T) {
	const tr = "000102030405060708090a0b0c0d0e0f"
	events := []Event{
		ev(0, "n1", KindJoinStart, tr, "aaaaaaaaaaaaaaaa", ""),
		// This hop's parent span never appears in the stream.
		func() Event {
			e := ev(2, "n3", KindSend, tr, "dddddddddddddddd", "eeeeeeeeeeeeeeee")
			e.Msg = "JoinNotiMsg"
			return e
		}(),
	}
	trees := BuildTrees(events)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	tree := trees[0]
	if tree.Complete() {
		t.Fatal("tree with unresolved parent reported complete")
	}
	if len(tree.Orphans) != 1 {
		t.Fatalf("got %d orphans, want 1", len(tree.Orphans))
	}
	if tree.JoinComplete() {
		t.Fatal("JoinComplete = true for a broken tree")
	}
}

func TestBuildTreesMissingRoot(t *testing.T) {
	const tr = "ffffffffffffffffffffffffffffffff"
	// Only a recv side survived (e.g. the sender's ring rotated): the
	// span is parentless but contains no root-kind event.
	e := ev(1, "n2", KindRecv, tr, "bbbbbbbbbbbbbbbb", "")
	e.Msg = "CpMsg"
	trees := BuildTrees([]Event{e})
	if trees[0].Root != nil {
		t.Fatal("recv-only span promoted to root")
	}
	if trees[0].Complete() {
		t.Fatal("rootless tree reported complete")
	}
	if got := trees[0].Depth(); got != 0 {
		t.Fatalf("Depth = %d, want 0", got)
	}
}

func TestProbeSample(t *testing.T) {
	const tr = "0f0e0d0c0b0a09080706050403020100"
	const span = "1212121212121212"
	// Prober n1 at t1=0/t4=10; target n2's clock runs 100ms ahead:
	// true one-way 4ms each direction, 2ms processing.
	// t2 = 4+100 = 104, t3 = 6+100 = 106.
	probe := ev(0, "n1", KindProbe, tr, span, "")
	recv := func() Event {
		e := ev(104, "n2", KindRecv, tr, span, "")
		e.Msg = "PingMsg"
		return e
	}()
	send := func() Event {
		e := ev(106, "n2", KindSend, tr, span, "")
		e.Msg = "PongMsg"
		return e
	}()
	ack := ev(10, "n1", KindProbeAck, tr, span, "")
	trees := BuildTrees([]Event{probe, recv, send, ack})
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	s, ok := trees[0].ProbeSample()
	if !ok {
		t.Fatal("ProbeSample not extracted")
	}
	if s.Prober != "n1" || s.Target != "n2" {
		t.Fatalf("sample endpoints = %q -> %q", s.Prober, s.Target)
	}
	if want := 8 * time.Millisecond; s.RTT != want {
		t.Fatalf("RTT = %v, want %v", s.RTT, want)
	}
	if want := 100 * time.Millisecond; s.Skew != want {
		t.Fatalf("Skew = %v, want %v", s.Skew, want)
	}

	// Indirect probes are not a two-clock round trip.
	probe.Detail = "indirect"
	trees = BuildTrees([]Event{probe, recv, send, ack})
	if _, ok := trees[0].ProbeSample(); ok {
		t.Fatal("indirect probe yielded a skew sample")
	}
}

func TestBuildTreesIgnoresUntraced(t *testing.T) {
	events := []Event{
		{Node: "n1", Kind: KindSend, Msg: "CpMsg"},
		{Node: "n1", Kind: KindStatus, Detail: "in_system"},
	}
	if got := BuildTrees(events); len(got) != 0 {
		t.Fatalf("untraced events produced %d trees", len(got))
	}
}
