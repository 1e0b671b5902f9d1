package obs

import (
	"sort"
	"time"
)

// This file reconstructs cross-node span trees from traced events: the
// offline half of the causal-tracing pipeline. Emitters stamp events
// with (trace, span, parent) hex IDs via Event.Stamped; BuildTrees
// groups a merged multi-node event stream back into one Tree per
// operation, with one Span per network hop. Analyzer.Report feeds it the
// traced events of per-node JSONL files (or live /trace scrapes) and
// folds the trees into the Report that `trace report` prints.

// Span is one hop (or the root) of a traced operation: every event that
// carries the same span ID, across all nodes. A protocol hop's span
// holds the sender's send event and the receiver's recv event; a probe
// span holds all four round-trip events (probe, recv, send, probe_ack);
// a root span holds the operation's root event plus whatever same-node
// events were stamped with the root context (status transitions).
type Span struct {
	ID string
	// Parent is the causing span's ID, learned from whichever of the
	// span's events carries one (send-side events do; recv sides and
	// roots don't). Empty for operation roots — and for spans whose
	// send event never reached the trace, which Tree.Orphans exposes.
	Parent   string
	Events   []Event
	Children []*Span
}

// firstOfKind returns the span's earliest event of the given kind.
func (s *Span) firstOfKind(k Kind) (Event, bool) {
	for _, e := range s.Events {
		if e.Kind == k {
			return e, true
		}
	}
	return Event{}, false
}

// rootKinds are the event kinds that legitimately start an operation;
// a parentless span containing none of them is a broken tree, not a
// root (its send-side event is missing).
var rootKinds = map[Kind]bool{
	KindJoinStart:   true,
	KindProbe:       true,
	KindSyncRound:   true,
	KindSampleRound: true,
}

func (s *Span) isRoot() bool {
	if s.Parent != "" {
		return false
	}
	for _, e := range s.Events {
		if rootKinds[e.Kind] {
			return true
		}
	}
	return false
}

// Tree is one traced operation reconstructed across every node it
// touched.
type Tree struct {
	Trace string
	Spans map[string]*Span
	// Root is the operation's root span, nil when it is missing from
	// the stream (e.g. rotated out of a bounded trace ring).
	Root *Span
	// Orphans are non-root spans whose parent span is absent: evidence
	// the reconstruction is partial.
	Orphans []*Span
}

// Complete reports whether the tree reconstructs end to end: the root
// span is present and every other span's parent resolves inside the
// tree. A send without a matching recv does NOT break completeness —
// that is a leaf (the message was in flight, lost, or its receiver was
// an untraced opaque hop).
func (t *Tree) Complete() bool {
	return t.Root != nil && len(t.Orphans) == 0
}

// rootEvent returns the event that started the operation (a join_start,
// probe, sync_round or sample_round); ok is false when the root is
// missing.
func (t *Tree) rootEvent() (Event, bool) {
	if t.Root != nil {
		for _, e := range t.Root.Events {
			if rootKinds[e.Kind] {
				return e, true
			}
		}
	}
	return Event{}, false
}

// RootKind returns the kind of the operation's root event, or "" when
// the root is missing.
func (t *Tree) RootKind() Kind {
	e, _ := t.rootEvent()
	return e.Kind
}

// HasStatus reports whether any event in the tree is a status
// transition to the given detail (e.g. "in_system").
func (t *Tree) HasStatus(detail string) bool {
	for _, s := range t.Spans {
		for _, e := range s.Events {
			if e.Kind == KindStatus && e.Detail == detail {
				return true
			}
		}
	}
	return false
}

// JoinComplete reports whether a join operation reconstructs end to
// end: rooted at a join_start, structurally complete, and containing
// the in_system transition that proves the join finished inside the
// trace.
func (t *Tree) JoinComplete() bool {
	return t.RootKind() == KindJoinStart && t.Complete() && t.HasStatus("in_system")
}

// Depth returns the longest root-to-leaf path length in spans (a lone
// root is depth 1); 0 when the root is missing.
func (t *Tree) Depth() int {
	if t.Root == nil {
		return 0
	}
	var walk func(s *Span) int
	walk = func(s *Span) int {
		d := 0
		for _, c := range s.Children {
			if cd := walk(c); cd > d {
				d = cd
			}
		}
		return d + 1
	}
	return walk(t.Root)
}

// Hop is one reconstructed network hop: a span whose send and recv
// sides both made it into the stream.
type Hop struct {
	Span *Span
	// From/To are the sender and receiver nodes, Msg the message type.
	From, To string
	Msg      string
	Send     Event
	Recv     Event
}

// Latency is the hop's recv-minus-send time. Both stamps come from the
// emitting node's own clock, so cross-node hops carry the receivers'
// clock offsets; correct with the skew estimates from ProbeSamples
// before trusting small values.
func (h Hop) Latency() time.Duration { return h.Recv.T - h.Send.T }

// Hops returns every send/recv pair in the tree, matched within each
// span by message type (a probe span holds both the ping's recv and the
// pong's send on the target node; the type keeps them apart).
func (t *Tree) Hops() []Hop {
	var hops []Hop
	for _, s := range t.Spans {
		for _, send := range s.Events {
			if send.Kind != KindSend {
				continue
			}
			for _, recv := range s.Events {
				if recv.Kind == KindRecv && recv.Msg == send.Msg && recv.Node != send.Node {
					hops = append(hops, Hop{
						Span: s, From: send.Node, To: recv.Node,
						Msg: send.Msg, Send: send, Recv: recv,
					})
					break
				}
			}
		}
	}
	sort.Slice(hops, func(i, j int) bool { return hops[i].Send.T < hops[j].Send.T })
	return hops
}

// ProbeSample is the measurement a fully reconstructed probe round trip
// yields. The ping envelope carries the root span itself, so all four
// timestamps — probe (t1) and probe_ack (t4) on the prober, recv (t2)
// and send (t3) on the target — share one span, and the NTP
// intersection gives both quantities at once.
type ProbeSample struct {
	Prober, Target string
	// RTT is the network round trip with the target's processing time
	// removed: (t4-t1) - (t3-t2). Both differences are same-clock.
	RTT time.Duration
	// Skew estimates the target's clock minus the prober's clock:
	// ((t2-t1) + (t3-t4)) / 2. Exact when the path is symmetric.
	Skew time.Duration
}

// ProbeSample extracts the round-trip measurement from a probe-rooted
// tree; ok is false unless all four events are present on exactly two
// nodes (indirect/relayed probes are skipped — their path is not a
// two-clock round trip).
func (t *Tree) ProbeSample() (ProbeSample, bool) {
	if t.RootKind() != KindProbe || t.Root == nil {
		return ProbeSample{}, false
	}
	probe, ok1 := t.Root.firstOfKind(KindProbe)
	recv, ok2 := t.Root.firstOfKind(KindRecv)
	send, ok3 := t.Root.firstOfKind(KindSend)
	ack, ok4 := t.Root.firstOfKind(KindProbeAck)
	if !ok1 || !ok2 || !ok3 || !ok4 || probe.Detail == "indirect" {
		return ProbeSample{}, false
	}
	if recv.Node != send.Node || probe.Node != ack.Node || probe.Node == recv.Node {
		return ProbeSample{}, false
	}
	t1, t2, t3, t4 := probe.T, recv.T, send.T, ack.T
	return ProbeSample{
		Prober: probe.Node,
		Target: recv.Node,
		RTT:    (t4 - t1) - (t3 - t2),
		Skew:   ((t2 - t1) + (t3 - t4)) / 2,
	}, true
}

// BuildTrees groups a merged event stream into one Tree per trace ID,
// ordered by each trace's earliest event time. Events without trace
// context are ignored; feed them to Analyzer instead.
func BuildTrees(events []Event) []*Tree {
	byTrace := make(map[string]*Tree)
	first := make(map[string]time.Duration)
	var order []string
	for _, e := range events {
		if e.Trace == "" || e.Span == "" {
			continue
		}
		tr, ok := byTrace[e.Trace]
		if !ok {
			tr = &Tree{Trace: e.Trace, Spans: make(map[string]*Span)}
			byTrace[e.Trace] = tr
			first[e.Trace] = e.T
			order = append(order, e.Trace)
		}
		sp, ok := tr.Spans[e.Span]
		if !ok {
			sp = &Span{ID: e.Span}
			tr.Spans[e.Span] = sp
		}
		sp.Events = append(sp.Events, e)
		if e.Parent != "" && sp.Parent == "" {
			sp.Parent = e.Parent
		}
	}
	for _, tr := range byTrace {
		// Deterministic child order regardless of map iteration.
		ids := make([]string, 0, len(tr.Spans))
		for id := range tr.Spans {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			sp := tr.Spans[id]
			switch {
			case sp.isRoot():
				if tr.Root == nil {
					tr.Root = sp
				} else {
					tr.Orphans = append(tr.Orphans, sp)
				}
			case sp.Parent == "":
				tr.Orphans = append(tr.Orphans, sp)
			default:
				parent, ok := tr.Spans[sp.Parent]
				if !ok {
					tr.Orphans = append(tr.Orphans, sp)
					continue
				}
				parent.Children = append(parent.Children, sp)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if first[order[i]] != first[order[j]] {
			return first[order[i]] < first[order[j]]
		}
		return order[i] < order[j]
	})
	out := make([]*Tree, len(order))
	for i, id := range order {
		out[i] = byTrace[id]
	}
	return out
}
