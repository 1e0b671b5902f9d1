package obs

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// Analyze is the one-shot form the tests use: feed every event, report.
func Analyze(events []Event) *Report {
	a := NewAnalyzer("")
	for _, e := range events {
		a.Feed(e)
	}
	return a.Report()
}

// traceIDs hands out distinct trace and span IDs for hand-built trees.
type traceIDs int

func (n *traceIDs) next() string { *n++; return fmt.Sprintf("%016x", int(*n)) }

// probeTrip is one direct probe round trip starting at true time `at`:
// 10ms each way, no processing time, each node stamping with its own
// clock (true time plus its offset).
func (n *traceIDs) probeTrip(at time.Duration, prober, target string, offP, offT time.Duration) []Event {
	tr, span := n.next(), n.next()
	return []Event{
		{T: at + offP, Node: prober, Kind: KindProbe, Peer: pid(strings.ToLower(target)), Trace: tr, Span: span},
		{T: at + ms(10) + offT, Node: target, Kind: KindRecv, Msg: "PingMsg", Trace: tr, Span: span},
		{T: at + ms(10) + offT, Node: target, Kind: KindSend, Msg: "PongMsg", Trace: tr, Span: span},
		{T: at + ms(20) + offP, Node: prober, Kind: KindProbeAck, Peer: pid(strings.ToLower(target)), Trace: tr, Span: span},
	}
}

// joinTree is one join operation rooted at joiner: a join_start, one
// CpRstMsg hop to each of vias taking 30ms of true time, and — when done
// — the in_system transition. off maps a node to its clock offset.
func (n *traceIDs) joinTree(at time.Duration, joiner string, restart int, done bool, off map[string]time.Duration, vias ...string) []Event {
	tr, root := n.next(), n.next()
	evs := []Event{
		{T: at + off[joiner], Node: joiner, Kind: KindJoinStart, N: restart, Trace: tr, Span: root},
		{T: at + off[joiner], Node: joiner, Kind: KindStatus, Detail: "copying", Trace: tr, Span: root},
	}
	for _, via := range vias {
		hop := n.next()
		evs = append(evs,
			Event{T: at + off[joiner], Node: joiner, Kind: KindSend, Peer: pid(strings.ToLower(via)), Msg: "CpRstMsg", Trace: tr, Span: hop, Parent: root},
			Event{T: at + ms(30) + off[via], Node: via, Kind: KindRecv, Peer: pid(strings.ToLower(joiner)), Msg: "CpRstMsg", Trace: tr, Span: hop},
		)
	}
	if done {
		evs = append(evs, Event{T: at + ms(60) + off[joiner], Node: joiner, Kind: KindStatus, Detail: "in_system", Trace: tr, Span: root})
	}
	return evs
}

func TestSkewSolve(t *testing.T) {
	chain := []ProbeSample{
		// b runs 5s ahead of a, c 2s behind b; both directions sampled,
		// with a little asymmetry noise that averages out.
		{Prober: "a", Target: "b", Skew: 5*time.Second + ms(2)},
		{Prober: "b", Target: "a", Skew: -5*time.Second + ms(2)},
		{Prober: "c", Target: "b", Skew: 2 * time.Second},
		// d and e only ever probed each other: no path to the anchor.
		{Prober: "d", Target: "e", Skew: time.Second},
	}
	want := map[string]time.Duration{"b": 0, "a": -5 * time.Second, "c": -2 * time.Second}
	// Map iteration order differs between runs of this loop; the anchor
	// (b: two partners) and every offset must not.
	for i := 0; i < 50; i++ {
		g := make(skewGraph)
		for _, s := range chain {
			g.add(s)
		}
		if got := g.solve(); !reflect.DeepEqual(got, want) {
			t.Fatalf("solve = %v, want %v", got, want)
		}
	}

	// All degrees tied: the first name anchors, whatever order adds ran in.
	for i := 0; i < 50; i++ {
		g := make(skewGraph)
		g.add(ProbeSample{Prober: "y", Target: "x", Skew: ms(7)})
		g.add(ProbeSample{Prober: "q", Target: "p", Skew: ms(3)})
		if got, want := g.solve(), (map[string]time.Duration{"p": 0, "q": -ms(3)}); !reflect.DeepEqual(got, want) {
			t.Fatalf("tied anchors: solve = %v, want %v", got, want)
		}
	}
	if got := make(skewGraph).solve(); got != nil {
		t.Fatalf("no samples: solve = %v, want nil", got)
	}
}

func TestHopLatencySkew(t *testing.T) {
	off := map[string]time.Duration{"A": 0, "B": 5 * time.Second, "C": -3 * time.Second}
	cases := []struct {
		name               string
		probed             [][2]string
		wantHops, wantExcl int
		wantP50            time.Duration
		wantCorrected      bool
		wantSkew           map[string]time.Duration
	}{
		{
			name:     "A and B probed, C not: the A->C hop is excluded",
			probed:   [][2]string{{"A", "B"}, {"B", "A"}},
			wantHops: 1, wantExcl: 1, wantP50: ms(30), wantCorrected: true,
			wantSkew: map[string]time.Duration{"A": 0, "B": 5 * time.Second},
		},
		{
			name:     "all three probed: both hops corrected",
			probed:   [][2]string{{"A", "B"}, {"A", "C"}},
			wantHops: 2, wantExcl: 0, wantP50: ms(30), wantCorrected: true,
			wantSkew: map[string]time.Duration{"A": 0, "B": 5 * time.Second, "C": -3 * time.Second},
		},
		{
			name:     "no probe data: raw latencies, nothing excluded",
			wantHops: 2, wantExcl: 0,
			// A->B reads 30ms+5s, A->C 30ms-3s; nearest-rank p50 of two is the lower.
			wantP50: ms(30) - 3*time.Second,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ids traceIDs
			events := ids.joinTree(0, "A", 0, true, off, "B", "C")
			for _, p := range tc.probed {
				events = append(events, ids.probeTrip(ms(100), p[0], p[1], off[p[0]], off[p[1]])...)
			}
			rep := Analyze(events)
			jt := rep.JoinTrees
			if jt.Reconstructed != 1 {
				t.Fatalf("join not reconstructed: %+v", jt)
			}
			hops := jt.HopsByMsg["CpRstMsg"]
			if hops.Count != tc.wantHops || jt.HopsExcluded != tc.wantExcl || jt.SkewCorrected != tc.wantCorrected {
				t.Errorf("hops %d, excluded %d, corrected %v; want %d, %d, %v",
					hops.Count, jt.HopsExcluded, jt.SkewCorrected, tc.wantHops, tc.wantExcl, tc.wantCorrected)
			}
			if hops.P50 != tc.wantP50 || (tc.wantCorrected && hops.Max != ms(30)) {
				t.Errorf("hop latency p50 %v max %v, want p50 %v", hops.P50, hops.Max, tc.wantP50)
			}
			if !reflect.DeepEqual(rep.ProbeTrees.Skew, tc.wantSkew) {
				t.Errorf("skew = %v, want %v", rep.ProbeTrees.Skew, tc.wantSkew)
			}
			if rep.ProbeTrees.RTT.Count != len(tc.probed) || (len(tc.probed) > 0 && rep.ProbeTrees.RTT.P50 != ms(20)) {
				t.Errorf("probe tree RTT = %+v", rep.ProbeTrees.RTT)
			}
		})
	}
}

func TestJoinTreesRatioAndRequireJoins(t *testing.T) {
	var ids traceIDs
	var events []Event
	// n1: first attempt never finishes, the restart does. n2: clean.
	// n3: never finishes. n4: finishes, but its hop's send side is
	// missing from the trace (an orphan span), so it does not reconstruct.
	events = append(events, ids.joinTree(0, "n1", 0, false, nil, "g")...)
	events = append(events, ids.joinTree(ms(500), "n1", 1, true, nil, "g")...)
	events = append(events, ids.joinTree(0, "n2", 0, true, nil, "g")...)
	events = append(events, ids.joinTree(0, "n3", 0, false, nil, "g")...)
	n4 := ids.joinTree(0, "n4", 0, true, nil, "g")
	events = append(events, append(n4[:2:2], n4[3:]...)...)

	rep := Analyze(events)
	jt := rep.JoinTrees
	if jt.Attempted != 4 || jt.Reconstructed != 2 || jt.Ratio != 0.5 {
		t.Errorf("attempted/reconstructed/ratio = %d/%d/%v, want 4/2/0.5", jt.Attempted, jt.Reconstructed, jt.Ratio)
	}
	// Five join trees over four nodes: one restart.
	if op := rep.Ops["join_start"]; op.Traces != 5 || op.Complete != 4 || jt.Restarts != 1 {
		t.Errorf("join trees %+v, restarts %d; want 5 traces, 4 complete, 1 restart", op, jt.Restarts)
	}
	if got, want := jt.DepthDist, (map[int]int{2: 2}); !reflect.DeepEqual(got, want) {
		t.Errorf("depth distribution = %v, want %v", got, want)
	}
	// The status-derived spans see the same joins without needing trees.
	if len(rep.Joins) != 4 || rep.Total.Count != 3 || rep.JoinRestarts != 1 {
		t.Errorf("spans %d, completed %d, restarts %d; want 4, 3, 1", len(rep.Joins), rep.Total.Count, rep.JoinRestarts)
	}

	if err := rep.RequireJoins(0.5); err != nil {
		t.Errorf("RequireJoins(0.5) at ratio 0.5: %v", err)
	}
	if err := rep.RequireJoins(0.95); err == nil || !strings.Contains(err.Error(), "50.0% below required 95.0%") {
		t.Errorf("RequireJoins(0.95) = %v", err)
	}
	untraced := Analyze([]Event{{Node: "n1", Kind: KindJoinStart}, {Node: "n1", Kind: KindStatus, Detail: "in_system"}})
	if err := untraced.RequireJoins(0.1); err == nil || !strings.Contains(err.Error(), "no join traces") {
		t.Errorf("RequireJoins on an untraced trace = %v", err)
	}
}

func TestNodesCountsEmitters(t *testing.T) {
	rep := Analyze([]Event{
		{Node: "seed1", Kind: KindRecv, Msg: "CpRstMsg"},
		{Node: "seed2", Kind: KindProbe, Seq: 1},
		{Node: "j", Kind: KindJoinStart},
		{Node: "j", Kind: KindStatus, Detail: "copying"},
		{Node: "j", Kind: KindSend, Msg: "CpRstMsg"},
	})
	if rep.Nodes != 3 {
		t.Errorf("Nodes = %d, want 3 (every emitter, not only joiners)", rep.Nodes)
	}
	if len(rep.Joins) != 1 || rep.Convergence.Nodes != 1 {
		t.Errorf("joiners %d, status reporters %d; want 1, 1", len(rep.Joins), rep.Convergence.Nodes)
	}
}

func TestConvergence(t *testing.T) {
	st := func(node, status string) Event { return Event{Node: node, Kind: KindStatus, Detail: status} }
	on := func(node string, k Kind, peer string) Event { return Event{Node: node, Kind: k, Peer: pid(peer)} }
	rep := Analyze([]Event{
		st("a", "in_system"), st("b", "copying"), st("b", "in_system"), st("c", "waiting"),
		st("d", "in_system"), st("d", "leaving"),
		// x: suspected by a and b, only b takes it back. y: suspected
		// then declared. z: suspected then recovered.
		on("a", KindSuspect, "x"), on("b", KindSuspect, "x"), on("b", KindRecovered, "x"),
		on("a", KindSuspect, "y"), on("a", KindDeclared, "y"),
		on("c", KindSuspect, "z"), on("c", KindRecovered, "z"),
		on("a", KindDegraded, "x"), on("a", KindDegraded, "y"), on("a", KindDegradedClear, "y"),
		on("a", KindQuarantine, "m"), on("b", KindQuarantine, "m"), on("b", KindQuarantine, "k"),
		on("b", KindQuarantineRelease, "k"),
	})
	want := Convergence{Nodes: 4, InSystem: 2, Suspects: 1, Degraded: 1, Quarantined: 1}
	if rep.Convergence != want {
		t.Errorf("convergence = %+v, want %+v", rep.Convergence, want)
	}
	if rep.Suspects != 4 || rep.Declared != 1 || rep.Quarantines != 3 || rep.Releases != 1 {
		t.Errorf("activity counters = %d suspects, %d declared, %d quarantines, %d releases",
			rep.Suspects, rep.Declared, rep.Quarantines, rep.Releases)
	}
}

// fleetEvents is a small mixed trace: two traced joins with a restart,
// probe trips between three skewed clocks, liveness flags, traffic.
func fleetEvents() []Event {
	var ids traceIDs
	off := map[string]time.Duration{"g": 0, "n1": time.Second, "n2": -time.Second}
	events := ids.joinTree(0, "n1", 0, false, off, "g")
	events = append(events, ids.joinTree(ms(200), "n1", 1, true, off, "g", "n2")...)
	events = append(events, ids.joinTree(ms(50), "n2", 0, true, off, "g")...)
	events = append(events, ids.probeTrip(ms(300), "g", "n1", off["g"], off["n1"])...)
	events = append(events, ids.probeTrip(ms(320), "n2", "g", off["n2"], off["g"])...)
	events = append(events,
		Event{T: ms(400), Node: "g", Kind: KindStatus, Detail: "in_system"},
		Event{T: ms(410), Node: "g", Kind: KindSuspect, Peer: pid("n2")},
		Event{T: ms(420), Node: "n1", Kind: KindSuspect, Peer: pid("n2")},
		Event{T: ms(430), Node: "n1", Kind: KindRecovered, Peer: pid("n2")},
		Event{T: ms(440), Node: "g", Kind: KindProbe, Seq: 9},
		Event{T: ms(470), Node: "g", Kind: KindProbeAck, Seq: 9},
		Event{T: ms(480), Node: "n2", Kind: KindSend, Msg: "SyncRlyMsg"},
	)
	return events
}

func TestNodeFilter(t *testing.T) {
	events := fleetEvents()
	a := NewAnalyzer("n1")
	var own []Event
	for _, e := range events {
		a.Feed(e)
		if e.Node == "n1" {
			own = append(own, e)
		}
	}
	got := a.Report()
	if want := Analyze(own); !reflect.DeepEqual(got, want) {
		t.Errorf("-node n1 differs from analyzing n1's events alone:\n got %+v\nwant %+v", got, want)
	}
	if got.Nodes != 1 || got.Events != len(own) || len(got.Joins) != 1 || got.Sent["SyncRlyMsg"] != 0 {
		t.Errorf("filtered report = %d nodes, %d events, %d joins", got.Nodes, got.Events, len(got.Joins))
	}
}

func TestPerNodeStreamsEqualMergedStream(t *testing.T) {
	events := fleetEvents()
	want := Analyze(events)
	if want.Convergence.Suspects != 1 || want.JoinTrees.Reconstructed != 2 || want.BigSent != 1 {
		t.Fatalf("fixture lost its point: %+v", want)
	}

	// One JSONL stream per node, fed one after another in either order.
	streams := make(map[string]*bytes.Buffer)
	for _, e := range events {
		if streams[e.Node] == nil {
			streams[e.Node] = new(bytes.Buffer)
		}
		sink := NewJSONL(streams[e.Node])
		sink.Emit(e)
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, order := range [][]string{{"g", "n1", "n2"}, {"n2", "n1", "g"}} {
		a := NewAnalyzer("")
		for _, node := range order {
			if err := ScanJSONL(bytes.NewReader(streams[node].Bytes()), a.Feed); err != nil {
				t.Fatal(err)
			}
		}
		if got := a.Report(); !reflect.DeepEqual(got, want) {
			t.Errorf("per-node streams in order %v differ from the merged stream:\n got %+v\nwant %+v", order, got, want)
		}
	}
}

func TestBigMsgFollowsMsgPackage(t *testing.T) {
	for name, want := range map[string]bool{
		"CpRlyMsg": true, "JoinNotiMsg": true, "SyncPushMsg": true, "LeaveMsg": true,
		"CpRstMsg": false, "PongMsg": false, "SamplePullRlyMsg": false, "NoSuchMsg": false,
	} {
		if BigMsg(name) != want {
			t.Errorf("BigMsg(%q) = %v, want %v", name, !want, want)
		}
	}
	rep := Analyze([]Event{
		{Node: "a", Kind: KindSend, Msg: "JoinNotiMsg"},
		{Node: "a", Kind: KindSend, Msg: "JoinNotiMsg"},
		{Node: "a", Kind: KindSend, Msg: "RvNghNotiMsg"},
	})
	if rep.BigSent != 2 || rep.SmallSent != 1 {
		t.Errorf("big/small = %d/%d, want 2/1", rep.BigSent, rep.SmallSent)
	}
}

func TestFoldPrometheusRoundTrip(t *testing.T) {
	into := make(map[string]float64)
	for node := 1; node <= 2; node++ {
		r := NewRegistry()
		r.Collect(func(w io.Writer) {
			WriteStruct(w, "hc", struct {
				Joins      int
				QueueDepth float64 `metric:"gauge"`
			}{node, 1.5})
		})
		v := r.CounterVec("sent_total", "sends by type", "type")
		for _, typ := range []string{"CpRstMsg", "CpRstMsg", "JoinNotiMsg"} {
			v.With(typ).Inc()
		}
		h := r.Histogram("join_seconds", "latency", []float64{0.1, 1})
		h.Observe(0.05)
		h.Observe(0.5)
		var buf bytes.Buffer
		r.WritePrometheus(&buf)
		if err := FoldPrometheus(&buf, into); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]float64{
		"hc_joins_total":     3,   // 1 + 2
		"hc_queue_depth":     3,   // gauges sum too
		"sent_total":         6,   // both labels, both nodes, under the bare name
		"join_seconds_sum":   1.1, // _bucket lines skipped, _sum/_count kept
		"join_seconds_count": 4,
	}
	if !reflect.DeepEqual(into, want) {
		t.Errorf("folded = %v, want %v", into, want)
	}
}
