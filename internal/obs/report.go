package obs

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Report is the one analysis result of a trace, and its JSON form is the
// struct. The embedded Summary is what the streaming pass counted; the
// rest is derived from it, from the per-node state, and from the span
// trees of whatever events carried trace context.
type Report struct {
	Summary
	// Join latency over the completed spans in Summary.Joins (Total.Count
	// is how many completed), and the restarts over all of them.
	JoinRestarts int   `json:"restarts"`
	Total        Stats `json:"total"`
	Copying      Stats `json:"copying"`
	Waiting      Stats `json:"waiting"`
	Notifying    Stats `json:"notifying"`
	// BigSent/SmallSent split Summary.Sent by BigMsg.
	BigSent   int `json:"bigSent"`
	SmallSent int `json:"smallSent"`
	// ProbeRTT is the round trip of each answered direct probe, late
	// ones included, as its probe_ack carries it (a trace written before
	// probe_ack carried rtt has none).
	ProbeRTT Stats `json:"probeRTT"`

	Traces       int                `json:"traces"`               // span trees
	Ops          map[string]OpStats `json:"operations,omitempty"` // by root kind
	JoinTrees    JoinTrees          `json:"joinTrees"`
	ProbeTrees   ProbeTrees         `json:"probeTrees"`
	Convergence  Convergence        `json:"convergence"`
	FleetMetrics map[string]float64 `json:"fleetMetrics,omitempty"` // set by the caller from FoldPrometheus
}

// OpStats counts one root kind's span trees and how many reconstruct.
type OpStats struct {
	Traces   int `json:"traces"`
	Complete int `json:"complete"`
}

// JoinTrees is the cross-node view of the joins: of the nodes that rooted
// a join span tree, how many have at least one that reconstructs end to
// end (root, every parent resolved, in_system reached inside the trace).
type JoinTrees struct {
	Attempted     int     `json:"attempted"`
	Reconstructed int     `json:"reconstructed"`
	Ratio         float64 `json:"ratio"`
	Restarts      int     `json:"restarts"` // join trees beyond one per node
	// HopsByMsg is per-hop latency over the reconstructed joins. A hop's
	// recv.T − send.T is measured on two clocks — on a live fleet,
	// wall-time-since-each-process-start, seconds apart — so when probe
	// round trips yield a skew solution each end's offset is subtracted
	// (SkewCorrected) and hops touching a node the solution does not
	// reach are left out and counted in HopsExcluded. Without any probe
	// data the latencies are raw.
	HopsByMsg     map[string]Stats `json:"hopLatencyByMsg,omitempty"`
	SkewCorrected bool             `json:"hopsSkewCorrected"`
	HopsExcluded  int              `json:"hopsExcluded"`
	DepthDist     map[int]int      `json:"depthDistribution,omitempty"`
}

// ProbeTrees is what fully reconstructed probe round trips measure: RTT
// with the target's processing time removed, and each node's clock offset
// from the anchor node (see skewGraph.solve).
type ProbeTrees struct {
	RTT  Stats                    `json:"rtt"`
	Skew map[string]time.Duration `json:"clockSkewByNode,omitempty"`
}

// Convergence is the fleet's final state as the trace leaves it: nodes
// that reported a status, how many of them ended in_system, and the peers
// still suspected, degraded or quarantined by some observer.
type Convergence struct {
	Nodes       int `json:"nodes"`
	InSystem    int `json:"inSystem"`
	Suspects    int `json:"suspects"`
	Degraded    int `json:"degraded"`
	Quarantined int `json:"quarantined"`
}

// RequireJoins is the reconstruction floor CI holds the tracing pipeline
// to: an error unless at least min of the attempted joins reconstruct.
func (r *Report) RequireJoins(min float64) error {
	if r.JoinTrees.Attempted == 0 {
		return errors.New("join reconstruction required but no join traces found")
	}
	if r.JoinTrees.Ratio < min {
		return fmt.Errorf("join reconstruction %.1f%% below required %.1f%%",
			100*r.JoinTrees.Ratio, 100*min)
	}
	return nil
}

// Report finalizes the analysis. Nodes that only ever appear as
// in_system (wave seeds booted directly into the table, no join_start
// and no copying transition) are not counted as joins.
func (a *Analyzer) Report() *Report {
	rep := &Report{Summary: a.sum}
	rep.Nodes = len(a.nodes)
	rep.TracedEvents = len(a.traced)
	rep.Joins = make([]JoinSpan, 0, len(a.nodes)) // "joins": [] rather than null
	for _, ns := range a.nodes {
		if ns.started {
			rep.Joins = append(rep.Joins, ns.span)
		}
		if ns.phase != "" {
			rep.Convergence.Nodes++
		}
		if ns.phase == "in_system" {
			rep.Convergence.InSystem++
		}
	}
	sort.Slice(rep.Joins, func(i, j int) bool {
		if rep.Joins[i].Start != rep.Joins[j].Start {
			return rep.Joins[i].Start < rep.Joins[j].Start
		}
		return rep.Joins[i].Node < rep.Joins[j].Node
	})
	rep.Convergence.Suspects = a.suspected.peers()
	rep.Convergence.Degraded = a.degraded.peers()
	rep.Convergence.Quarantined = a.quarantined.peers()

	var total, copying, waiting, notifying []time.Duration
	for _, j := range rep.Joins {
		rep.JoinRestarts += j.Restarts
	}
	for _, j := range rep.Completed() {
		total = append(total, j.Total())
		copying = append(copying, j.Copying)
		waiting = append(waiting, j.Waiting)
		notifying = append(notifying, j.Notifying)
	}
	rep.Total, rep.Copying = summarize(total), summarize(copying)
	rep.Waiting, rep.Notifying = summarize(waiting), summarize(notifying)
	rep.ProbeRTT = summarize(a.probeRTTs)
	for typ, n := range rep.Sent {
		if BigMsg(typ) {
			rep.BigSent += n
		} else {
			rep.SmallSent += n
		}
	}
	rep.foldTrees(BuildTrees(a.traced))
	return rep
}

// foldTrees fills the span-tree half of the report.
func (rep *Report) foldTrees(trees []*Tree) {
	rep.Traces = len(trees)
	if len(trees) == 0 {
		return
	}
	rep.Ops = make(map[string]OpStats)
	jt := &rep.JoinTrees
	jt.DepthDist = make(map[int]int)

	joined := make(map[string]bool) // join root node -> any complete join tree
	joinTrees := 0
	var complete []*Tree
	var rtts []time.Duration
	skews := make(skewGraph)
	for _, t := range trees {
		root, _ := t.rootEvent()
		kind := string(root.Kind)
		if kind == "" {
			kind = "(rootless)"
		}
		op := rep.Ops[kind]
		op.Traces++
		if t.Complete() {
			op.Complete++
		}
		rep.Ops[kind] = op

		switch root.Kind {
		case KindJoinStart:
			joinTrees++
			if t.JoinComplete() {
				joined[root.Node] = true
				jt.DepthDist[t.Depth()]++
				complete = append(complete, t)
			} else if !joined[root.Node] {
				joined[root.Node] = false
			}
		case KindProbe:
			if s, ok := t.ProbeSample(); ok {
				rtts = append(rtts, s.RTT)
				skews.add(s)
			}
		}
	}

	jt.Attempted = len(joined)
	for _, ok := range joined {
		if ok {
			jt.Reconstructed++
		}
	}
	if jt.Attempted > 0 {
		jt.Ratio = float64(jt.Reconstructed) / float64(jt.Attempted)
	}
	jt.Restarts = joinTrees - jt.Attempted

	skew := skews.solve()
	jt.SkewCorrected = skew != nil
	hops := make(map[string][]time.Duration)
	for _, t := range complete {
		for _, h := range t.Hops() {
			lat := h.Latency()
			if skew != nil {
				from, okFrom := skew[h.From]
				to, okTo := skew[h.To]
				if !okFrom || !okTo {
					jt.HopsExcluded++
					continue
				}
				lat -= to - from
			}
			hops[h.Msg] = append(hops[h.Msg], lat)
		}
	}
	jt.HopsByMsg = make(map[string]Stats, len(hops))
	for m, ds := range hops {
		jt.HopsByMsg[m] = summarize(ds)
	}
	rep.ProbeTrees = ProbeTrees{RTT: summarize(rtts), Skew: skew}
}

// skewGraph accumulates pairwise clock-offset samples from probe round
// trips. Both directions of a pair share one entry, keyed low name first
// and holding the high node's clock minus the low node's, so the average
// does not depend on which direction was seen last.
type skewGraph map[[2]string]*skewSum

type skewSum struct {
	sum time.Duration
	n   int
}

func (g skewGraph) add(s ProbeSample) {
	lo, hi, d := s.Prober, s.Target, s.Skew
	if lo > hi {
		lo, hi, d = hi, lo, -d
	}
	k := [2]string{lo, hi}
	if g[k] == nil {
		g[k] = &skewSum{}
	}
	g[k].sum += d
	g[k].n++
}

// solve turns the pairwise averages into per-node clock offsets: anchor
// the node with the most measurement partners (first by name on ties) at
// zero and propagate breadth-first in name order (offset[b] = offset[a] +
// skew(a→b)). Nodes unreachable from the anchor through any probe pair
// are omitted; nil when there are no samples at all.
func (g skewGraph) solve() map[string]time.Duration {
	if len(g) == 0 {
		return nil
	}
	adj := make(map[string]map[string]time.Duration)
	link := func(a, b string, d time.Duration) {
		if adj[a] == nil {
			adj[a] = make(map[string]time.Duration)
		}
		adj[a][b] = d
	}
	for k, e := range g {
		avg := e.sum / time.Duration(e.n)
		link(k[0], k[1], avg)
		link(k[1], k[0], -avg)
	}
	anchor, best := "", -1
	for n, peers := range adj {
		if len(peers) > best || len(peers) == best && n < anchor {
			anchor, best = n, len(peers)
		}
	}
	offsets := map[string]time.Duration{anchor: 0}
	queue := []string{anchor}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		next := make([]string, 0, len(adj[cur]))
		for n := range adj[cur] {
			next = append(next, n)
		}
		sort.Strings(next)
		for _, n := range next {
			if _, done := offsets[n]; done {
				continue
			}
			offsets[n] = offsets[cur] + adj[cur][n]
			queue = append(queue, n)
		}
	}
	return offsets
}
