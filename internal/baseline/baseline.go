// Package baseline implements a simplified multicast-based join in the
// style of Tapestry's protocol (Hildrum, Kubiatowicz, Rao & Zhao, SPAA
// 2002) — the related work Liu & Lam's §1 argues against. A joining
// node's existence is announced by a multicast through the neighbor
// forest of its notification set; every intermediate node keeps the
// joining node in a pending list until acknowledgments from all
// downstream nodes return.
//
// The package exists to reproduce the paper's qualitative comparison:
//
//   - the multicast join places join state and message load on *existing*
//     nodes, whereas Liu & Lam's protocol keeps the burden on joiners;
//   - under concurrent same-suffix joins the plain multicast approach can
//     lose updates (first-writer-wins entries with no wait/retry), which
//     is exactly the consistency problem the paper's protocol solves.
//
// The simplification is deliberate and conservative: this baseline gets
// the full multicast machinery (dedup, per-join pending state, acks) but
// not Tapestry's later hardening, so its message counts are if anything
// favorable to the baseline.
package baseline

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/netcheck"
	"hypercube/internal/sim"
	"hypercube/internal/table"
)

// Config parameterizes a baseline join-wave experiment; it mirrors
// overlay.WaveConfig so results are comparable.
type Config struct {
	Params  id.Params
	N       int
	M       int
	Seed    int64
	Latency time.Duration // constant per-hop latency (default 10ms)
}

// Result captures the baseline's cost and consistency outcome.
type Result struct {
	// TotalMessages counts every protocol message (routing probes, table
	// copies, announcements, acks).
	TotalMessages int
	// AnnounceMessages counts multicast announcements plus acks only.
	AnnounceMessages int
	// PeakPendingState is the maximum, over time, of the total number of
	// pending join records held by established nodes — the state burden
	// the paper criticizes (always ~0 in Liu & Lam's protocol).
	PeakPendingState int
	// PeakPendingPerNode is the maximum pending records on any single node.
	PeakPendingPerNode int
	// Violations counts Definition 3.8 violations at quiescence;
	// sequential waves yield 0, concurrent same-suffix waves generally
	// do not.
	Violations int
	// LostJoiners counts joining nodes that ended up unreachable from
	// some established node (false negatives caused by lost updates).
	LostJoiners int
}

type node struct {
	ref table.Ref
	tbl *table.Table
	// pending holds one record per in-flight join announcement this node
	// is relaying: the join-state-on-existing-nodes the paper criticizes.
	pending map[id.ID]*pendingRec
}

type pendingRec struct {
	parent    table.Ref // who to ack when the subtree completes
	awaiting  int
	hasParent bool
}

// network is the baseline simulator state.
type network struct {
	cfg     Config
	engine  *sim.Engine
	nodes   map[id.ID]*node
	result  Result
	pending int // live total pending records
}

// RunWave executes a baseline join wave: N established nodes built with
// global knowledge, M joiners announced concurrently at t=0.
func RunWave(cfg Config) (*Result, error) {
	if cfg.N < 1 || cfg.M < 0 {
		return nil, fmt.Errorf("baseline: invalid wave n=%d m=%d", cfg.N, cfg.M)
	}
	if float64(cfg.N+cfg.M) > 0.9*cfg.Params.Size() {
		return nil, fmt.Errorf("baseline: n+m=%d nodes exceed 90%% of the %g-ID space",
			cfg.N+cfg.M, cfg.Params.Size())
	}
	if cfg.Latency <= 0 {
		cfg.Latency = 10 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := &network{
		cfg:    cfg,
		engine: sim.NewEngine(),
		nodes:  make(map[id.ID]*node, cfg.N+cfg.M),
	}

	taken := make(map[id.ID]bool)
	existing := drawRefs(cfg.Params, cfg.N, rng, taken)
	joiners := drawRefs(cfg.Params, cfg.M, rng, taken)
	netcheck.BuildConsistent(cfg.Params, existing, rng, func(k int, tbl *table.Table, _ []int32) {
		net.nodes[existing[k].ID] = &node{ref: existing[k], tbl: tbl, pending: make(map[id.ID]*pendingRec)}
	})

	for _, j := range joiners {
		j := j
		g0 := existing[rng.Intn(len(existing))]
		net.engine.Schedule(0, func() { net.startJoin(j, g0) })
	}
	net.engine.Run(100_000_000)

	// Evaluate consistency and reachability of the final tables.
	tables := make(map[id.ID]*table.Table, len(net.nodes))
	for x, nd := range net.nodes {
		tables[x] = nd.tbl
	}
	net.result.Violations = len(netcheck.CheckConsistency(cfg.Params, tables))
	for _, j := range joiners {
		lost := false
		for _, e := range existing {
			if _, ok := core.Route(net, e.ID, j.ID, cfg.Params); !ok {
				lost = true
				break
			}
		}
		if lost {
			net.result.LostJoiners++
		}
	}
	return &net.result, nil
}

func drawRefs(p id.Params, count int, rng *rand.Rand, taken map[id.ID]bool) []table.Ref {
	out := make([]table.Ref, 0, count)
	for len(out) < count {
		x := id.Random(p, rng)
		if taken[x] {
			continue
		}
		taken[x] = true
		out = append(out, table.Ref{ID: x, Addr: "sim://" + x.String()})
	}
	return out
}

// TableOf implements core.TableResolver.
func (net *network) TableOf(x id.ID) (*table.Table, bool) {
	u, ok := net.nodes[x]
	if !ok {
		return nil, false
	}
	return u.tbl, true
}

func (net *network) countMsg() {
	net.result.TotalMessages++
}

func (net *network) countAnnounce() {
	net.result.TotalMessages++
	net.result.AnnounceMessages++
}

// startJoin performs the joiner-side work synchronously in simulated
// steps: route to the surrogate (counting hops), copy tables level by
// level to build the joiner's table, then trigger the surrogate's
// multicast.
func (net *network) startJoin(x, g0 table.Ref) {
	p := net.cfg.Params
	// Phase 1: route from g0 toward x to find the surrogate, counting one
	// message per hop. No table holds x yet, so the route ends at an
	// empty entry, on the surrogate.
	path, _ := core.Route(net, g0.ID, x.ID, p)
	net.result.TotalMessages += len(path) - 1
	surrogate := net.nodes[path[len(path)-1]]

	// Phase 2: the joiner builds its table by copying from nodes along
	// the suffix chain (PRR-style, as in the paper's copying phase).
	tbl := table.New(p, x.ID)
	guide := net.nodes[g0.ID]
	for level := 0; level < p.D; level++ {
		net.countMsg() // one copy request/response pair counted once
		net.countMsg()
		for j := 0; j < p.B; j++ {
			if n := guide.tbl.Get(level, j); !n.IsZero() && tbl.Get(level, j).IsZero() {
				tbl.Set(level, j, n)
			}
		}
		next := guide.tbl.Get(level, x.ID.Digit(level))
		if next.IsZero() || next.ID == x.ID {
			break
		}
		guide = net.nodes[next.ID]
	}
	for i := 0; i < p.D; i++ {
		tbl.Set(i, x.ID.Digit(i), table.Neighbor{ID: x.ID, Addr: x.Addr, State: table.StateS})
	}
	net.nodes[x.ID] = &node{ref: x, tbl: tbl, pending: make(map[id.ID]*pendingRec)}

	// Phase 3: multicast announce through the notification set, rooted at
	// the surrogate.
	omega := x.ID.Suffix(surrogate.ref.ID.CommonSuffixLen(x.ID))
	net.deliverAnnounce(surrogate.ref, x, omega, table.Ref{}, false)
}

// deliverAnnounce processes an announcement of joiner x at node u.
func (net *network) deliverAnnounce(uRef table.Ref, x table.Ref, omega id.Suffix, parent table.Ref, hasParent bool) {
	u := net.nodes[uRef.ID]
	k := u.ref.ID.CommonSuffixLen(x.ID)

	// Dedup: already relaying or already stored -> ack immediately.
	if _, busy := u.pending[x.ID]; busy || u.tbl.Get(k, x.ID.Digit(k)).ID == x.ID {
		if hasParent {
			net.sendAck(parent, x)
		}
		return
	}

	// First-writer-wins table update: if the slot is taken by another
	// node, the update is silently lost — the contention Liu & Lam's
	// JoinWait/negative-reply chain exists to prevent.
	if u.tbl.Get(k, x.ID.Digit(k)).IsZero() {
		u.tbl.Set(k, x.ID.Digit(k), table.Neighbor{ID: x.ID, Addr: x.Addr, State: table.StateS})
	}

	// Forward to every distinct table neighbor inside the notification
	// set (suffix omega), excluding x, self, and the announcing parent.
	// Kept in table order: the order the announcements are scheduled in
	// decides who writes a contended slot first, so it must repeat.
	var targets []table.Ref
	u.tbl.ForEach(func(_, _ int, n table.Neighbor) {
		if n.ID == u.ref.ID || n.ID == x.ID || (hasParent && n.ID == parent.ID) {
			return
		}
		if n.ID.HasSuffix(omega) && !slices.Contains(targets, n.Ref()) {
			targets = append(targets, n.Ref())
		}
	})
	if len(targets) == 0 {
		if hasParent {
			net.sendAck(parent, x)
		}
		return
	}

	rec := &pendingRec{parent: parent, hasParent: hasParent, awaiting: len(targets)}
	u.pending[x.ID] = rec
	net.pending++
	if net.pending > net.result.PeakPendingState {
		net.result.PeakPendingState = net.pending
	}
	if len(u.pending) > net.result.PeakPendingPerNode {
		net.result.PeakPendingPerNode = len(u.pending)
	}
	for _, tgt := range targets {
		tgt := tgt
		net.countAnnounce()
		net.engine.Schedule(net.cfg.Latency, func() {
			net.deliverAnnounce(tgt, x, omega, u.ref, true)
		})
	}
}

// sendAck schedules an acknowledgment for joiner x back to node to.
func (net *network) sendAck(to table.Ref, x table.Ref) {
	net.countAnnounce()
	net.engine.Schedule(net.cfg.Latency, func() {
		u := net.nodes[to.ID]
		rec, ok := u.pending[x.ID]
		if !ok {
			return
		}
		rec.awaiting--
		if rec.awaiting > 0 {
			return
		}
		delete(u.pending, x.ID)
		net.pending--
		if rec.hasParent {
			net.sendAck(rec.parent, x)
		}
	})
}
