// Package antientropy schedules the periodic table-audit protocol of
// the partition-tolerance extension: each round a node audits its own
// table (purging occupants the netcheck predicates would flag as Ghost
// or WrongSuffix) and runs one push-pull digest exchange with the next
// live neighbor in rotation, pulling entries it is missing and pushing
// entries the peer is missing (core's SyncReq/SyncRly/SyncPush).
//
// After a partition heals, the two sides' tables have diverged — each is
// missing nodes that joined the other side and may still hold entries
// the other side repaired away. The paper's join protocol never revisits
// settled entries, so nothing else re-converges them; anti-entropy
// rounds do, pairwise and without a global oracle, and as a side effect
// they also repair arbitrary divergence from lost notifications.
//
// The rounds keep a Trickle cadence (Levis et al., RFC 6206): after a
// round with no news since the one before — the node's table did not
// change, no sync shipped it an entry or took one from it, and no
// outside signal fired — the gap to the next round doubles, up to
// maxBackoff × Interval; any news resets it to Interval and brings the
// next round forward to one Interval after the last. A peer the
// failure detector suspected that answers again is synced with at the
// next tick: after a heal, the peers across the cut are the ones whose
// tables diverged. A converged network therefore gossips at the capped
// rate, and a heal or a crash is met at the full one.
//
// Like liveness.Prober, the engine is transport-agnostic and
// clock-driven: Tick(now) consumes virtual or real time and returns the
// messages to transmit. The overlay simulator drives it from the
// discrete-event clock; tcptransport from a timer goroutine, under the
// same lock as the machine it audits.
package antientropy

import (
	"slices"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/obs"
	"hypercube/internal/table"
	"hypercube/internal/trace"
)

// Config tunes the anti-entropy engine. The zero value is usable.
type Config struct {
	// Interval is the gap between successive rounds while they hear
	// news, and the gap the back-off starts from. Default 2s.
	Interval time.Duration
}

// maxBackoff caps a quiet node's gap between rounds at maxBackoff ×
// Interval, which bounds how long a divergence no signal names (a lost
// notification) stands before a round can find it. At 4 a byzantine
// member's own rounds thin out until its hostile traffic no longer
// reaches the guard scorer's quarantine threshold (DESIGN.md, "The
// anti-entropy cadence").
const maxBackoff = 2

// WithDefaults returns c with every unset field at its documented
// default: the values an Engine built from c runs with.
func (c Config) WithDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	return c
}

// Stats counts the engine's activity, for admin endpoints and tests.
type Stats struct {
	// Rounds counts sync rounds initiated (one digest exchange each).
	Rounds int `json:"rounds"`
	// Pulled counts table entries installed from peers' replies and
	// pushes (including rounds initiated by the peer).
	Pulled int `json:"pulled"`
	// Purged counts entries removed by table audits.
	Purged int `json:"purged"`
	// Deprioritized counts rounds where one or more degraded peers were
	// filtered out of partner choice (health predicate wired and at
	// least one healthy alternative existed).
	Deprioritized int `json:"deprioritized"`
}

// Engine drives anti-entropy rounds for one node's machine. It is not
// safe for concurrent use; drive it from the goroutine (or under the
// lock) that owns the machine.
type Engine struct {
	cfg     Config
	m       *core.Machine
	nextDue time.Duration
	cursor  int
	started bool
	rounds  int

	// The Trickle cadence: gap is the wait after the round due at last,
	// heard the news generation that round saw, and news, when non-nil,
	// adds signals the machine does not see (see SetNews). returned
	// queues the peers to sync with next (see Returned).
	gap      time.Duration
	last     time.Duration
	heard    uint64
	news     func() uint64
	returned []id.ID

	// sampled, when non-nil, supplies peers from the gossip sampling
	// layer; every sampledEvery-th round syncs with a sampled peer
	// instead of a table neighbor, and an empty table falls back to
	// sampled peers entirely.
	sampled func(int) []table.Ref

	// health, when non-nil, flags the peers unfit to be a sync partner
	// (see SetHealth); deprioritized counts rounds where degraded peers
	// were filtered out of partner choice.
	health        Health
	deprioritized int

	// Observability (nil when tracing is off; see SetSink). tracer,
	// when non-nil, roots one span per sync round (see SetTracer).
	sink     obs.Sink
	selfName string
	tracer   *trace.Tracer

	// Scratch reused between Ticks: Tick's result and the healthy
	// partners of a round.
	out []msg.Envelope
	fit []table.Ref
}

// New creates an engine auditing m.
func New(cfg Config, m *core.Machine) *Engine {
	return &Engine{cfg: cfg.WithDefaults(), m: m}
}

// SetPeerSampler installs a source of sampled peers. Table neighbors
// are systematically correlated (they share suffixes with the node), so
// syncing only with them can leave two table-disjoint cliques diverged
// forever; a periodic round with a uniformly sampled peer breaks the
// correlation.
func (e *Engine) SetPeerSampler(f func(int) []table.Ref) { e.sampled = f }

// Health flags degraded peers; *rtt.Estimator is one.
type Health interface {
	// Degraded reports whether peer x is flagged degraded now.
	Degraded(x id.ID) bool
	// DegradedCount returns how many peers are flagged now.
	DegradedCount() int
}

// SetHealth installs a per-peer health source (the gray-failure
// extension wires the RTT estimator here). Each round's partner is
// chosen among healthy peers first; degraded peers are synced with only
// when no healthy peer exists — a sync round against a 10x-slower peer
// wastes the whole round's budget on one crawling exchange, but a
// degraded peer must still converge eventually rather than being
// partitioned out of anti-entropy. While no peer at all is flagged, the
// candidates are not checked one by one.
func (e *Engine) SetHealth(h Health) { e.health = h }

// SetNews adds a source of news the machine does not see: f returns a
// count that moves whenever something happened that should bring the
// next round forward (internal/node counts partition-mode exits and
// guard rejections).
func (e *Engine) SetNews(f func() uint64) { e.news = f }

// Returned tells the engine that peer x, which the failure detector
// suspected, answered again: the next tick runs a round with x, ahead
// of the rotation, unless x is degraded or no longer a sync partner by
// then.
func (e *Engine) Returned(x id.ID) {
	if !slices.Contains(e.returned, x) {
		e.returned = append(e.returned, x)
	}
}

// heardNow returns the news generation: the machine's plus SetNews's.
func (e *Engine) heardNow() uint64 {
	g := e.m.News()
	if e.news != nil {
		g += e.news()
	}
	return g
}

// sampledEvery is the round cadence of sampled-peer syncs: every 4th
// round uses a sampled peer when a sampler is wired.
const sampledEvery = 4

// SetSink installs the protocol-event sink; nil or obs.Nop turns tracing
// off (the default). Wrap with obs.Clocked so the driving runtime stamps
// Event.T.
func (e *Engine) SetSink(s obs.Sink) {
	if obs.IsNop(s) {
		e.sink = nil
		return
	}
	e.sink = s
	e.selfName = e.m.Self().ID.String()
}

// SetTracer installs the span-context source for causal tracing; nil
// turns it off (the default). Each sync round becomes a traced
// operation root: the sync_round event carries the root span and the
// round's digest exchange descends from it.
func (e *Engine) SetTracer(t *trace.Tracer) { e.tracer = t }

// Stats returns the engine's activity counters.
func (e *Engine) Stats() Stats {
	return Stats{Rounds: e.rounds, Pulled: e.m.SyncPulled(), Purged: e.m.AuditPurged(), Deprioritized: e.deprioritized}
}

// Tick advances the engine to time now, running any due rounds and
// returning the traffic to transmit, in the engine's own buffer, valid
// until its next Tick. The first tick staggers the round phase
// deterministically per node so a fleet started together does not sync
// in lockstep.
func (e *Engine) Tick(now time.Duration) []msg.Envelope {
	if !e.started {
		e.started = true
		e.nextDue = now + e.stagger()
		e.gap, e.last, e.heard = e.cfg.Interval, e.nextDue-e.cfg.Interval, e.heardNow()
	}
	switch {
	case len(e.returned) > 0:
		e.nextDue = min(e.nextDue, now)
	case e.heardNow() != e.heard:
		e.gap, e.nextDue = e.cfg.Interval, min(e.nextDue, e.last+e.cfg.Interval)
	}
	out := e.out[:0]
	for e.nextDue <= now {
		if heard := e.heardNow(); heard == e.heard {
			e.gap = min(2*e.gap, maxBackoff*e.cfg.Interval)
		} else {
			e.gap, e.heard = e.cfg.Interval, heard
		}
		e.last = e.nextDue
		e.nextDue += e.gap
		out = e.round(out)
	}
	e.out = out
	return out
}

// stagger derives a per-node phase offset in [0, Interval) from the
// node's ID digits.
func (e *Engine) stagger() time.Duration {
	self := e.m.Self().ID
	h := uint64(0)
	for i := 0; i < self.Len(); i++ {
		h = h*131 + uint64(self.Digit(i)) + 1
	}
	return time.Duration(h % uint64(e.cfg.Interval))
}

// round runs one audit + sync round and appends its traffic to out.
// Only S-nodes participate: a joining node's table is still being built
// by the join protocol, and a departing node's table is being abandoned.
func (e *Engine) round(out []msg.Envelope) []msg.Envelope {
	if !e.m.IsSNode() {
		e.returned = e.returned[:0]
		return out
	}
	purged, audit := e.m.AuditTable()
	out = append(out, audit...)
	if purged > 0 && e.sink != nil {
		e.sink.Emit(obs.Event{Node: e.selfName, Kind: obs.KindAuditPurge, N: purged})
	}
	peer, ok := e.takeReturned()
	if !ok {
		if peer, ok = e.next(); !ok {
			return out
		}
	}
	e.rounds++
	var ctx trace.Context
	if e.tracer != nil {
		ctx = e.tracer.Root()
	}
	if e.sink != nil {
		e.sink.Emit(obs.Event{Node: e.selfName, Kind: obs.KindSyncRound, Peer: peer.ID}.Stamped(ctx, trace.SpanID{}))
	}
	return append(out, e.m.StartSync(peer, ctx)...)
}

// takeReturned pops the returned peers until one is still a sync
// partner and not degraded.
func (e *Engine) takeReturned() (table.Ref, bool) {
	for len(e.returned) > 0 {
		x := e.returned[0]
		e.returned = e.returned[1:]
		if e.health != nil && e.health.DegradedCount() > 0 && e.health.Degraded(x) {
			continue
		}
		for _, r := range e.m.SyncPeers() {
			if r.ID == x {
				return r, true
			}
		}
	}
	return table.Ref{}, false
}

// next picks the rotation's partner: the next sync candidate, a
// sampled peer every sampledEvery-th round, healthy peers first.
func (e *Engine) next() (table.Ref, bool) {
	peers := e.m.SyncPeers()
	if e.sampled != nil {
		if len(peers) == 0 || e.cursor%sampledEvery == sampledEvery-1 {
			if extra := e.sampled(1); len(extra) > 0 && extra[0].ID != e.m.Self().ID {
				peers = extra
			}
		}
	}
	if len(peers) == 0 {
		return table.Ref{}, false
	}
	if e.health != nil && e.health.DegradedCount() > 0 {
		fit := e.fit[:0]
		for _, r := range peers {
			if !e.health.Degraded(r.ID) {
				fit = append(fit, r)
			}
		}
		e.fit = fit
		// Healthy peers first; an all-degraded neighborhood still syncs.
		if len(fit) > 0 {
			if len(fit) < len(peers) {
				e.deprioritized++
			}
			peers = fit
		}
	}
	peer := peers[e.cursor%len(peers)]
	e.cursor++
	return peer, true
}
