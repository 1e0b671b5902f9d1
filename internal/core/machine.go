// Package core implements the join protocol of Liu & Lam (ICDCS 2003) for
// the hypercube routing scheme: the per-node protocol state machine of
// Figures 5-14, and the suffix-matching routing of §2.2.
//
// A Machine holds one node's protocol state. It is a pure, non-blocking
// state machine: Deliver consumes one message and returns the messages to
// transmit. Every entry point that returns messages returns the
// machine's own buffer, valid until the next call into the machine; a
// caller that keeps them longer copies them. The discrete-event
// simulator (internal/sim + internal/overlay) and the TCP transport
// (internal/transport/tcptransport) drive the same Machine, composed
// with its optional parts by internal/node, so the protocol logic exists
// exactly once.
//
// Per the paper's design, only joining nodes keep extra join state (the
// sets Qr, Qn, Qj, Qsn, Qsr and noti_level); established nodes keep only
// their neighbor table and reverse-neighbor set.
package core

import (
	"fmt"
	"slices"
	"time"

	"hypercube/internal/guard"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/obs"
	"hypercube/internal/rtt"
	"hypercube/internal/table"
	"hypercube/internal/trace"
)

// Status is a node's protocol status (§4).
type Status uint8

const (
	// StatusCopying: the node is building its table level by level by
	// copying from nodes already in the network (Figure 5).
	StatusCopying Status = iota + 1
	// StatusWaiting: the node has sent a JoinWaitMsg and waits to be
	// stored in some node's table (Figures 6-7).
	StatusWaiting
	// StatusNotifying: the node is notifying nodes that share at least
	// noti_level rightmost digits with it (Figures 8-12).
	StatusNotifying
	// StatusInSystem: the node is an S-node, fully part of the network.
	StatusInSystem
)

// String renders the paper's name for the status.
func (s Status) String() string {
	switch s {
	case StatusCopying:
		return "copying"
	case StatusWaiting:
		return "waiting"
	case StatusNotifying:
		return "notifying"
	case StatusInSystem:
		return "in_system"
	case StatusLeaving:
		return "leaving"
	case StatusLeft:
		return "left"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Options select the optional §6.2 message-size reductions and the
// failure-detection extensions.
type Options struct {
	// ReduceLevels ships only levels [noti_level, csuf] of the joiner's
	// table inside JoinNotiMsg instead of the whole table.
	ReduceLevels bool
	// BitVector attaches the joiner's fill vector to JoinNotiMsg so the
	// receiver's reply omits entries the joiner already has.
	BitVector bool
	// Timeouts enables clock-driven resends and join restarts (see
	// Machine.Tick); the zero value keeps the paper's purely
	// message-driven behavior.
	Timeouts Timeouts
	// Guard, when non-nil, enables the misbehavior scorer: peers whose
	// messages repeatedly fail validation are quarantined (traffic
	// dropped at ingress, never installed or gossiped about, released
	// after a cooldown). Semantic validation itself is always on — a
	// nil Guard only disables scoring.
	Guard *guard.Policy
}

// The budgets cap the state an established node holds for peers, so a
// flood of (possibly spoofed) joiners costs bounded memory. Requests
// beyond a budget are shed — the protocol's timeout resends are the
// retry path.
const (
	// maxDeferredJoins caps Qj, the JoinWait requests a T-node parks
	// until it switches to in_system.
	maxDeferredJoins = 1024
	// maxSpeNoti caps Qsn/Qsr, the special-notification exchanges a
	// joiner tracks (Figure 10).
	maxSpeNoti = 4096
	// maxReverse caps the reverse-neighbor set.
	maxReverse = 4096
)

// GuardStats are a machine's hostile-input counters: envelopes rejected
// by semantic validation, unknown-type drops, ingress drops of
// quarantined senders, budget-shed requests, and the scorer's own
// lifecycle counters.
type GuardStats struct {
	Rejected       int         `json:"rejected"`
	UnknownDropped int         `json:"unknownDropped"`
	IngressDropped int         `json:"ingressDropped"`
	BusyDeferred   int         `json:"busyDeferred"`
	Scorer         guard.Stats `json:"scorer"`
}

// Machine is the protocol state machine for a single node.
// It is not safe for concurrent use; drive it from one goroutine or under
// an external lock.
type Machine struct {
	params id.Params
	self   table.Ref
	status Status
	tbl    *table.Table
	opts   Options
	// boxes is the ID space's shared CpRst and RvNghNoti/RvNghNotiRly
	// values; send takes them from here instead of boxing each anew.
	boxes *msg.Boxes

	// reverse is the set of nodes known to store this node in their
	// tables (the paper's R sets, kept by node instead of entry: the
	// InSysNoti fan-out and the leave and failure gossip need the node
	// set), ascending by ID, one ref per node.
	reverse []table.Ref
	// reverseGen counts changes to reverse: a member added, re-addressed
	// or removed. syncCands caches the sorted table ∪ reverse union,
	// crashed and departed nodes left out, built at syncCandsAt (see
	// syncKey); SyncPeers filters it for quarantines into syncPeers.
	// auditedAt is the syncKey at which AuditTable last found nothing
	// to purge.
	reverseGen  uint64
	syncCands   []table.Ref
	syncCandsAt syncKey
	syncPeers   []table.Ref
	auditedAt   syncKey

	notiLevel int
	qr        map[id.ID]struct{} // nodes we await JoinWait/JoinNoti replies from
	qn        map[id.ID]struct{} // nodes we have notified
	qj        map[id.ID]table.Ref
	qsn       map[id.ID]struct{} // nodes announced via SpeNoti
	qsr       map[id.ID]struct{} // SpeNoti replies outstanding (keyed by Y)

	// copying-phase cursor
	copyLevel int
	copyFrom  table.Ref

	// §7-extension state (leave protocol and failure recovery).
	leaveAcks map[id.ID]struct{}
	// departed remembers nodes whose LeaveMsg we processed, so repairs
	// never reinstall them (concurrent leavers can appear in each
	// other's donor tables).
	departed map[id.ID]struct{}
	// repairs holds one record per entry that a crash or a leave emptied
	// and that is not repaired yet: Tick's crash job, a leave's chase of
	// departed tables, or both (leave.go).
	repairs map[[2]int]*repair

	// Clock-driven failure-detection state (timeout.go): the time the
	// runtime last handed in (Advance, Tick), outstanding request/reply
	// exchanges, fallback bootstrap nodes for join restarts, and nodes
	// declared crashed.
	now         time.Duration
	exchanges   map[xchgKey]*exchange
	gateways    map[id.ID]table.Ref
	restarts    int
	failed      map[id.ID]struct{}
	needsRejoin bool
	// unheard holds the nodes DropUnreachable dropped, until each is
	// heard from again (Deliver).
	unheard map[id.ID]struct{}

	// Anti-entropy accounting (sync.go): entries installed from peers'
	// sync replies/pushes, sync replies and pushes that shipped at least
	// one entry, and entries purged by table audits.
	syncPulled  int
	syncShipped int
	auditPurged int

	// Hostile-input defenses: the optional misbehavior scorer and its
	// counters.
	scorer *guard.Scorer
	gstats GuardStats

	// sampled, when non-nil, supplies byzantine-resistant random peers
	// from the sampling layer; pickGateway falls back to it when every
	// registered gateway and table entry is exhausted or quarantined.
	sampled func(int) []table.Ref

	// est, when non-nil, seeds each exchange's first resend deadline from
	// the peer's measured RTO instead of the fixed Timeouts.RetryAfter,
	// and is fed the round-trip of every un-resent exchange (see
	// timeout.go). Shared with the liveness prober via SetRTT.
	est *rtt.Estimator

	counters msg.Counters
	// out collects what the current entry point sends. Every entry point
	// resets it on entry and returns it (take), so a result is valid
	// until the next call into the machine.
	out []msg.Envelope
	// Scratch reused between Ticks: repairsPending's sorted entries and
	// tickExchanges' sorted keys, never returned to a caller.
	pending [][2]int
	keys    []xchgKey

	// Observability (nil when tracing is off; see SetSink). selfName
	// caches the node's ID string so the emit path never re-renders it.
	sink     obs.Sink
	selfName string

	// Causal tracing (nil when off; see SetTracer). cur is the active
	// span context: a root allocated at an operation start (StartJoin,
	// startRejoin, StartSync) or the context of the envelope currently
	// being delivered. send allocates one child span per outgoing
	// envelope under it; a machine without a tracer drops inbound
	// contexts — it is an opaque hop. joinCtx pins the in-flight join's
	// root context from join_start until in_system: status transitions
	// are stamped with it, because under concurrent joins the message
	// that completes this node's join may belong to another operation's
	// trace — the lifecycle still belongs to ours.
	tracer  *trace.Tracer
	cur     trace.Context
	joinCtx trace.Context
}

// SetSink installs the protocol-event sink; nil or obs.Nop turns tracing
// off (the default). The machine never stamps Event.T — wrap the sink
// with obs.Clocked so the driving runtime's clock does.
func (m *Machine) SetSink(s obs.Sink) {
	if obs.IsNop(s) {
		m.sink = nil
		return
	}
	m.sink = s
	m.selfName = m.self.ID.String()
}

// SetTracer installs the span-context source for causal tracing; nil
// turns it off (the default). Without a tracer the machine neither
// roots spans nor forwards inbound contexts — traced traffic crosses it
// as an opaque hop.
func (m *Machine) SetTracer(t *trace.Tracer) { m.tracer = t }

// setStatus transitions the protocol status and emits the event every
// status change must produce; all assignments to m.status (after
// construction) go through here. While a traced join is in flight the
// event is stamped with the join's root context (so the in_system
// transition lands in the join's own span tree even when the message
// that triggered it belongs to a concurrent operation); otherwise with
// the active span context.
func (m *Machine) setStatus(s Status) {
	m.status = s
	if m.sink != nil {
		ctx := m.cur
		if m.joinCtx.Sampled() {
			ctx = m.joinCtx
		}
		m.sink.Emit(obs.Event{Node: m.selfName, Kind: obs.KindStatus, Detail: s.String()}.Stamped(ctx, trace.SpanID{}))
	}
	if s == StatusInSystem {
		m.joinCtx = trace.Context{}
		// The bootstrap nodes served the join that just ended. Nothing
		// tells a member when one of them departs or crashes unless it
		// also holds it in its table, so a later rejoin picks its
		// gateway from the table, which leave notices and the detector
		// keep current.
		m.gateways = nil
	}
}

// NewJoiner returns a machine for a node about to join: status copying,
// empty table. Call StartJoin with the bootstrap node to begin.
func NewJoiner(p id.Params, self table.Ref, opts Options) *Machine {
	return newMachine(p, self, StatusCopying, table.New(p, self.ID), opts)
}

// NewSeed returns the machine of the very first node of a network
// (§6.1): status in_system, table holding only its own diagonal entries
// with state S.
func NewSeed(p id.Params, self table.Ref, opts Options) *Machine {
	m := newMachine(p, self, StatusInSystem, table.New(p, self.ID), opts)
	for i := 0; i < p.D; i++ {
		m.tbl.Set(i, self.ID.Digit(i), table.Neighbor{ID: self.ID, Addr: self.Addr, State: table.StateS})
	}
	return m
}

// NewEstablished wraps a pre-built consistent table (e.g. constructed with
// global knowledge for simulation initial conditions) in an in_system
// machine. The table is adopted, not copied; the caller must not retain it.
func NewEstablished(p id.Params, self table.Ref, tbl *table.Table, opts Options) *Machine {
	if tbl.Owner() != self.ID {
		panic(fmt.Sprintf("core: table owner %v is not %v", tbl.Owner(), self.ID))
	}
	return newMachine(p, self, StatusInSystem, tbl, opts)
}

func newMachine(p id.Params, self table.Ref, status Status, tbl *table.Table, opts Options) *Machine {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid params: %v", err))
	}
	m := &Machine{
		params: p,
		self:   self,
		status: status,
		tbl:    tbl,
		opts:   opts,
		boxes:  msg.BoxesFor(p),
		qr:     make(map[id.ID]struct{}),
		qn:     make(map[id.ID]struct{}),
		qj:     make(map[id.ID]table.Ref),
		qsn:    make(map[id.ID]struct{}),
		qsr:    make(map[id.ID]struct{}),
	}
	if opts.Guard != nil {
		m.scorer = guard.NewScorer()
	}
	return m
}

// Advance moves the machine's clock to now (duration since the run
// started) without running any timer. Tick does it itself; a runtime
// calls it before Deliver or an entry point that sends, so quarantines
// age and each exchange it opens is stamped with its real send time.
func (m *Machine) Advance(now time.Duration) { m.now = now }

// SetPeerSampler installs a source of sampled peers (the gossip
// peer-sampling layer). Gateway selection falls back to it when the
// static gateway set and the table are exhausted or quarantined.
func (m *Machine) SetPeerSampler(f func(int) []table.Ref) { m.sampled = f }

// SetRTT attaches a per-peer RTT estimator: request/reply exchanges
// seed their first resend deadline from the peer's measured RTO
// (falling back to Timeouts.RetryAfter until samples exist) and feed
// their round-trips back. Pass the same estimator the liveness prober
// uses so probe and exchange samples pool. Round-trips are measured on
// the clock Advance and Tick move, so a runtime that only ticks measures
// them at Tick granularity.
func (m *Machine) SetRTT(est *rtt.Estimator) { m.est = est }

// PeerQuarantined reports whether the guard scorer currently quarantines
// x. False when no scorer is configured.
func (m *Machine) PeerQuarantined(x id.ID) bool {
	return m.scorer != nil && m.scorer.Quarantined(x, m.now)
}

// GuardStats returns the machine's hostile-input counters, including the
// scorer's (zero when no Guard policy is configured).
func (m *Machine) GuardStats() GuardStats {
	gs := m.gstats
	if m.scorer != nil {
		gs.Scorer = m.scorer.Stats()
	}
	return gs
}

// Self returns the node's own reference.
func (m *Machine) Self() table.Ref { return m.self }

// Params returns the ID-space parameters.
func (m *Machine) Params() id.Params { return m.params }

// Status returns the node's current protocol status.
func (m *Machine) Status() Status { return m.status }

// IsSNode reports whether the node reached status in_system.
func (m *Machine) IsSNode() bool { return m.status == StatusInSystem }

// NotiLevel returns the node's noti_level (meaningful once notifying).
func (m *Machine) NotiLevel() int { return m.notiLevel }

// Table exposes the node's neighbor table for inspection. Callers must
// not mutate it; use Snapshot for a safe copy.
func (m *Machine) Table() *table.Table { return m.tbl }

// Snapshot returns an immutable copy of the node's table.
func (m *Machine) Snapshot() table.Snapshot { return m.tbl.Snapshot() }

// Counters returns the node's message counters.
func (m *Machine) Counters() *msg.Counters { return &m.counters }

// AddReverseNeighbor registers w as a node known to store this node,
// without a message exchange. The simulation harness uses it when
// installing globally-constructed consistent networks, whose tables never
// exchanged RvNghNotiMsg; the leave protocol depends on reverse sets
// being complete.
func (m *Machine) AddReverseNeighbor(w table.Ref) {
	if w.ID != m.self.ID {
		m.addReverse(w)
	}
}

// DropReverseNeighbor forgets that w stores this node. The simulation
// harness's table optimizer uses it when it moves w's entries off this
// node without a message exchange.
func (m *Machine) DropReverseNeighbor(w id.ID) {
	if m.dropReverse(w) {
		m.reverseGen++
	}
}

// ReverseNeighbors returns the reverse-neighbor set ascending by ID: the
// machine's own slice, valid until the next call into the machine.
func (m *Machine) ReverseNeighbors() []table.Ref { return m.reverse }

// ReverseGen moves whenever the reverse-neighbor set changes, as
// table.Table.Version does for the table.
func (m *Machine) ReverseGen() uint64 { return m.reverseGen }

// JoinStateSize returns how many units of join-protocol bookkeeping the
// node currently holds (|Qr|+|Qn|+|Qj|+|Qsn|+|Qsr|). For S-nodes of the
// original network this stays 0 except for deferred-join Qj entries held
// by T-nodes — the paper's claim that the join burden rests on joiners.
func (m *Machine) JoinStateSize() int {
	return len(m.qr) + len(m.qn) + len(m.qj) + len(m.qsn) + len(m.qsr)
}

// send queues an envelope and counts it. Under an active span context
// the envelope gets its own child span (one hop, one span): the
// send-side event carries the new span with the active span as parent,
// and the receiver's recv-side event will carry the same span.
func (m *Machine) send(to table.Ref, pm msg.Message) {
	if to.IsZero() {
		panic(fmt.Sprintf("core: %v sending %v to null ref", m.self.ID, pm.Type()))
	}
	m.counters.CountSent(pm)
	env := msg.Envelope{From: m.self, To: to, Msg: pm}
	if m.tracer != nil {
		env.Trace = m.tracer.Child(m.cur)
	}
	m.out = append(m.out, env)
	if m.sink != nil {
		m.sink.Emit(obs.Event{Node: m.selfName, Kind: obs.KindSend, Peer: to.ID, Msg: pm.Type().String()}.Stamped(env.Trace, m.cur.Span))
	}
	m.trackExchange(env)
}

// setNeighbor fills entry (level,digit) and, per the protocol note in §4,
// informs the stored node that it gained a reverse neighbor — unless the
// fill is communicated in-band by an immediate reply (inBand=true).
func (m *Machine) setNeighbor(level, digit int, n table.Neighbor, inBand bool) {
	m.tbl.Set(level, digit, n)
	if n.ID != m.self.ID && !inBand {
		m.send(table.Ref{ID: n.ID, Addr: n.Addr}, m.boxes.RvNghNoti(level, digit, n.State))
	}
}

// StartJoin begins the join process (Figure 5) given a bootstrap node g0
// already in the network, and returns the first messages to transmit.
// It fails if the node is not in the copying status or g0 is invalid.
func (m *Machine) StartJoin(g0 table.Ref) ([]msg.Envelope, error) {
	if m.status != StatusCopying {
		return nil, fmt.Errorf("core: StartJoin on node %v in status %v", m.self.ID, m.status)
	}
	if g0.IsZero() || g0.ID == m.self.ID {
		return nil, fmt.Errorf("core: StartJoin with invalid bootstrap %v", g0.ID)
	}
	m.out = m.out[:0]
	m.AddGateways(g0)
	// The join is a traced operation root: the join_start event carries
	// the root span, and every message of the join wave descends from it.
	if m.tracer != nil {
		m.cur = m.tracer.Root()
	}
	m.joinCtx = m.cur
	if m.sink != nil {
		m.sink.Emit(obs.Event{Node: m.selfName, Kind: obs.KindJoinStart, Peer: g0.ID, N: m.restarts}.Stamped(m.cur, trace.SpanID{}))
		m.sink.Emit(obs.Event{Node: m.selfName, Kind: obs.KindStatus, Detail: m.status.String()}.Stamped(m.cur, trace.SpanID{}))
	}
	m.copyLevel = 0
	m.copyFrom = g0
	m.send(g0, msg.CpRst{Level: 0})
	out := m.take()
	m.cur = trace.Context{}
	return out, nil
}

// Deliver processes one incoming message and returns the messages to
// transmit in response. Hostile input never panics: envelopes failing
// semantic validation (internal/guard) are rejected and counted, unknown
// types are dropped and counted, and traffic from quarantined senders is
// dropped at ingress.
func (m *Machine) Deliver(env msg.Envelope) []msg.Envelope {
	m.out = m.out[:0]
	if m.scorer != nil && !env.From.IsZero() {
		before := m.scorer.Stats().Releases
		q := m.scorer.Quarantined(env.From.ID, m.now)
		if m.scorer.Stats().Releases > before && m.sink != nil {
			m.sink.Emit(obs.Event{Node: m.selfName, Kind: obs.KindQuarantineRelease, Peer: env.From.ID})
		}
		if q {
			m.gstats.IngressDropped++
			if m.sink != nil {
				m.sink.Emit(obs.Event{Node: m.selfName, Kind: obs.KindGuardDrop, Peer: env.From.ID, Detail: "quarantined"})
			}
			return nil
		}
	}
	if err := guard.Check(m.params, m.self.ID, env); err != nil {
		m.reject(env, err)
		return nil
	}
	if len(m.unheard) > 0 {
		delete(m.unheard, env.From.ID)
	}
	m.counters.CountReceived(env.Msg)
	// Install the inbound context for the duration of this delivery:
	// the recv-side event shares the sender's hop span, and any message
	// sent in response becomes a child of it. A tracerless machine
	// drops the context — it is an opaque hop in the trace.
	if m.tracer != nil {
		m.cur = env.Trace
	}
	if m.sink != nil {
		m.sink.Emit(obs.Event{Node: m.selfName, Kind: obs.KindRecv, Peer: env.From.ID, Msg: env.Msg.Type().String()}.Stamped(m.cur, trace.SpanID{}))
	}
	from := env.From
	m.clearExchange(from, env.Msg)
	switch pm := env.Msg.(type) {
	case msg.CpRst:
		m.onCpRst(from)
	case msg.CpRly:
		m.onCpRly(from, pm)
	case msg.JoinWait:
		m.onJoinWait(from)
	case msg.JoinWaitRly:
		m.onJoinWaitRly(from, pm)
	case msg.JoinNoti:
		m.onJoinNoti(from, pm)
	case msg.JoinNotiRly:
		m.onJoinNotiRly(from, pm)
	case msg.InSysNoti:
		m.onInSysNoti(from)
	case msg.SpeNoti:
		m.onSpeNoti(pm)
	case msg.SpeNotiRly:
		m.onSpeNotiRly(pm)
	case msg.RvNghNoti:
		m.onRvNghNoti(from, pm)
	case msg.RvNghNotiRly:
		m.onRvNghNotiRly(from, pm)
	case msg.Leave:
		m.onLeave(from, pm)
	case msg.LeaveRly:
		m.onLeaveRly(from)
	case msg.Find:
		m.onFind(pm)
	case msg.FindRly:
		m.onFindRly(pm)
	case *msg.Ping, msg.Pong:
		// Absorbed: runtimes with a failure detector intercept probes
		// before the machine; without one nothing answers or matches
		// them.
	case msg.FailedNoti:
		m.onFailedNoti(pm)
	case msg.SyncReq:
		m.onSyncReq(from, pm)
	case msg.SyncRly:
		m.onSyncRly(from, pm)
	case msg.SyncPush:
		m.onSyncPush(pm)
	default:
		// The sampling messages of a peer that still runs a sampler, when
		// this node runs none (node.Deliver hands them here): counted and
		// dropped, unanswered, with no charge to the sender's score. A
		// type that guard.Check passes but this switch misses lands here
		// too, as noise instead of a crash.
		m.gstats.UnknownDropped++
		m.counters.CountRejected(env.Msg.Type())
		if m.sink != nil {
			m.sink.Emit(obs.Event{Node: m.selfName, Kind: obs.KindGuardDrop, Peer: from.ID, Detail: fmt.Sprintf("unknown message type %T", env.Msg)})
		}
	}
	m.cur = trace.Context{}
	return m.take()
}

// reject counts and reports an envelope that failed semantic validation,
// charging the sender's misbehavior score when scoring is enabled.
func (m *Machine) reject(env msg.Envelope, err error) {
	var t msg.Type
	if env.Msg != nil {
		t = env.Msg.Type()
	}
	m.counters.CountRejected(t)
	m.gstats.Rejected++
	if m.sink != nil {
		m.sink.Emit(obs.Event{Node: m.selfName, Kind: obs.KindGuardReject, Peer: env.From.ID, Msg: t.String(), Detail: err.Error()})
	}
	if m.scorer != nil && !env.From.IsZero() && env.From.ID != m.self.ID {
		if m.scorer.Charge(env.From.ID, 1, m.now) {
			if m.sink != nil {
				m.sink.Emit(obs.Event{Node: m.selfName, Kind: obs.KindQuarantine, Peer: env.From.ID})
			}
		}
	}
}

// busy sheds a request that would exceed a resource budget. The protocol
// has no busy reply; dropping the request leaves the sender's timeout
// resend (or its next join restart) as the retry path.
func (m *Machine) busy(what string, from table.Ref) {
	m.gstats.BusyDeferred++
	if m.sink != nil {
		m.sink.Emit(obs.Event{Node: m.selfName, Kind: obs.KindBusy, Peer: from.ID, Detail: what})
	}
}

// addReverse records a reverse neighbor, holding the set to its budget.
// Beyond maxReverse the registration is shed: the peer still stores us in
// its table; we only lose one InSysNoti/leave-ack fan-out edge to it. A
// node that sorts after every member is appended (BuildDirect registers
// holders in ID order); any other is found or inserted by binary search.
func (m *Machine) addReverse(r table.Ref) {
	n := len(m.reverse)
	i, ok := n, false
	if n > 0 && m.reverse[n-1].ID.Compare(r.ID) >= 0 {
		i, ok = m.reverseIndex(r.ID)
	}
	switch {
	case ok && m.reverse[i] == r:
		return
	case ok:
		m.reverse[i] = r
	case n >= maxReverse:
		m.busy("reverse neighbors", r)
		return
	default:
		m.reverse = slices.Insert(m.reverse, i, r)
	}
	m.reverseGen++
}

// reverseIndex finds x in the reverse set: its position, or where it
// would be inserted.
func (m *Machine) reverseIndex(x id.ID) (int, bool) {
	return slices.BinarySearchFunc(m.reverse, x, func(r table.Ref, x id.ID) int { return r.ID.Compare(x) })
}

// dropReverse removes x from the reverse set and reports whether it was
// there.
func (m *Machine) dropReverse(x id.ID) bool {
	i, ok := m.reverseIndex(x)
	if ok {
		m.reverse = slices.Delete(m.reverse, i, i+1)
	}
	return ok
}

// take returns what the current entry point queued: the machine's own
// buffer, valid until the next call into the machine, which reuses it.
func (m *Machine) take() []msg.Envelope { return m.out }

// onCpRst serves a table-copy request. Any node can serve one immediately
// (Theorem 2's proof relies on receivers answering with no waiting).
func (m *Machine) onCpRst(from table.Ref) {
	m.send(from, msg.CpRly{Table: m.tbl.Snapshot()})
}

// onCpRly continues the copying loop of Figure 5. The reply carries the
// full table of the current guide g, so consecutive levels served by the
// same node are processed locally without extra requests.
func (m *Machine) onCpRly(from table.Ref, pm msg.CpRly) {
	if m.status != StatusCopying || from.ID != m.copyFrom.ID {
		// Not part of the copying phase: either a stale reply after the
		// copy phase moved on, or a table requested while chasing
		// departed carriers during leave repair.
		m.onRepairCpRly(from, pm.Table)
		return
	}
	snap := pm.Table
	i := m.copyLevel
	for {
		if i >= m.params.D {
			m.finishCopying(from)
			return
		}
		// Copy level-i neighbors of g into our table, in one walk of the
		// level that also picks out g's (i, self[i])-entry.
		var next table.Neighbor
		own := m.self.ID.Digit(i)
		snap.ForEachInLevel(i, func(j int, n table.Neighbor) {
			if j == own {
				next = n
			}
			if n.ID == m.self.ID || m.knownBad(n.ID) {
				return
			}
			if m.tbl.Get(i, j).IsZero() {
				m.setNeighbor(i, j, n, false)
			}
		})
		i++
		switch {
		case next.IsZero() || next.ID == m.self.ID:
			// No node shares the rightmost i digits: JoinWaitMsg to p.
			m.finishCopying(from)
			return
		case next.State == table.StateT:
			// g_{k+1} exists but is still a T-node: JoinWaitMsg to it.
			m.finishCopying(next.Ref())
			return
		case next.ID == snap.Owner():
			// The same node serves the next level; keep going locally.
			continue
		default:
			m.copyLevel = i
			m.copyFrom = next.Ref()
			m.send(next.Ref(), m.boxes.CpRst(i))
			return
		}
	}
}

// finishCopying installs the diagonal self-entries and sends the first
// JoinWaitMsg (tail of Figure 5).
func (m *Machine) finishCopying(target table.Ref) {
	for i := 0; i < m.params.D; i++ {
		m.tbl.Set(i, m.self.ID.Digit(i), table.Neighbor{ID: m.self.ID, Addr: m.self.Addr, State: table.StateT})
	}
	m.setStatus(StatusWaiting)
	m.qn[target.ID] = struct{}{}
	m.qr[target.ID] = struct{}{}
	m.send(target, msg.JoinWait{})
}

// onJoinWait implements Figure 6.
func (m *Machine) onJoinWait(from table.Ref) {
	if m.status != StatusInSystem {
		if _, ok := m.qj[from.ID]; !ok && len(m.qj) >= maxDeferredJoins {
			m.busy("deferred joins", from)
			return
		}
		m.qj[from.ID] = from // delay the reply until we are an S-node
		return
	}
	k := m.self.ID.CommonSuffixLen(from.ID)
	cur := m.tbl.Get(k, from.ID.Digit(k))
	if !cur.IsZero() && cur.ID != from.ID {
		m.send(from, msg.JoinWaitRly{R: msg.Negative, U: cur.Ref(), Table: m.tbl.Snapshot()})
		return
	}
	m.setNeighbor(k, from.ID.Digit(k), table.Neighbor{ID: from.ID, Addr: from.Addr, State: table.StateT}, true)
	m.send(from, msg.JoinWaitRly{R: msg.Positive, U: from, Table: m.tbl.Snapshot()})
}

// onJoinWaitRly implements Figure 7.
func (m *Machine) onJoinWaitRly(from table.Ref, pm msg.JoinWaitRly) {
	delete(m.qr, from.ID)
	k := m.self.ID.CommonSuffixLen(from.ID)
	// The replier is an S-node; upgrade our record of it if present.
	m.tbl.SetState(k, from.ID.Digit(k), from.ID, table.StateS)
	if pm.R == msg.Positive {
		if m.status == StatusWaiting {
			m.setStatus(StatusNotifying)
			m.notiLevel = k
		}
		m.addReverse(from)
	} else {
		u := pm.U
		m.qn[u.ID] = struct{}{}
		m.qr[u.ID] = struct{}{}
		m.send(u, msg.JoinWait{})
	}
	m.checkNghTable(pm.Table)
	m.maybeSwitch()
}

// checkNghTable implements the Check_Ngh_Table subroutine (Figure 8):
// harvest unknown nodes from a received table, and notify those sharing at
// least noti_level digits when in status notifying.
func (m *Machine) checkNghTable(snap table.Snapshot) {
	if snap.IsZero() {
		return
	}
	snap.ForEach(func(_, _ int, n table.Neighbor) {
		u := n
		if u.ID == m.self.ID || m.knownBad(u.ID) {
			return
		}
		k := m.self.ID.CommonSuffixLen(u.ID)
		if m.tbl.Get(k, u.ID.Digit(k)).IsZero() {
			m.setNeighbor(k, u.ID.Digit(k), table.Neighbor{ID: u.ID, Addr: u.Addr, State: u.State}, false)
		}
		if m.status == StatusNotifying && k >= m.notiLevel {
			if _, seen := m.qn[u.ID]; !seen {
				m.qn[u.ID] = struct{}{}
				m.qr[u.ID] = struct{}{}
				m.send(u.Ref(), m.makeJoinNoti(k))
			}
		}
	})
}

// makeJoinNoti builds the JoinNotiMsg for a receiver sharing k digits,
// applying the §6.2 reductions when enabled.
func (m *Machine) makeJoinNoti(k int) msg.JoinNoti {
	var snap table.Snapshot
	if m.opts.ReduceLevels {
		snap = m.tbl.SnapshotLevels(m.notiLevel, k)
	} else {
		snap = m.tbl.Snapshot()
	}
	out := msg.JoinNoti{Table: snap, NotiLevel: m.notiLevel}
	if m.opts.BitVector {
		out.FillVector = m.tbl.FillVector()
	}
	return out
}

// onJoinNoti implements Figure 9.
func (m *Machine) onJoinNoti(from table.Ref, pm msg.JoinNoti) {
	k := m.self.ID.CommonSuffixLen(from.ID)
	f := false
	if m.tbl.Get(k, from.ID.Digit(k)).IsZero() {
		m.setNeighbor(k, from.ID.Digit(k), table.Neighbor{ID: from.ID, Addr: from.Addr, State: table.StateT}, true)
	}
	if pm.Table.Get(k, m.self.ID.Digit(k)).ID != m.self.ID && m.status == StatusInSystem {
		f = true
	}
	reply := msg.JoinNotiRly{Table: m.replySnapshot(pm), F: f}
	if m.tbl.Get(k, from.ID.Digit(k)).ID == from.ID {
		reply.R = msg.Positive
	} else {
		reply.R = msg.Negative
	}
	m.send(from, reply)
	m.checkNghTable(pm.Table)
}

// replySnapshot returns this node's table for a JoinNotiRly, filtered by
// the §6.2 bit vector when the sender attached one.
func (m *Machine) replySnapshot(pm msg.JoinNoti) table.Snapshot {
	snap := m.tbl.Snapshot()
	if pm.FillVector.Len() == 0 {
		return snap
	}
	return snap.Filtered(pm.FillVector, pm.NotiLevel)
}

// onJoinNotiRly implements Figure 10.
func (m *Machine) onJoinNotiRly(from table.Ref, pm msg.JoinNotiRly) {
	delete(m.qr, from.ID)
	k := m.self.ID.CommonSuffixLen(from.ID)
	if pm.R == msg.Positive {
		m.addReverse(from)
	}
	if pm.F && k > m.notiLevel {
		if _, seen := m.qsn[from.ID]; !seen {
			target := m.tbl.Get(k, from.ID.Digit(k))
			if !target.IsZero() && target.ID != from.ID {
				if len(m.qsn) >= maxSpeNoti {
					m.busy("special notifications", from)
				} else {
					m.qsn[from.ID] = struct{}{}
					m.qsr[from.ID] = struct{}{}
					m.send(target.Ref(), msg.SpeNoti{X: m.self, Y: from})
				}
			}
		}
	}
	m.checkNghTable(pm.Table)
	m.maybeSwitch()
}

// onSpeNoti implements Figure 11: store y or forward along the neighbor
// chain; reply to the original sender x when y is stored.
func (m *Machine) onSpeNoti(pm msg.SpeNoti) {
	y := pm.Y
	k := m.self.ID.CommonSuffixLen(y.ID)
	if m.tbl.Get(k, y.ID.Digit(k)).IsZero() {
		m.setNeighbor(k, y.ID.Digit(k), table.Neighbor{ID: y.ID, Addr: y.Addr, State: table.StateS}, false)
	}
	if cur := m.tbl.Get(k, y.ID.Digit(k)); cur.ID != y.ID {
		m.send(cur.Ref(), msg.SpeNoti{X: pm.X, Y: pm.Y})
	} else {
		m.send(pm.X, msg.SpeNotiRly{X: pm.X, Y: pm.Y})
	}
}

// onSpeNotiRly implements Figure 12.
func (m *Machine) onSpeNotiRly(pm msg.SpeNotiRly) {
	delete(m.qsr, pm.Y.ID)
	m.maybeSwitch()
}

// maybeSwitch performs the Switch_To_S_Node transition (Figure 13) once
// all outstanding replies have arrived.
func (m *Machine) maybeSwitch() {
	if m.status != StatusNotifying || len(m.qr) != 0 || len(m.qsr) != 0 {
		return
	}
	m.setStatus(StatusInSystem)
	for i := 0; i < m.params.D; i++ {
		m.tbl.SetState(i, m.self.ID.Digit(i), m.self.ID, table.StateS)
	}
	// Deterministic iteration (sorted by ID): the order in which deferred
	// waiters are answered decides which one is stored when two compete
	// for the same entry, and simulations must replay identically.
	for _, v := range m.reverse {
		m.send(v, msg.InSysNoti{})
	}
	for _, u := range sortedRefs(m.qj) {
		k := m.self.ID.CommonSuffixLen(u.ID)
		cur := m.tbl.Get(k, u.ID.Digit(k))
		switch {
		case cur.IsZero():
			m.setNeighbor(k, u.ID.Digit(k), table.Neighbor{ID: u.ID, Addr: u.Addr, State: table.StateT}, true)
			m.send(u, msg.JoinWaitRly{R: msg.Positive, U: u, Table: m.tbl.Snapshot()})
		case cur.ID == u.ID:
			m.send(u, msg.JoinWaitRly{R: msg.Positive, U: u, Table: m.tbl.Snapshot()})
		default:
			m.send(u, msg.JoinWaitRly{R: msg.Negative, U: cur.Ref(), Table: m.tbl.Snapshot()})
		}
	}
	m.qj = make(map[id.ID]table.Ref)
}

// neighborhood returns every node of the reverse set and of the table
// but self, one ref per node ascending by ID; where both hold a node,
// the table's ref wins.
func (m *Machine) neighborhood() []table.Ref {
	out := slices.Clone(m.reverse)
	m.tbl.ForEach(func(_, _ int, n table.Neighbor) {
		if n.ID != m.self.ID {
			out = append(out, n.Ref())
		}
	})
	return lastPerID(out)
}

// lastPerID sorts refs by ID in place, keeping the order of refs to one
// node, and keeps each node's last ref.
func lastPerID(refs []table.Ref) []table.Ref {
	slices.SortStableFunc(refs, func(a, b table.Ref) int { return a.ID.Compare(b.ID) })
	uniq := refs[:0]
	for i, r := range refs {
		if i+1 == len(refs) || refs[i+1].ID != r.ID {
			uniq = append(uniq, r)
		}
	}
	return uniq
}

// sortedRefs returns the map's refs ordered by ID for deterministic
// message emission.
func sortedRefs(m map[id.ID]table.Ref) []table.Ref {
	out := make([]table.Ref, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b table.Ref) int { return a.ID.Compare(b.ID) })
	return out
}

// onInSysNoti implements Figure 14.
func (m *Machine) onInSysNoti(from table.Ref) {
	k := m.self.ID.CommonSuffixLen(from.ID)
	m.tbl.SetState(k, from.ID.Digit(k), from.ID, table.StateS)
}

// onRvNghNoti records a new reverse neighbor and corrects its state view
// if it disagrees with our actual status (§4's RvNghNotiMsg note). A
// departing node instead answers with a LeaveMsg: the sender just stored
// a node that is on its way out (possible when concurrent leaves pick
// each other as repair replacements) and must repair again.
func (m *Machine) onRvNghNoti(from table.Ref, pm msg.RvNghNoti) {
	if m.status == StatusLeaving || m.status == StatusLeft {
		m.send(from, msg.Leave{Table: m.tbl.Snapshot()})
		return
	}
	if _, gone := m.departed[from.ID]; gone {
		// A departing node installed us while repairing its own table;
		// ignore it — its table is being abandoned and registering it
		// would leave our own future departure waiting for its ack.
		return
	}
	m.addReverse(from)
	switch {
	case pm.State == table.StateT && m.status == StatusInSystem:
		m.send(from, m.boxes.RvNghNotiRly(pm.Level, pm.Digit, table.StateS))
	case pm.State == table.StateS && m.status != StatusInSystem:
		m.send(from, m.boxes.RvNghNotiRly(pm.Level, pm.Digit, table.StateT))
	}
}

// onRvNghNotiRly applies a state correction to the referenced entry.
func (m *Machine) onRvNghNotiRly(from table.Ref, pm msg.RvNghNotiRly) {
	m.tbl.SetState(pm.Level, pm.Digit, from.ID, pm.State)
}
