// Clock-driven machine behavior for the failure-detection extension:
// request/reply timeouts with exponential resend and join restart, crash
// declarations with FailedNoti gossip, and self-driven repair jobs.
//
// The paper's protocol is purely message-driven; every request
// eventually gets a reply because nodes never fail. Once crashes are
// admitted, a copying or waiting node whose counterpart died would wedge
// forever. Machine.Tick(now) is the clock hook closing that gap: the
// runtimes (virtual clock in overlay, a timer goroutine in tcptransport)
// call it periodically, and the machine resends overdue requests,
// restarts a stuck join through a different gateway, reissues blocked
// repair queries, and re-announces itself after losing its bridge node.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/obs"
	"hypercube/internal/table"
	"hypercube/internal/trace"
)

// entryName renders a table coordinate for event details.
func entryName(level, digit int) string { return fmt.Sprintf("(%d,%d)", level, digit) }

// Timeouts configures the machine's clock-driven retries. The zero value
// disables request/reply timeouts (Enabled reports false); repair-job
// pacing falls back to defaults either way.
type Timeouts struct {
	// RetryAfter is the first resend timeout for an unanswered
	// request/reply exchange; it doubles per resend. 0 disables
	// exchange timeouts entirely.
	RetryAfter time.Duration
	// MaxAttempts is the total transmissions per exchange before the
	// machine gives up on the peer (restarting the join, or abandoning
	// the wait). Default 4.
	MaxAttempts int
	// RepairAfter paces repair-query reissues; a Find unanswered or
	// blocked for this long is retried through the next helper.
	// Default: RetryAfter, or 1s when exchange timeouts are disabled.
	RepairAfter time.Duration
}

// maxRepairAttempts caps repair queries per entry before the suffix is
// concluded dead.
const maxRepairAttempts = 8

// Enabled reports whether request/reply exchange timeouts are active.
func (t Timeouts) Enabled() bool { return t.RetryAfter > 0 }

func (t Timeouts) maxAttempts() int {
	if t.MaxAttempts <= 0 {
		return 4
	}
	return t.MaxAttempts
}

func (t Timeouts) repairAfter() time.Duration {
	if t.RepairAfter > 0 {
		return t.RepairAfter
	}
	if t.RetryAfter > 0 {
		return t.RetryAfter
	}
	return time.Second
}

// xchgKind identifies which request/reply pair an exchange tracks.
type xchgKind uint8

const (
	xCopy  xchgKind = iota + 1 // CpRst -> CpRly (copying phase only)
	xWait                      // JoinWait -> JoinWaitRly
	xNoti                      // JoinNoti -> JoinNotiRly
	xSpe                       // SpeNoti -> SpeNotiRly (keyed by Y)
	xLeave                     // Leave -> LeaveRly
)

type xchgKey struct {
	kind xchgKind
	peer id.ID
}

// exchange is one outstanding request awaiting its reply. base is the
// backoff seed: the fixed Timeouts.RetryAfter, or the peer's measured
// RTO when an estimator is attached (it doubles per resend either
// way), counted from the send, not from the last Tick. sentAt stamps
// the initial transmission so an un-resent reply yields an RTT sample (Karn's rule: a resent exchange is ambiguous —
// the reply may answer any transmission — so it is never sampled).
type exchange struct {
	env      msg.Envelope
	attempts int
	base     time.Duration
	due      time.Duration
	sentAt   time.Duration
}

// trackExchange registers a just-sent request for timeout-driven resend.
// Only the request/reply pairs whose loss wedges the protocol are
// tracked; replies and one-way notifications are not. The envelope is
// stored whole, so a resend reuses the original hop span.
func (m *Machine) trackExchange(env msg.Envelope) {
	if !m.opts.Timeouts.Enabled() {
		return
	}
	to, pm := env.To, env.Msg
	var key xchgKey
	switch x := pm.(type) {
	case msg.CpRst:
		// Only the copying-phase cursor is tracked; a leave chase's table
		// requests (repairViaDonor) are awaited by its repair record.
		if m.status != StatusCopying || to.ID != m.copyFrom.ID {
			return
		}
		key = xchgKey{xCopy, to.ID}
	case msg.JoinWait:
		key = xchgKey{xWait, to.ID}
	case msg.JoinNoti:
		key = xchgKey{xNoti, to.ID}
	case msg.SpeNoti:
		if x.X.ID != m.self.ID {
			return // forwarding someone else's notification
		}
		key = xchgKey{xSpe, x.Y.ID}
	case msg.Leave:
		if m.status != StatusLeaving {
			return
		}
		if _, waiting := m.leaveAcks[to.ID]; !waiting {
			return
		}
		key = xchgKey{xLeave, to.ID}
	default:
		return
	}
	if m.exchanges == nil {
		m.exchanges = make(map[xchgKey]*exchange)
	}
	base := m.opts.Timeouts.RetryAfter
	if m.est != nil {
		if rto, ok := m.est.RTO(to.ID); ok {
			base = rto
		}
	}
	m.exchanges[key] = &exchange{
		env:      env,
		attempts: 1,
		base:     base,
		due:      m.now + base,
		sentAt:   m.now,
	}
}

// clearExchange settles the exchange answered by an incoming reply.
func (m *Machine) clearExchange(from table.Ref, pm msg.Message) {
	if len(m.exchanges) == 0 {
		return
	}
	var key xchgKey
	switch x := pm.(type) {
	case msg.CpRly:
		key = xchgKey{xCopy, from.ID}
	case msg.JoinWaitRly:
		key = xchgKey{xWait, from.ID}
	case msg.JoinNotiRly:
		key = xchgKey{xNoti, from.ID}
	case msg.SpeNotiRly:
		key = xchgKey{xSpe, x.Y.ID}
	case msg.LeaveRly:
		key = xchgKey{xLeave, from.ID}
	default:
		return
	}
	ex, ok := m.exchanges[key]
	if !ok {
		return
	}
	delete(m.exchanges, key)
	// Karn's rule: only a never-resent exchange yields an unambiguous
	// round-trip sample. The envelope's To (not the key's peer — xSpe
	// keys by subject Y, not transport target) is who we measured.
	if m.est != nil && ex.attempts == 1 {
		m.est.Observe(ex.env.To.ID, m.now-ex.sentAt)
	}
}

// Tick advances the machine's clock: overdue requests are resent with
// exponential backoff (and abandoned past the attempt cap), due repair
// queries are issued or reissued, and a node orphaned by its bridge
// node's crash re-announces itself. Returns the messages to transmit.
// Runtimes call it periodically; a machine without Timeouts and without
// declared failures does nothing.
func (m *Machine) Tick(now time.Duration) []msg.Envelope {
	m.out = m.out[:0]
	m.now = now
	if m.opts.Timeouts.Enabled() {
		m.tickExchanges(now)
	}
	m.kickRepairs(now)
	if m.needsRejoin && m.status == StatusInSystem {
		if g := m.pickGateway(id.ID{}); !g.IsZero() {
			m.needsRejoin = false
			m.restarts++
			m.startRejoin(g)
		}
	}
	return m.take()
}

// tickExchanges resends or abandons overdue request/reply exchanges.
func (m *Machine) tickExchanges(now time.Duration) {
	if len(m.exchanges) == 0 {
		return
	}
	keys := m.keys[:0]
	for k := range m.exchanges {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b xchgKey) int {
		if c := cmp.Compare(a.kind, b.kind); c != 0 {
			return c
		}
		return a.peer.Compare(b.peer)
	})
	m.keys = keys
	for _, k := range keys {
		ex, ok := m.exchanges[k]
		if !ok || ex.due > now {
			continue // resolved by an earlier give-up this tick, or not due
		}
		if ex.attempts >= m.opts.Timeouts.maxAttempts() {
			if m.sink != nil {
				m.sink.Emit(obs.Event{Node: m.selfName, Kind: obs.KindGiveUp, Peer: k.peer, Msg: ex.env.Msg.Type().String(), N: ex.attempts})
			}
			m.giveUp(k)
			continue
		}
		ex.attempts++
		ex.due = now + ex.base<<(ex.attempts-1)
		// Resend directly: routing through send() would re-register the
		// exchange and reset the attempt count.
		m.counters.CountSent(ex.env.Msg)
		m.out = append(m.out, ex.env)
		if m.sink != nil {
			m.sink.Emit(obs.Event{Node: m.selfName, Kind: obs.KindResend, Peer: k.peer, Msg: ex.env.Msg.Type().String(), N: ex.attempts}.Stamped(ex.env.Trace, trace.SpanID{}))
		}
	}
}

// giveUp abandons an exchange whose peer stopped replying: the join
// restarts through a different gateway, or the stalled wait is dropped
// so the state machine can move on.
func (m *Machine) giveUp(k xchgKey) {
	delete(m.exchanges, k)
	switch k.kind {
	case xCopy:
		if m.status == StatusCopying {
			m.restartJoin(k.peer)
		}
	case xWait:
		if m.status == StatusWaiting {
			m.restartJoin(k.peer)
			return
		}
		// A notifier sends JoinWaitMsg on a negative reply; a silent
		// target of one is dropped like a silent notified node, or the
		// notifier would wait on it with nothing left to resend.
		fallthrough
	case xNoti:
		delete(m.qr, k.peer)
		m.maybeSwitch()
	case xSpe:
		delete(m.qsr, k.peer)
		m.maybeSwitch()
	case xLeave:
		delete(m.leaveAcks, k.peer)
		if m.status == StatusLeaving && len(m.leaveAcks) == 0 {
			m.setStatus(StatusLeft)
		}
	}
}

// AddGateways registers fallback bootstrap nodes for join restarts. The
// original bootstrap is registered automatically by StartJoin.
func (m *Machine) AddGateways(refs ...table.Ref) {
	for _, r := range refs {
		if r.IsZero() || r.ID == m.self.ID {
			continue
		}
		if m.gateways == nil {
			m.gateways = make(map[id.ID]table.Ref)
		}
		m.gateways[r.ID] = r
	}
}

// restartJoin re-runs the join from the top through a different gateway
// after the current attach or wait target stopped replying. Harvested
// table entries survive (re-copying only fills empty entries), so a
// restart converges faster than the first attempt.
func (m *Machine) restartJoin(avoid id.ID) {
	m.restarts++
	g := m.pickGateway(avoid)
	if g.IsZero() {
		// Nobody else known yet: retry the same target rather than wedge
		// (it may be suffering one-way loss, not a crash).
		if r, ok := m.gateways[avoid]; ok {
			g = r
		} else {
			return
		}
	}
	m.startRejoin(g)
}

// startRejoin resets the join bookkeeping and begins copying from g.
// Unlike the public StartRejoin it preserves m.out, so it can run inside
// Tick and give-up handling. Each restart is its own traced operation
// root — a restarted join is a new wave, not a continuation of the
// abandoned one.
func (m *Machine) startRejoin(g table.Ref) {
	m.exchanges = nil
	prev := m.cur
	if m.tracer != nil {
		m.cur = m.tracer.Root()
	}
	m.joinCtx = m.cur
	m.setStatus(StatusCopying)
	if m.sink != nil {
		m.sink.Emit(obs.Event{Node: m.selfName, Kind: obs.KindJoinStart, Peer: g.ID, N: m.restarts}.Stamped(m.cur, trace.SpanID{}))
	}
	m.qn = make(map[id.ID]struct{})
	m.qr = make(map[id.ID]struct{})
	m.qsn = make(map[id.ID]struct{})
	m.qsr = make(map[id.ID]struct{})
	m.copyLevel = 0
	m.copyFrom = g
	m.send(g, msg.CpRst{Level: 0})
	m.cur = prev
}

// pickGateway chooses a restart gateway from the registered gateways and
// the table's live entries, rotated by the restart count so consecutive
// restarts try different nodes. avoid (the unresponsive peer) is
// excluded unless it is the only candidate. Crashed, departed, and
// guard-quarantined nodes never qualify, and neither does the joiner
// itself. When every static candidate is gone the sampling layer (if
// wired) supplies fresh peers — a dead or hostile bootstrap set can no
// longer starve the restart path.
func (m *Machine) pickGateway(avoid id.ID) table.Ref {
	cands := make(map[id.ID]table.Ref, len(m.gateways))
	for x, r := range m.gateways {
		cands[x] = r
	}
	m.tbl.ForEach(func(_, _ int, n table.Neighbor) {
		if n.ID != m.self.ID {
			cands[n.ID] = n.Ref()
		}
	})
	m.pruneGatewayCands(cands)
	if len(cands) == 0 && m.sampled != nil {
		for _, r := range m.sampled(maxSampledGateways) {
			cands[r.ID] = r
		}
		m.pruneGatewayCands(cands)
	}
	if len(cands) > 1 {
		delete(cands, avoid)
	}
	list := sortedRefs(cands)
	if len(list) == 0 {
		return table.Ref{}
	}
	return list[m.restarts%len(list)]
}

// maxSampledGateways bounds how many sampled peers a single restart
// considers.
const maxSampledGateways = 8

// pruneGatewayCands removes every candidate that must not serve as a
// gateway: the node itself, crashed and departed peers, and peers the
// guard scorer currently quarantines.
func (m *Machine) pruneGatewayCands(cands map[id.ID]table.Ref) {
	delete(cands, m.self.ID)
	for x := range m.failed {
		delete(cands, x)
	}
	for x := range m.departed {
		delete(cands, x)
	}
	if m.scorer != nil {
		for x := range cands {
			if m.scorer.Quarantined(x, m.now) {
				delete(cands, x)
			}
		}
	}
}

// KnowsFailed reports whether the machine has recorded x as crashed.
func (m *Machine) KnowsFailed(x id.ID) bool {
	_, ok := m.failed[x]
	return ok
}

// knownBad reports whether x must not be (re-)installed in the table:
// it crashed, announced departure, was dropped unreachable and not
// heard from since, or is quarantined.
func (m *Machine) knownBad(x id.ID) bool {
	_, unheard := m.unheard[x]
	return unheard || m.gone(x) || m.quarantined(x)
}

// gone reports whether x crashed or announced departure.
func (m *Machine) gone(x id.ID) bool {
	if _, f := m.failed[x]; f {
		return true
	}
	_, d := m.departed[x]
	return d
}

// quarantined reports whether the guard scorer quarantines x now. A
// quarantined peer is bad for the quarantine's duration: it is not
// installed from harvested tables, not accepted from Find replies, and
// not gossiped about in FailedNoti fan-outs.
func (m *Machine) quarantined(x id.ID) bool {
	return m.scorer != nil && m.scorer.Quarantined(x, m.now)
}

// DeclareFailed records that the failure detector declared gone crashed,
// and returns the resulting traffic: FailedNoti gossip to its neighbours,
// reverse-neighbor notices from local repairs, and (from later Ticks)
// repair queries for entries local repair could not fill.
func (m *Machine) DeclareFailed(gone table.Ref) []msg.Envelope {
	m.out = m.out[:0]
	m.noteFailed(gone, true)
	return m.take()
}

// onFailedNoti processes gossip about a crash declared elsewhere.
func (m *Machine) onFailedNoti(pm msg.FailedNoti) {
	m.noteFailed(pm.Failed, false)
}

// DropUnreachable removes every table entry holding gone — a neighbor
// the failure detector was never once able to reach — and repairs the
// holes like a crash would. Unlike DeclareFailed it gossips no
// FailedNoti: with zero evidence the node was ever alive from here, the
// silence may equally be a broken path or our own side of a partition,
// so the drop stays local. It does keep a local tombstone until the
// node is heard from (Deliver): without it, a crashed node that tables
// still hold is handed back by every anti-entropy round and dropped
// again, for good.
func (m *Machine) DropUnreachable(gone table.Ref) []msg.Envelope {
	if gone.IsZero() || gone.ID == m.self.ID || m.status == StatusLeft {
		return nil
	}
	m.out = m.out[:0]
	if m.unheard == nil {
		m.unheard = make(map[id.ID]struct{})
	}
	m.unheard[gone.ID] = struct{}{}
	m.dropFailed(gone.ID)
	return m.take()
}

// noteFailed is the shared crash-declaration path: dedupe, gossip from
// the victim's neighbourhood, orphan check, local table repair, and
// repair-job seeding. declared is true for our own detector's verdict,
// false for gossip. Appends to m.out; callers manage the reset.
func (m *Machine) noteFailed(gone table.Ref, declared bool) {
	if gone.IsZero() || gone.ID == m.self.ID {
		return
	}
	if m.failed == nil {
		m.failed = make(map[id.ID]struct{})
	}
	if _, dup := m.failed[gone.ID]; dup {
		return
	}
	m.failed[gone.ID] = struct{}{}
	if m.status == StatusLeft {
		return
	}
	if m.sink != nil {
		m.sink.Emit(obs.Event{Node: m.selfName, Kind: obs.KindFailureNoted, Peer: gone.ID})
	}

	held := false
	m.tbl.ForEach(func(_, _ int, n table.Neighbor) { held = held || n.ID == gone.ID })

	// Gossip once per failure, from the victim's neighbourhood only: the
	// declarer always (even if it no longer holds the victim), a receiver
	// on first hearing only if the victim was in its table or stored it
	// (reverse set) — the nodes whose detectors were probing it. Each
	// tells its own table ∪ reverse set: O(neighbours × degree) messages,
	// not O(edges). A neighbour the gossip misses declares it itself.
	// The notice is boxed once and shared by every recipient.
	if _, stored := m.reverseIndex(gone.ID); declared || held || stored {
		var noti msg.Message = msg.FailedNoti{Failed: gone}
		for _, ref := range m.neighborhood() {
			if ref.ID != m.self.ID && !m.knownBad(ref.ID) {
				m.send(ref, noti)
			}
		}
	}

	// Orphan check before the entries are dropped: if our deepest-known
	// neighbor crashed it may have been the only node storing us, making
	// us unfindable; re-announce via a rejoin at the next Tick.
	if held && m.status == StatusInSystem && m.deepestNeighborIs(gone.ID) {
		m.needsRejoin = true
	}

	// Drop the dead node everywhere; dropFailed repairs locally and opens
	// repair jobs for the rest (driven by kickRepairs).
	m.dropFailed(gone.ID)

	// Any exchange waiting on the dead peer is settled immediately.
	if len(m.exchanges) > 0 {
		for _, kind := range []xchgKind{xCopy, xWait, xNoti, xSpe, xLeave} {
			k := xchgKey{kind, gone.ID}
			if _, ok := m.exchanges[k]; ok {
				m.giveUp(k)
			}
		}
	}
}

// dropFailed removes a crashed or unreachable node from every entry and
// from the reverse set, and repairs or queues each entry it held.
func (m *Machine) dropFailed(gone id.ID) {
	m.dropReverse(gone)
	m.reverseGen++
	delete(m.gateways, gone)
	var held [][2]int
	m.tbl.ForEach(func(level, digit int, n table.Neighbor) {
		if n.ID == gone {
			held = append(held, [2]int{level, digit})
		}
	})
	for _, e := range held {
		m.repairOrQueue(e, gone)
	}
}

// repairOrQueue refills entry e, just emptied of gone, from the local
// table, or else opens its repair record with a job routing around gone
// (a job already open for e is kept).
func (m *Machine) repairOrQueue(e [2]int, gone id.ID) {
	if m.repairFromTables(e[0], e[1], gone, table.Snapshot{}) {
		return
	}
	r := m.openRepair(e)
	if !r.avoid.IsNull() {
		return
	}
	r.avoid, r.due = gone, m.now
	if m.sink != nil {
		m.sink.Emit(obs.Event{Node: m.selfName, Kind: obs.KindRepairStart, Peer: gone, Detail: entryName(e[0], e[1])})
	}
}

// repairsPending returns the entries with a repair job (a leave chase
// alone has none), sorted, in a buffer the next call reuses.
func (m *Machine) repairsPending() [][2]int {
	out := m.pending[:0]
	for e, r := range m.repairs {
		if !r.avoid.IsNull() {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	m.pending = out
	return out
}

// retireRepair closes entry e's repair record with the given outcome.
func (m *Machine) retireRepair(e [2]int, outcome string) {
	delete(m.repairs, e)
	if m.sink != nil {
		m.sink.Emit(obs.Event{Node: m.selfName, Kind: obs.KindRepairDone, Detail: entryName(e[0], e[1]) + " " + outcome})
	}
}

// kickRepairs drives the repair jobs once from Tick. It first settles
// what is known — an entry refilled (by a query reply, a rejoin
// notification, a harvested table), or a query answered — and then
// issues the queries that are due. Appends to m.out.
func (m *Machine) kickRepairs(now time.Duration) {
	if len(m.repairs) == 0 {
		return
	}
	leaving := m.status == StatusLeaving || m.status == StatusLeft
	for _, e := range m.repairsPending() {
		r := m.repairs[e]
		switch {
		case leaving:
			m.retireRepair(e, "abandoned")
		case !m.tbl.Get(e[0], e[1]).IsZero():
			m.retireRepair(e, "filled")
		case !r.active || r.awaiting || r.outstanding > 0:
			// Not asked yet, or the reply is still in flight (or lost);
			// the loop below decides.
		case r.blocked:
			r.active, r.blocked = false, false // reissue below
		default:
			m.retireRepair(e, "empty")
		}
	}
	for _, e := range m.repairsPending() {
		r := m.repairs[e]
		if r.active {
			if now < r.due {
				continue // still waiting for the reply
			}
			r.active, r.awaiting = false, false // reply lost or blocked in flight; reissue
		}
		if r.attempts >= maxRepairAttempts {
			// Every helper rotation came back blocked or lost: conclude
			// the suffix died with the crashed node.
			m.retireRepair(e, "abandoned")
			continue
		}
		helper := m.pickRepairHelper(r.avoid, r.attempts)
		if helper.IsZero() {
			continue // isolated for now; retry after tables change
		}
		m.queryRepair(e, r, helper)
	}
}

// queryRepair sends entry e's next Find query through helper, routing
// around the job's crashed node.
func (m *Machine) queryRepair(e [2]int, r *repair, helper table.Ref) {
	r.attempts++
	r.active = true
	r.due = m.now + m.opts.Timeouts.repairAfter()<<min(r.attempts-1, 4)
	r.awaiting = true
	m.send(helper, msg.Find{Want: m.tbl.DesiredSuffix(e[0], e[1]), Origin: m.self, Avoid: r.avoid})
}

// pickRepairHelper rotates deterministically through the live table
// entries to start a Find query from.
func (m *Machine) pickRepairHelper(avoid id.ID, attempt int) table.Ref {
	cands := make(map[id.ID]table.Ref)
	m.tbl.ForEach(func(_, _ int, n table.Neighbor) {
		if n.ID == m.self.ID || n.ID == avoid || m.knownBad(n.ID) {
			return
		}
		cands[n.ID] = n.Ref()
	})
	list := sortedRefs(cands)
	if len(list) == 0 {
		return table.Ref{}
	}
	return list[attempt%len(list)]
}
