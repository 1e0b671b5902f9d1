// Package obs is the protocol observability layer: typed events traced
// out of every runtime, and a dependency-free metrics registry exported
// in Prometheus text format.
//
// The paper's entire evaluation is cost accounting — join message counts
// against the Theorem 3–5 bounds, the Figure 15 CDFs — yet aggregate
// counters cannot answer "why did this join take 4 seconds" or "which
// phase stalled during the partition soak". Events answer those
// questions: each protocol-significant step (a status transition, a
// message send, a probe miss, an anti-entropy round) is emitted as one
// small typed Event through a Sink. The overlay simulator stamps events
// with the virtual clock and the TCP runtime with wall time since start,
// so both produce the same trace schema and the same analysis tooling
// (Analyzer, printed by `trace report`) works on either.
//
// Tracing is off by default and must cost nearly nothing when off: the
// emitting code holds a Sink field that is nil by default and checks it
// before constructing an Event, so the hot path pays exactly one
// nil-check. Nop is the explicit spelling of that default for APIs that
// want a non-nil Sink value.
//
// Sinks used with the TCP runtime must be safe for concurrent use (the
// machine, the liveness loop, and the delivery layer emit from different
// goroutines); every sink in this package is. The overlay simulator is
// single-threaded and has no such requirement.
package obs

import (
	"encoding/json"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/trace"
)

// Kind names the protocol step an Event records. Kinds are stable
// strings (they appear verbatim in JSONL traces); new kinds may be added
// but existing ones must not be renamed.
type Kind string

const (
	// KindStatus is a protocol-status transition; Detail carries the new
	// status name (copying, waiting, notifying, in_system, leaving, left).
	KindStatus Kind = "status"
	// KindJoinStart is a StartJoin or a timeout-driven join restart; Peer
	// is the gateway, N the restart count (0 for the first attempt).
	KindJoinStart Kind = "join_start"
	// KindSend / KindRecv are message transmissions and deliveries; Msg
	// carries the message-type name, Peer the other endpoint.
	KindSend Kind = "send"
	KindRecv Kind = "recv"
	// KindRetry is a delivery-layer retry of a failed transmission
	// attempt; KindDrop a dead-lettered message. Msg carries the type.
	KindRetry Kind = "retry"
	KindDrop  Kind = "drop"
	// KindResend is a core request/reply exchange resent after a timeout
	// (Msg, Peer, N = attempt); KindGiveUp an exchange abandoned after
	// exhausting its attempts.
	KindResend Kind = "resend"
	KindGiveUp Kind = "give_up"
	// Failure-detector events. Seq names a probe in its KindProbe,
	// KindProbeAck and KindProbeMiss; Detail is "indirect" on a relayed
	// probe and "late" on an ack that came after the probe's miss. The
	// ack of a direct probe carries the round trip the prober measured
	// in RTT; a relayed probe's never does.
	KindProbe       Kind = "probe"
	KindProbeAck    Kind = "probe_ack"
	KindProbeMiss   Kind = "probe_miss"
	KindSuspect     Kind = "suspect"
	KindRecovered   Kind = "recovered"
	KindDeclared    Kind = "declared"
	KindUnreachable Kind = "unreachable"
	// KindPartitionEnter / KindPartitionExit are the prober's partition-
	// mode transitions; N carries the distressed-target count.
	KindPartitionEnter Kind = "partition_enter"
	KindPartitionExit  Kind = "partition_exit"
	// KindFailureNoted is the machine recording a crash (its own
	// detector's declaration or FailedNoti gossip); Peer is the dead node.
	KindFailureNoted Kind = "failure_noted"
	// KindSyncRound is one anti-entropy round initiated with Peer;
	// KindAuditPurge a table audit that purged N entries.
	KindSyncRound  Kind = "sync_round"
	KindAuditPurge Kind = "audit_purge"
	// KindRepairStart / KindRepairDone bracket one crash-emptied table
	// entry's autonomous repair; Detail carries "(level,digit)" plus, on
	// done, the outcome (filled, empty, abandoned).
	KindRepairStart Kind = "repair_start"
	KindRepairDone  Kind = "repair_done"
	// Guard-layer events (hostile-input hardening). KindGuardReject is a
	// message that failed semantic validation (Msg the type, Peer the
	// sender, Detail the reason); KindGuardDrop a message dropped without
	// validation — an unknown type, a quarantined sender's traffic, or a
	// transport frame the codec could not decode (Detail says which).
	KindGuardReject Kind = "guard_reject"
	KindGuardDrop   Kind = "guard_drop"
	// KindQuarantine / KindQuarantineRelease bracket a peer's quarantine:
	// its misbehavior score crossed the threshold, and the cooldown later
	// expired. Peer identifies the quarantined node.
	KindQuarantine        Kind = "quarantine"
	KindQuarantineRelease Kind = "quarantine_release"
	// KindBusy is a budget-exceeded deferral: the node shed work (a
	// deferred join, a reverse-neighbor registration) instead of growing
	// a bounded set; Detail names the set.
	KindBusy Kind = "busy"
	// Peer-sampling (gossip) events. KindSampleRound is one push-pull
	// round (N the view size after the round); KindSampleFlood a round
	// whose push volume exceeded the Brahms α·l threshold, so the view
	// update was skipped (N the offending push count).
	KindSampleRound Kind = "sample_round"
	KindSampleFlood Kind = "sample_flood"
	// Gray-failure (adaptive timeout) events. KindDegraded marks a peer
	// whose smoothed probe RTT stays persistently above the cross-peer
	// median (Peer the flagged node); KindDegradedClear reports the
	// hysteresis recovery. Emitted only when an RTT estimator is
	// attached, so fixed-timeout traces are unchanged.
	KindDegraded      Kind = "degraded"
	KindDegradedClear Kind = "degraded_clear"
)

// Event is one traced protocol step. The zero value of every field but
// Node and Kind is "not applicable"; emitters fill only what the Kind
// documents. T is the time since the run started — virtual time in the
// simulator, wall time in the TCP runtime — stamped by the runtime's
// clock (see Clocked), not by the emitter.
//
// Peer is the other node's ID, not its printed form: emitting names a
// peer without rendering it, and only the sinks that print (JSONL, the
// JSON form the TCP runtime's /trace serves, SlogSink) render it.
type Event struct {
	T      time.Duration
	Node   string
	Kind   Kind
	Peer   id.ID
	Msg    string
	Detail string
	Seq    uint64
	N      int
	RTT    time.Duration
	// Causal trace context (hex, empty when the event belongs to no
	// sampled operation — the overwhelmingly common case). Trace is the
	// 16-byte operation ID, Span the 8-byte span this event belongs to,
	// Parent the span that caused it (empty on roots). One network hop is
	// one span: the sender's send-kind event and the receiver's recv-kind
	// event share Span, so hop latency is their T difference.
	Trace  string
	Span   string
	Parent string
}

// eventJSON is Event's JSON form, the schema of a JSONL trace: Peer
// printed, and omitted with every other empty optional field.
type eventJSON struct {
	T      time.Duration `json:"t"`
	Node   string        `json:"node"`
	Kind   Kind          `json:"kind"`
	Peer   string        `json:"peer,omitempty"`
	Msg    string        `json:"msg,omitempty"`
	Detail string        `json:"detail,omitempty"`
	Seq    uint64        `json:"seq,omitempty"`
	N      int           `json:"n,omitempty"`
	RTT    time.Duration `json:"rtt,omitempty"`
	Trace  string        `json:"trace,omitempty"`
	Span   string        `json:"span,omitempty"`
	Parent string        `json:"parent,omitempty"`
}

// schema is e's JSON form, its peer printed unless null.
func (e Event) schema() eventJSON {
	j := eventJSON{T: e.T, Node: e.Node, Kind: e.Kind, Msg: e.Msg, Detail: e.Detail,
		Seq: e.Seq, N: e.N, RTT: e.RTT, Trace: e.Trace, Span: e.Span, Parent: e.Parent}
	if !e.Peer.IsNull() {
		j.Peer = e.Peer.String()
	}
	return j
}

// MarshalJSON renders e in the trace schema, printing Peer.
func (e Event) MarshalJSON() ([]byte, error) { return json.Marshal(e.schema()) }

// UnmarshalJSON reads the trace schema back; a printed peer becomes the
// ID it was rendered from.
func (e *Event) UnmarshalJSON(b []byte) error {
	var j eventJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	var err error
	*e, err = j.event()
	return err
}

// event is the Event j was written from. "<null>", which older traces
// print for a sender with no ID, reads as the null ID.
func (j *eventJSON) event() (Event, error) {
	var peer id.ID
	if j.Peer != "" && j.Peer != id.Null.String() {
		var err error
		if peer, err = id.ParsePrinted(j.Peer); err != nil {
			return Event{}, err
		}
	}
	return Event{T: j.T, Node: j.Node, Kind: j.Kind, Peer: peer, Msg: j.Msg, Detail: j.Detail,
		Seq: j.Seq, N: j.N, RTT: j.RTT, Trace: j.Trace, Span: j.Span, Parent: j.Parent}, nil
}

// Stamped returns a copy of e carrying span context c: c.Span is the
// span the event belongs to, parent the span that caused it (zero on
// operation roots, and on recv-side events — the send side carries the
// edge). Unsampled contexts return e unchanged, so emitters stamp
// unconditionally and untraced runs produce byte-identical events.
func (e Event) Stamped(c trace.Context, parent trace.SpanID) Event {
	if !c.Sampled() {
		return e
	}
	e.Trace = c.Trace.String()
	e.Span = c.Span.String()
	if !parent.IsZero() {
		e.Parent = parent.String()
	}
	return e
}

// Sink consumes emitted events. Emit must not retain e past the call
// when it can avoid it; sinks that buffer (Ring, JSONL) copy the value.
type Sink interface {
	Emit(Event)
}

type nopSink struct{}

func (nopSink) Emit(Event) {}

// Nop is the zero-cost discarding sink. Components treat it as
// equivalent to "no sink": their SetSink methods normalize Nop to nil so
// the hot path's nil-check short-circuits before any Event is built —
// tracing off costs one comparison, zero allocations.
var Nop Sink = nopSink{}

// IsNop reports whether s is nil or the Nop sink; component SetSink
// implementations use it to normalize "tracing off" to a nil field.
func IsNop(s Sink) bool { return s == nil || s == Nop }

type clockedSink struct {
	next  Sink
	clock func() time.Duration
}

func (c clockedSink) Emit(e Event) {
	e.T = c.clock()
	c.next.Emit(e)
}

// Clocked wraps next so every event is stamped with clock() at emit
// time. Runtimes install it between the emitters and the user's sink:
// the overlay passes its discrete-event engine's Now, the TCP runtime a
// monotonic time-since-start. Returns nil if next is nil or Nop.
func Clocked(next Sink, clock func() time.Duration) Sink {
	if IsNop(next) {
		return nil
	}
	return clockedSink{next: next, clock: clock}
}

type teeSink struct {
	sinks []Sink
}

func (t teeSink) Emit(e Event) {
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

// Tee fans every event out to all given sinks. Nil and Nop entries are
// dropped; Tee of zero live sinks returns nil.
func Tee(sinks ...Sink) Sink {
	live := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if !IsNop(s) {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return teeSink{sinks: live}
}
