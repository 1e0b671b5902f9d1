// Package msg defines the protocol messages of the join protocol
// (Liu & Lam, ICDCS 2003, Figure 4) and their cost accounting.
//
// The paper's §5.2 distinguishes "big" messages — those carrying a copy of
// a neighbor table (CpRlyMsg, JoinWaitRlyMsg, JoinNotiMsg, JoinNotiRlyMsg)
// — from small fixed-size messages. WireSize implements that accounting so
// simulations can report both message counts and byte volumes.
package msg

import (
	"encoding/json"
	"fmt"

	"hypercube/internal/id"
	"hypercube/internal/table"
	"hypercube/internal/trace"
)

// Type enumerates the message types of Figure 4.
type Type uint8

const (
	// TCpRst requests a copy of the receiver's neighbor table (status copying).
	TCpRst Type = iota + 1
	// TCpRly answers a CpRstMsg with the sender's table.
	TCpRly
	// TJoinWait announces a waiting joiner to the node that should store it.
	TJoinWait
	// TJoinWaitRly answers a JoinWaitMsg (positive or negative).
	TJoinWaitRly
	// TJoinNoti announces a notifying joiner, carrying its table.
	TJoinNoti
	// TJoinNotiRly answers a JoinNotiMsg.
	TJoinNotiRly
	// TInSysNoti tells reverse-neighbors the sender became an S-node.
	TInSysNoti
	// TSpeNoti informs the receiver of the existence of node Y.
	TSpeNoti
	// TSpeNotiRly answers a SpeNotiMsg back to the original sender X.
	TSpeNotiRly
	// TRvNghNoti tells the receiver that the sender stored it as a neighbor.
	TRvNghNoti
	// TRvNghNotiRly corrects the state bit carried by a RvNghNotiMsg.
	TRvNghNotiRly

	// The following message types implement the extensions the paper
	// names as future work in §7 (leave, failure recovery, neighbor
	// table optimization); they are not part of the ICDCS 2003 protocol.

	// TLeave announces a graceful departure, carrying the leaver's table
	// so holders can repair their entries locally.
	TLeave
	// TLeaveRly acknowledges a LeaveMsg after repair.
	TLeaveRly
	// TFind routes a query for any live node with a wanted ID suffix.
	TFind
	// TFindRly answers a FindMsg to its origin.
	TFindRly
	// TPing probes a node for liveness (directly or via a relay).
	TPing
	// TPong answers a PingMsg to its origin.
	TPong
	// TFailedNoti gossips a declared crash among the victim's neighbours.
	TFailedNoti
	// TSyncReq opens an anti-entropy round, carrying the sender's fill
	// vector as a compact table digest.
	TSyncReq
	// TSyncRly answers a SyncReqMsg with the entries the requester is
	// missing plus the replier's own fill vector.
	TSyncRly
	// TSyncPush completes an anti-entropy round with the entries the
	// replier turned out to be missing.
	TSyncPush
	// TSamplePush asks the receiver to consider the sender for its
	// peer-sampling view (Brahms push).
	TSamplePush
	// TSamplePullReq asks the receiver for its peer-sampling view.
	TSamplePullReq
	// TSamplePullRly answers a SamplePullReqMsg with the sender's view.
	TSamplePullRly

	numTypes = int(TSamplePullRly)
)

// NumTypes is the number of defined message types; valid Type values are
// 1..NumTypes. Codecs use it to bound kind bytes read off the wire.
const NumTypes = numTypes

var typeNames = [...]string{
	TCpRst:         "CpRstMsg",
	TCpRly:         "CpRlyMsg",
	TJoinWait:      "JoinWaitMsg",
	TJoinWaitRly:   "JoinWaitRlyMsg",
	TJoinNoti:      "JoinNotiMsg",
	TJoinNotiRly:   "JoinNotiRlyMsg",
	TInSysNoti:     "InSysNotiMsg",
	TSpeNoti:       "SpeNotiMsg",
	TSpeNotiRly:    "SpeNotiRlyMsg",
	TRvNghNoti:     "RvNghNotiMsg",
	TRvNghNotiRly:  "RvNghNotiRlyMsg",
	TLeave:         "LeaveMsg",
	TLeaveRly:      "LeaveRlyMsg",
	TFind:          "FindMsg",
	TFindRly:       "FindRlyMsg",
	TPing:          "PingMsg",
	TPong:          "PongMsg",
	TFailedNoti:    "FailedNotiMsg",
	TSyncReq:       "SyncReqMsg",
	TSyncRly:       "SyncRlyMsg",
	TSyncPush:      "SyncPushMsg",
	TSamplePush:    "SamplePushMsg",
	TSamplePullReq: "SamplePullReqMsg",
	TSamplePullRly: "SamplePullRlyMsg",
}

// String returns the paper's name for the message type.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Types lists all message types in declaration order, for iteration in
// counters and tests.
func Types() []Type {
	out := make([]Type, 0, numTypes)
	for t := TCpRst; t <= TSamplePullRly; t++ {
		out = append(out, t)
	}
	return out
}

// Zero returns one zero-valued message of every type, in Type order: the
// way to ask a per-type question (Big) without a message in hand.
func Zero() []Message {
	return []Message{
		CpRst{}, CpRly{}, JoinWait{}, JoinWaitRly{}, JoinNoti{}, JoinNotiRly{},
		InSysNoti{}, SpeNoti{}, SpeNotiRly{}, RvNghNoti{}, RvNghNotiRly{},
		Leave{}, LeaveRly{}, Find{}, FindRly{}, &Ping{}, Pong{}, FailedNoti{},
		SyncReq{}, SyncRly{}, SyncPush{},
		SamplePush{}, SamplePullReq{}, SamplePullRly{},
	}
}

// Result is the positive/negative verdict carried by reply messages.
type Result uint8

const (
	// Negative means the receiver had already stored another node in the
	// entry the sender was a candidate for.
	Negative Result = iota + 1
	// Positive means the receiver stored the sender in its table.
	Positive
)

// String renders the result as the paper's word.
func (r Result) String() string {
	switch r {
	case Negative:
		return "negative"
	case Positive:
		return "positive"
	default:
		return fmt.Sprintf("Result(%d)", uint8(r))
	}
}

// Message is implemented by all protocol messages.
type Message interface {
	// Type identifies the message kind.
	Type() Type
	// Big reports whether the message carries a neighbor-table copy
	// (the §5.2 "big message" class).
	Big() bool
	// WireSize estimates the encoded size in bytes for traffic accounting.
	WireSize() int
}

// smallHeader approximates the fixed overhead of any message on the wire:
// type byte, two node references, and a sequence number.
const smallHeader = 32

// CpRst requests a copy of the receiver's table. The joiner copies level
// Level of the reply; the level is carried for tracing only — the reply
// always contains the full table so the joiner can continue locally while
// consecutive levels are served by the same node.
type CpRst struct {
	Level int
}

// Type implements Message.
func (CpRst) Type() Type { return TCpRst }

// Big implements Message.
func (CpRst) Big() bool { return false }

// WireSize implements Message.
func (CpRst) WireSize() int { return smallHeader + 2 }

// CpRly carries the sender's table in response to a CpRst.
type CpRly struct {
	Table table.Snapshot
}

// Type implements Message.
func (CpRly) Type() Type { return TCpRly }

// Big implements Message.
func (CpRly) Big() bool { return true }

// WireSize implements Message.
func (m CpRly) WireSize() int { return smallHeader + m.Table.WireSize() }

// JoinWait notifies the receiver that the sender is waiting to be stored
// in its table (sent in status waiting).
type JoinWait struct{}

// Type implements Message.
func (JoinWait) Type() Type { return TJoinWait }

// Big implements Message.
func (JoinWait) Big() bool { return false }

// WireSize implements Message.
func (JoinWait) WireSize() int { return smallHeader }

// JoinWaitRly answers a JoinWait. On Negative, U is the node already
// occupying the entry the sender should try next. The replier's table is
// attached in both cases.
type JoinWaitRly struct {
	R     Result
	U     table.Ref
	Table table.Snapshot
}

// Type implements Message.
func (JoinWaitRly) Type() Type { return TJoinWaitRly }

// Big implements Message.
func (JoinWaitRly) Big() bool { return true }

// WireSize implements Message.
func (m JoinWaitRly) WireSize() int { return smallHeader + 1 + refSize(m.U) + m.Table.WireSize() }

// JoinNoti announces a notifying joiner; it carries the joiner's table.
// FillVector optionally carries the §6.2 bit vector so the receiver can
// filter its reply; a zero-length vector disables the optimization.
type JoinNoti struct {
	Table      table.Snapshot
	FillVector table.BitVector
	// NotiLevel is the sender's noti_level; with the bit-vector reduction
	// the receiver always ships levels >= NotiLevel regardless of the mask.
	NotiLevel int
}

// Type implements Message.
func (JoinNoti) Type() Type { return TJoinNoti }

// Big implements Message.
func (JoinNoti) Big() bool { return true }

// WireSize implements Message.
func (m JoinNoti) WireSize() int {
	return smallHeader + m.Table.WireSize() + m.FillVector.WireSize()
}

// JoinNotiRly answers a JoinNoti with the receiver's table. F is the flag
// of Figure 9: true when the replier is an S-node absent from the correct
// entry of the joiner's table, which triggers a SpeNoti.
type JoinNotiRly struct {
	R     Result
	Table table.Snapshot
	F     bool
}

// Type implements Message.
func (JoinNotiRly) Type() Type { return TJoinNotiRly }

// Big implements Message.
func (JoinNotiRly) Big() bool { return true }

// WireSize implements Message.
func (m JoinNotiRly) WireSize() int { return smallHeader + 2 + m.Table.WireSize() }

// InSysNoti tells a reverse-neighbor that the sender's status changed to
// in_system.
type InSysNoti struct{}

// Type implements Message.
func (InSysNoti) Type() Type { return TInSysNoti }

// Big implements Message.
func (InSysNoti) Big() bool { return false }

// WireSize implements Message.
func (InSysNoti) WireSize() int { return smallHeader }

// SpeNoti informs the receiver of the existence of node Y; X is the
// original sender awaiting the final reply. Forwarded at most d times.
type SpeNoti struct {
	X table.Ref
	Y table.Ref
}

// Type implements Message.
func (SpeNoti) Type() Type { return TSpeNoti }

// Big implements Message.
func (SpeNoti) Big() bool { return false }

// WireSize implements Message.
func (m SpeNoti) WireSize() int { return smallHeader + refSize(m.X) + refSize(m.Y) }

// SpeNotiRly closes out a SpeNoti chain back to X.
type SpeNotiRly struct {
	X table.Ref
	Y table.Ref
}

// Type implements Message.
func (SpeNotiRly) Type() Type { return TSpeNotiRly }

// Big implements Message.
func (SpeNotiRly) Big() bool { return false }

// WireSize implements Message.
func (m SpeNotiRly) WireSize() int { return smallHeader + refSize(m.X) + refSize(m.Y) }

// RvNghNoti tells the receiver that the sender stored it in entry
// (Level,Digit) with the given state, making the sender a
// reverse-neighbor of the receiver.
type RvNghNoti struct {
	Level int
	Digit int
	State table.State
}

// Type implements Message.
func (RvNghNoti) Type() Type { return TRvNghNoti }

// Big implements Message.
func (RvNghNoti) Big() bool { return false }

// WireSize implements Message.
func (RvNghNoti) WireSize() int { return smallHeader + 5 }

// RvNghNotiRly corrects the state bit of the sender's entry for the
// replier: S if the replier is in_system, T otherwise.
type RvNghNotiRly struct {
	Level int
	Digit int
	State table.State
}

// Type implements Message.
func (RvNghNotiRly) Type() Type { return TRvNghNotiRly }

// Big implements Message.
func (RvNghNotiRly) Big() bool { return false }

// WireSize implements Message.
func (RvNghNotiRly) WireSize() int { return smallHeader + 5 }

func refSize(r table.Ref) int {
	if r.IsZero() {
		return 1
	}
	return r.ID.Len() + len(r.Addr) + 2
}

// Envelope is a routed message: who sent it, who should receive it, and
// the payload. Transports move envelopes; the protocol machine produces
// and consumes them.
type Envelope struct {
	From table.Ref
	To   table.Ref
	Msg  Message
	// Trace is the causal trace context the envelope carries across the
	// network (zero — the common case — means untraced). It rides in the
	// wire record after the kind byte and does not count toward
	// WireSize, which models the paper's §5.2 payload accounting.
	Trace trace.Context
}

// WireSize is the envelope's total accounting size.
func (e Envelope) WireSize() int { return e.Msg.WireSize() }

// String renders a compact trace form.
func (e Envelope) String() string {
	return fmt.Sprintf("%v -> %v: %v", e.From.ID, e.To.ID, e.Msg.Type())
}

// Counters tallies messages by type, split into sent/received and
// big/small classes, plus byte volume. Retried and Dropped account for
// the transport's reliable-delivery layer: a message is Retried each
// time a delivery attempt fails and is re-tried, and Dropped
// (dead-lettered) when the transport gives up on it entirely. The zero
// value is ready to use.
type Counters struct {
	Sent     PerType `json:"sent"`
	Received PerType `json:"received"`
	Retried  PerType `json:"retried"`
	Dropped  PerType `json:"dropped"`
	// Rejected counts messages the guard layer refused at ingress:
	// semantic validation failures, unknown types, and traffic from
	// quarantined peers. Index 0 holds rejects whose type is unknown.
	Rejected PerType `json:"rejected"`
	// BytesSent accumulates WireSize over sent messages.
	BytesSent int `json:"bytesSent"`
}

// PerType is one tally per message type, indexed by Type.
type PerType [numTypes + 1]int

// MarshalJSON renders the tally as an object keyed by type name, zero
// counts left out.
func (p PerType) MarshalJSON() ([]byte, error) {
	by := make(map[string]int)
	for t, n := range p {
		if n != 0 {
			by[Type(t).String()] = n
		}
	}
	return json.Marshal(by)
}

// UnmarshalJSON is MarshalJSON's inverse; names it does not know are
// ignored.
func (p *PerType) UnmarshalJSON(b []byte) error {
	var by map[string]int
	if err := json.Unmarshal(b, &by); err != nil {
		return err
	}
	for t := range p {
		p[t] = by[Type(t).String()]
	}
	return nil
}

// CountSent records an outgoing message.
func (c *Counters) CountSent(m Message) {
	c.Sent[m.Type()]++
	c.BytesSent += m.WireSize()
}

// CountReceived records an incoming message.
func (c *Counters) CountReceived(m Message) {
	c.Received[m.Type()]++
}

// CountRetried records one failed-and-retried delivery attempt of a
// message of type t.
func (c *Counters) CountRetried(t Type) {
	c.Retried[t]++
}

// CountDropped records a message of type t the transport dead-lettered
// after exhausting its delivery attempts (or because its outbound queue
// overflowed).
func (c *Counters) CountDropped(t Type) {
	c.Dropped[t]++
}

// CountRejected records a message of type t refused by the guard layer.
// Types outside the known range (including 0 for "unknown") land in
// bucket 0, so a hostile type value can never index out of bounds.
func (c *Counters) CountRejected(t Type) {
	if int(t) > numTypes {
		t = 0
	}
	c.Rejected[t]++
}

// RejectedOf returns the number of guard-rejected messages of type t.
func (c *Counters) RejectedOf(t Type) int {
	if int(t) > numTypes {
		t = 0
	}
	return c.Rejected[t]
}

// TotalRejected returns the number of guard-rejected messages across all
// types (including unknown-type rejects in bucket 0).
func (c *Counters) TotalRejected() int {
	total := 0
	for _, n := range c.Rejected {
		total += n
	}
	return total
}

// SentOf returns the number of sent messages of type t.
func (c *Counters) SentOf(t Type) int { return c.Sent[t] }

// ReceivedOf returns the number of received messages of type t.
func (c *Counters) ReceivedOf(t Type) int { return c.Received[t] }

// RetriedOf returns the number of retried delivery attempts for type t.
func (c *Counters) RetriedOf(t Type) int { return c.Retried[t] }

// DroppedOf returns the number of dead-lettered messages of type t.
func (c *Counters) DroppedOf(t Type) int { return c.Dropped[t] }

// TotalRetried returns the number of retried delivery attempts across
// all types.
func (c *Counters) TotalRetried() int {
	total := 0
	for _, n := range c.Retried {
		total += n
	}
	return total
}

// TotalDropped returns the number of dead-lettered messages across all
// types.
func (c *Counters) TotalDropped() int {
	total := 0
	for _, n := range c.Dropped {
		total += n
	}
	return total
}

// TotalSent returns the number of messages sent across all types.
func (c *Counters) TotalSent() int {
	total := 0
	for _, n := range c.Sent {
		total += n
	}
	return total
}

// BigSent returns the number of sent messages in the §5.2 "big" class.
func (c *Counters) BigSent() int {
	return c.Sent[TCpRly] + c.Sent[TJoinWaitRly] + c.Sent[TJoinNoti] + c.Sent[TJoinNotiRly]
}

// Add accumulates other into c.
func (c *Counters) Add(other *Counters) {
	for i := range c.Sent {
		c.Sent[i] += other.Sent[i]
		c.Received[i] += other.Received[i]
		c.Retried[i] += other.Retried[i]
		c.Dropped[i] += other.Dropped[i]
		c.Rejected[i] += other.Rejected[i]
	}
	c.BytesSent += other.BytesSent
}

// Leave announces the sender's graceful departure (a §7 extension). The
// attached table lets every holder repair the entries the leaver occupied:
// a consistent table of a node with suffix ω always contains another
// member of V_ω' for every inhabited suffix ω' of ω (see core's leave
// implementation for the argument).
type Leave struct {
	Table table.Snapshot
}

// Type implements Message.
func (Leave) Type() Type { return TLeave }

// Big implements Message.
func (Leave) Big() bool { return true }

// WireSize implements Message.
func (m Leave) WireSize() int { return smallHeader + m.Table.WireSize() }

// LeaveRly acknowledges a LeaveMsg once the receiver finished repairing.
type LeaveRly struct{}

// Type implements Message.
func (LeaveRly) Type() Type { return TLeaveRly }

// Big implements Message.
func (LeaveRly) Big() bool { return false }

// WireSize implements Message.
func (LeaveRly) WireSize() int { return smallHeader }

// Find routes a query for any live node whose ID carries the wanted
// suffix (a §7 extension used by failure recovery). Origin receives the
// FindRly; Avoid marks a node known to have failed, so forwarding through
// it is reported as Blocked instead.
type Find struct {
	Want   id.Suffix
	Origin table.Ref
	Avoid  id.ID
}

// Type implements Message.
func (Find) Type() Type { return TFind }

// Big implements Message.
func (Find) Big() bool { return false }

// WireSize implements Message.
func (m Find) WireSize() int { return smallHeader + m.Want.Len() + refSize(m.Origin) + m.Avoid.Len() }

// FindRly answers a Find: Found is a node with the wanted suffix (zero if
// provably none exists), Blocked reports that the route ran through the
// avoided node and the query should be retried after repairs progress.
type FindRly struct {
	Want    id.Suffix
	Found   table.Neighbor
	Blocked bool
}

// Type implements Message.
func (FindRly) Type() Type { return TFindRly }

// Big implements Message.
func (FindRly) Big() bool { return false }

// WireSize implements Message.
func (m FindRly) WireSize() int { return smallHeader + m.Want.Len() + m.Found.ID.Len() + 8 }
