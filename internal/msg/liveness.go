// Liveness messages — the probe layer of the failure-detection extension
// (§7 names failure recovery as future work; the paper itself assumes
// reliable nodes). Ping/Pong are the smallest message class: they carry a
// sequence number and, for indirect probes, a relay target. FailedNoti
// gossips a declared crash among the victim's neighbours so repairs
// converge without a global oracle.
package msg

import "hypercube/internal/table"

// Ping probes a node for liveness. A direct probe has a zero Target and
// is answered by a Pong to Origin. An indirect probe (sent to a shared
// neighbor to rule out one-way loss on the direct path) carries the
// suspect in Target; the receiver relays the ping unchanged, and the
// suspect answers Origin directly.
//
// *Ping, not Ping, is the Message: a probe is the most frequent message
// a live network sends, and a pointer goes into an interface without
// boxing, so a prober can hand out Pings it allocated in batches. A Ping
// is never changed once sent; a relay forwards the pointer it received.
type Ping struct {
	Seq    uint64
	Origin table.Ref
	Target table.Ref
}

// Type implements Message.
func (*Ping) Type() Type { return TPing }

// Big implements Message.
func (*Ping) Big() bool { return false }

// WireSize implements Message.
func (m *Ping) WireSize() int { return smallHeader + 8 + refSize(m.Origin) + refSize(m.Target) }

// Pong answers a Ping back to its Origin, echoing the sequence number.
type Pong struct {
	Seq uint64
}

// Type implements Message.
func (Pong) Type() Type { return TPong }

// Big implements Message.
func (Pong) Big() bool { return false }

// WireSize implements Message.
func (Pong) WireSize() int { return smallHeader + 8 }

// FailedNoti tells the receiver that Failed was declared crashed by the
// sender's failure detector. Receivers drop the node from their tables
// and repair autonomously; those that had it in their table or reverse
// set also gossip the declaration onward (once per failed node), so the
// victim's neighbours converge without central coordination.
type FailedNoti struct {
	Failed table.Ref
}

// Type implements Message.
func (FailedNoti) Type() Type { return TFailedNoti }

// Big implements Message.
func (FailedNoti) Big() bool { return false }

// WireSize implements Message.
func (m FailedNoti) WireSize() int { return smallHeader + refSize(m.Failed) }
