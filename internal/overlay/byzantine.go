package overlay

import (
	"fmt"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
)

// Byzantine configures adversarial members for fault injection: a node
// marked byzantine keeps running the correct protocol machine, but its
// outgoing traffic is randomly mutated (out-of-range scalars, corrupted
// table snapshots, misaddressed deliveries), withheld, or supplemented
// with verbatim replays of stale recorded messages. Honest nodes must
// absorb all of it through the guard layer: hostile envelopes are
// rejected and charged to the sender, repeat offenders are quarantined,
// and the network still converges to a consistent state.
//
// Probe traffic (Ping/Pong) is exempt: withholding probes only models a
// crash, which the liveness suite already covers; the byzantine model
// targets the protocol message layer.
type Byzantine struct {
	// Seed feeds the deterministic corruption stream.
	Seed int64
}

const (
	// byzCorruptRate is the per-envelope probability that a byzantine
	// sender's message is mutated or withheld.
	byzCorruptRate = 0.25
	// byzReplayRate is the per-envelope probability that a byzantine
	// sender additionally replays a stale recorded message.
	byzReplayRate = 0.05
)

// byzantineHistory bounds the replay buffer of recently sent messages.
const byzantineHistory = 64

// ByzantineStats tallies the fault model's activity.
type ByzantineStats struct {
	// Marked is how many nodes are currently byzantine.
	Marked int
	// Mutated counts envelopes altered in flight, Withheld envelopes
	// silently dropped by their sender, Replayed stale envelopes
	// re-injected.
	Mutated  uint64
	Withheld uint64
	Replayed uint64
}

// MarkByzantine marks the given members as byzantine. Panics unless the
// network was configured with Config.Byzantine.
func (n *Network) MarkByzantine(ids ...id.ID) {
	if n.cfg.Byzantine == nil {
		panic("overlay: MarkByzantine without Config.Byzantine")
	}
	for _, x := range ids {
		n.byz[x] = true
	}
}

// ByzantineStats returns the fault model's counters.
func (n *Network) ByzantineStats() ByzantineStats {
	return ByzantineStats{
		Marked:   len(n.byz),
		Mutated:  n.byzMutated,
		Withheld: n.byzWithheld,
		Replayed: n.byzReplayed,
	}
}

// isProbe reports whether env carries liveness-probe traffic.
func isProbe(env msg.Envelope) bool {
	t := env.Msg.Type()
	return t == msg.TPing || t == msg.TPong
}

// recordHistory keeps a bounded ring of honest traffic for replays.
func (n *Network) recordHistory(env msg.Envelope) {
	if n.cfg.Byzantine == nil || isProbe(env) {
		return
	}
	if len(n.byzHistory) < byzantineHistory {
		n.byzHistory = append(n.byzHistory, env)
		return
	}
	n.byzHistory[n.byzHistoryNext] = env
	n.byzHistoryNext = (n.byzHistoryNext + 1) % byzantineHistory
}

// corruptOutgoing applies the byzantine fault model to one envelope a
// marked sender emits, returning what actually enters the network.
func (n *Network) corruptOutgoing(env msg.Envelope) []msg.Envelope {
	var out []msg.Envelope
	if !isProbe(env) && n.byzRng.Float64() < byzCorruptRate {
		if mutated, keep := n.mutateEnvelope(env); keep {
			n.byzMutated++
			out = append(out, mutated)
		} else {
			n.byzWithheld++
		}
	} else {
		out = append(out, env)
	}
	if len(n.byzHistory) > 0 && !isProbe(env) && n.byzRng.Float64() < byzReplayRate {
		n.byzReplayed++
		out = append(out, n.byzHistory[n.byzRng.Intn(len(n.byzHistory))])
	}
	return out
}

// mutateEnvelope picks one corruption. The sender identity is never
// forged: misbehavior must be attributable so the scorer charges the
// byzantine node, not an innocent one.
func (n *Network) mutateEnvelope(env msg.Envelope) (msg.Envelope, bool) {
	switch n.byzRng.Intn(4) {
	case 0:
		// Withhold: the message silently disappears at the sender.
		return env, false
	case 1:
		// Retarget: deliver to a random other member, which must reject
		// the misaddressed envelope.
		if to, ok := n.randomMember(env.To.ID); ok {
			env.To = to
			return env, true
		}
		return env, false
	case 2:
		env.Msg = scrambleScalars(env.Msg)
		return env, true
	default:
		// Corrupt the attached table snapshot where the message carries
		// one; otherwise fall back to scalar corruption.
		if m, ok := corruptTable(n.cfg.Params, env); ok {
			return m, true
		}
		env.Msg = scrambleScalars(env.Msg)
		return env, true
	}
}

// randomMember draws a deterministic random member other than exclude.
func (n *Network) randomMember(exclude id.ID) (table.Ref, bool) {
	members := n.Members()
	cands := members[:0]
	for _, r := range members {
		if r.ID != exclude {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 {
		return table.Ref{}, false
	}
	return cands[n.byzRng.Intn(len(cands))], true
}

// scrambleScalars corrupts a scalar field of the payload into a value
// semantic validation must reject; message kinds without a convenient
// scalar are replaced wholesale by an out-of-range CpRst.
func scrambleScalars(m msg.Message) msg.Message {
	switch v := m.(type) {
	case msg.CpRst:
		v.Level = 99
		return v
	case msg.RvNghNoti:
		v.Digit = -1
		return v
	case msg.RvNghNotiRly:
		v.Level = 1 << 20
		return v
	default:
		return msg.CpRst{Level: -7}
	}
}

// corruptTable swaps the envelope's table snapshot for one that is
// structurally well-formed but violates the suffix invariant, so only
// semantic validation catches it. Returns ok=false for messages that
// carry no table.
func corruptTable(p id.Params, env msg.Envelope) (msg.Envelope, bool) {
	bad := hostileSnapshot(p, env.From)
	switch m := env.Msg.(type) {
	case msg.CpRly:
		m.Table = bad
		env.Msg = m
	case msg.JoinWaitRly:
		m.Table = bad
		env.Msg = m
	case msg.JoinNoti:
		m.Table = bad
		env.Msg = m
	case msg.JoinNotiRly:
		m.Table = bad
		env.Msg = m
	case msg.Leave:
		m.Table = bad
		env.Msg = m
	case msg.SyncRly:
		m.Table = bad
		env.Msg = m
	case msg.SyncPush:
		m.Table = bad
		env.Msg = m
	default:
		return env, false
	}
	return env, true
}

// hostileSnapshot builds a snapshot owned by the sender whose single
// entry does not qualify for its slot: the owner itself filed under a
// level-0 digit that is not its own rightmost digit.
func hostileSnapshot(p id.Params, from table.Ref) table.Snapshot {
	j := (from.ID.Digit(0) + 1) % p.B
	entries := map[[2]int]table.Neighbor{
		{0, j}: {ID: from.ID, Addr: from.Addr, State: table.StateS},
	}
	snap, err := table.NewSnapshot(p, from.ID, 0, 0, entries)
	if err != nil {
		panic(fmt.Sprintf("overlay: hostile snapshot construction: %v", err))
	}
	return snap
}
