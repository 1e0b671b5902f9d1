// Package guard is the protocol's admission-control layer: semantic
// validation of incoming messages plus a per-peer misbehavior scorer
// with decay and quarantine.
//
// The paper's consistency argument (Theorems 1–2) assumes every
// delivered message is well-formed and every peer follows Figures 5–14.
// A deployed overlay cannot assume either: measured Kademlia-type
// networks see stale, corrupted, and adversarial routing state as the
// norm. Check enforces the assumptions the handlers in internal/core
// rely on — levels in [0,d), digits in [0,b), suffix invariants against
// the sender's ID, table-snapshot owner/state/range checks, ref
// parseability — so one malformed message costs a counter, not a node.
// The Scorer turns repeated violations into a quarantine: the peer's
// traffic is dropped at ingress until a cooldown expires.
package guard

import (
	"fmt"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
)

// Check validates one delivered envelope against the invariants the
// protocol handlers assume, for the receiver self in space p. A nil
// return means every field is safe to hand to internal/core; an error
// names the first violated invariant (suitable as an obs event detail).
//
// Check rejects what is provably malformed, not what is merely a lie: a
// peer claiming a wrong address for a third node, or withholding table
// entries, produces well-formed messages no receiver can refute locally.
// Those cost the protocol retries, never memory or a panic.
func Check(p id.Params, self id.ID, env msg.Envelope) error {
	if env.Msg == nil {
		return fmt.Errorf("nil message")
	}
	if env.To.ID != self {
		return fmt.Errorf("misaddressed: envelope for %v", env.To.ID)
	}
	if err := checkRef(p, env.From, false); err != nil {
		return fmt.Errorf("bad sender: %w", err)
	}
	if env.From.ID == self {
		return fmt.Errorf("bad sender: envelope from self")
	}
	from := env.From.ID
	switch m := env.Msg.(type) {
	case msg.CpRst:
		if m.Level < 0 || m.Level >= p.D {
			return fmt.Errorf("CpRst level %d out of [0,%d)", m.Level, p.D)
		}
	case msg.CpRly:
		return checkTable(p, from, m.Table)
	case msg.JoinWait:
	case msg.JoinWaitRly:
		if m.R != msg.Positive && m.R != msg.Negative {
			return fmt.Errorf("JoinWaitRly result %d invalid", m.R)
		}
		if err := checkRef(p, m.U, false); err != nil {
			return fmt.Errorf("JoinWaitRly U: %w", err)
		}
		if m.R == msg.Negative && m.U.ID == self {
			// Following a negative redirect to ourselves would make the
			// joiner JoinWait itself — a self-delivery the handlers never
			// expect.
			return fmt.Errorf("JoinWaitRly redirects to self")
		}
		return checkTable(p, from, m.Table)
	case msg.JoinNoti:
		if m.NotiLevel < 0 || m.NotiLevel >= p.D {
			return fmt.Errorf("JoinNoti noti_level %d out of [0,%d)", m.NotiLevel, p.D)
		}
		if n := m.FillVector.Len(); n != 0 && n != p.D*p.B {
			return fmt.Errorf("JoinNoti fill vector length %d, want 0 or %d", n, p.D*p.B)
		}
		return checkTable(p, from, m.Table)
	case msg.JoinNotiRly:
		if m.R != msg.Positive && m.R != msg.Negative {
			return fmt.Errorf("JoinNotiRly result %d invalid", m.R)
		}
		return checkTable(p, from, m.Table)
	case msg.InSysNoti:
	case msg.SpeNoti:
		if err := checkRef(p, m.X, false); err != nil {
			return fmt.Errorf("SpeNoti X: %w", err)
		}
		if err := checkRef(p, m.Y, false); err != nil {
			return fmt.Errorf("SpeNoti Y: %w", err)
		}
		if m.Y.ID == self {
			// The handler stores Y at level CommonSuffixLen(self, Y.ID),
			// which is d for Y == self — out of table range.
			return fmt.Errorf("SpeNoti announces the receiver to itself")
		}
	case msg.SpeNotiRly:
		if err := checkRef(p, m.Y, false); err != nil {
			return fmt.Errorf("SpeNotiRly Y: %w", err)
		}
	case msg.RvNghNoti:
		if err := checkCoords(p, m.Level, m.Digit); err != nil {
			return fmt.Errorf("RvNghNoti %w", err)
		}
		if err := checkState(m.State); err != nil {
			return fmt.Errorf("RvNghNoti %w", err)
		}
		// Suffix invariant: the sender claims to have stored us at
		// (Level,Digit) of its table, so we must carry that entry's
		// desired suffix — Digit · from[Level-1..0].
		if !table.Qualifies(from, m.Level, m.Digit, self) {
			return fmt.Errorf("RvNghNoti entry (%d,%d) does not qualify the receiver", m.Level, m.Digit)
		}
	case msg.RvNghNotiRly:
		if err := checkCoords(p, m.Level, m.Digit); err != nil {
			return fmt.Errorf("RvNghNotiRly %w", err)
		}
		if err := checkState(m.State); err != nil {
			return fmt.Errorf("RvNghNotiRly %w", err)
		}
	case msg.Leave:
		return checkTable(p, from, m.Table)
	case msg.LeaveRly:
	case msg.Find:
		if err := checkSuffix(p, m.Want); err != nil {
			return fmt.Errorf("Find want: %w", err)
		}
		if m.Want.Len() == 0 {
			// The routing step indexes entry (k, Want[k]); an empty wanted
			// suffix has no digits to route on.
			return fmt.Errorf("Find with empty suffix")
		}
		if err := checkRef(p, m.Origin, false); err != nil {
			return fmt.Errorf("Find origin: %w", err)
		}
		if !m.Avoid.IsNull() && m.Avoid.Len() != p.D {
			return fmt.Errorf("Find avoid id has %d digits, want %d", m.Avoid.Len(), p.D)
		}
	case msg.FindRly:
		if err := checkSuffix(p, m.Want); err != nil {
			return fmt.Errorf("FindRly want: %w", err)
		}
		if !m.Found.IsZero() {
			if err := checkRef(p, m.Found.Ref(), false); err != nil {
				return fmt.Errorf("FindRly found: %w", err)
			}
			if err := checkState(m.Found.State); err != nil {
				return fmt.Errorf("FindRly found: %w", err)
			}
			// The found node is installed at entries whose desired suffix
			// is Want; a reply not carrying it would poison the table.
			if !m.Found.ID.HasSuffix(m.Want) {
				return fmt.Errorf("FindRly found %v lacks wanted suffix %v", m.Found.ID, m.Want)
			}
		}
	case *msg.Ping:
		if err := checkRef(p, m.Origin, true); err != nil {
			return fmt.Errorf("Ping origin: %w", err)
		}
		if err := checkRef(p, m.Target, true); err != nil {
			return fmt.Errorf("Ping target: %w", err)
		}
	case msg.Pong:
	case msg.FailedNoti:
		if err := checkRef(p, m.Failed, false); err != nil {
			return fmt.Errorf("FailedNoti failed: %w", err)
		}
	case msg.SyncReq:
		if n := m.Fill.Len(); n != 0 && n != p.D*p.B {
			return fmt.Errorf("SyncReq fill vector length %d, want 0 or %d", n, p.D*p.B)
		}
	case msg.SyncRly:
		if n := m.Fill.Len(); n != 0 && n != p.D*p.B {
			return fmt.Errorf("SyncRly fill vector length %d, want 0 or %d", n, p.D*p.B)
		}
		return checkTable(p, from, m.Table)
	case msg.SyncPush:
		return checkTable(p, from, m.Table)
	case msg.SamplePush:
	case msg.SamplePullReq:
	case msg.SamplePullRly:
		if len(m.Refs) > msg.MaxSampleRefs {
			return fmt.Errorf("SamplePullRly with %d refs exceeds %d", len(m.Refs), msg.MaxSampleRefs)
		}
		for i, r := range m.Refs {
			if err := checkRef(p, r, false); err != nil {
				return fmt.Errorf("SamplePullRly ref %d: %w", i, err)
			}
			// Strictly ascending IDs: the canonical order, which also rules
			// out duplicate references padding the reply.
			if i > 0 && !m.Refs[i-1].ID.Less(r.ID) {
				return fmt.Errorf("SamplePullRly refs out of order at %d", i)
			}
		}
	default:
		return fmt.Errorf("unknown message type %T", env.Msg)
	}
	return nil
}

// checkRef validates a node reference: parseable d-digit ID with every
// digit in [0,b), and a bounded address. allowZero accepts the zero ref
// (fields where "absent" is legal).
func checkRef(p id.Params, r table.Ref, allowZero bool) error {
	if r.IsZero() {
		if allowZero {
			return nil
		}
		return fmt.Errorf("null ref")
	}
	if r.ID.Len() != p.D {
		return fmt.Errorf("id %v has %d digits, want %d", r.ID, r.ID.Len(), p.D)
	}
	for i := 0; i < r.ID.Len(); i++ {
		if d := r.ID.Digit(i); d < 0 || d >= p.B {
			return fmt.Errorf("id digit %d out of base %d", d, p.B)
		}
	}
	if len(r.Addr) > table.MaxAddr {
		return fmt.Errorf("address of %d bytes exceeds %d", len(r.Addr), table.MaxAddr)
	}
	return nil
}

// checkSuffix validates a wanted suffix: at most d digits, each in [0,b).
func checkSuffix(p id.Params, s id.Suffix) error {
	if s.Len() > p.D {
		return fmt.Errorf("suffix of %d digits exceeds d=%d", s.Len(), p.D)
	}
	for i := 0; i < s.Len(); i++ {
		if d := s.Digit(i); d < 0 || d >= p.B {
			return fmt.Errorf("suffix digit %d out of base %d", d, p.B)
		}
	}
	return nil
}

// checkCoords validates a table coordinate pair.
func checkCoords(p id.Params, level, digit int) error {
	if level < 0 || level >= p.D {
		return fmt.Errorf("level %d out of [0,%d)", level, p.D)
	}
	if digit < 0 || digit >= p.B {
		return fmt.Errorf("digit %d out of [0,%d)", digit, p.B)
	}
	return nil
}

// checkState validates a neighbor state bit.
func checkState(s table.State) error {
	if s != table.StateT && s != table.StateS {
		return fmt.Errorf("state %d invalid", s)
	}
	return nil
}

// checkTable validates an attached table snapshot: the owner must be the
// sender (every protocol message attaches the sender's own table), and
// every entry must satisfy the §2.1 suffix invariant with a valid state
// and an address of at most table.MaxAddr bytes (Snapshot.Validate, one
// walk). The zero snapshot — no table attached — is legal;
// handlers treat it as a withheld table.
func checkTable(p id.Params, from id.ID, snap table.Snapshot) error {
	if snap.IsZero() {
		return nil
	}
	if snap.Params() != p {
		return fmt.Errorf("table in space b=%d d=%d, want b=%d d=%d",
			snap.Params().B, snap.Params().D, p.B, p.D)
	}
	if snap.Owner() != from {
		return fmt.Errorf("table owned by %v attached by %v", snap.Owner(), from)
	}
	if err := snap.Validate(); err != nil {
		return fmt.Errorf("bad table: %w", err)
	}
	return nil
}
