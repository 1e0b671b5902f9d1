// The legacy gob codec's wire structs and their conversion to and from
// msg.Envelope (CodecGob; the default codec is internal/wire).

package tcptransport

import (
	"fmt"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
	"hypercube/internal/trace"
)

// wireRef is the encoded form of a table.Ref.
type wireRef struct {
	ID   string
	Addr string
}

func encodeRef(r table.Ref) wireRef {
	if r.IsZero() {
		return wireRef{}
	}
	return wireRef{ID: r.ID.String(), Addr: r.Addr}
}

// maxWireAddr bounds any transport address accepted off the wire;
// addresses are host:port strings, so anything longer is hostile.
const maxWireAddr = 256

func decodeRef(p id.Params, w wireRef) (table.Ref, error) {
	if w.ID == "" {
		return table.Ref{}, nil
	}
	x, err := id.Parse(p, w.ID)
	if err != nil {
		return table.Ref{}, fmt.Errorf("tcptransport: bad ref: %w", err)
	}
	if len(w.Addr) > maxWireAddr {
		return table.Ref{}, fmt.Errorf("tcptransport: ref address of %d bytes exceeds %d", len(w.Addr), maxWireAddr)
	}
	return table.Ref{ID: x, Addr: w.Addr}, nil
}

// wireEntry is one non-empty table entry on the wire.
type wireEntry struct {
	Level, Digit int
	ID, Addr     string
	State        uint8
}

// wireTable is the encoded form of a table.Snapshot.
type wireTable struct {
	Owner  string
	Lo, Hi int
	Filled []wireEntry
}

func encodeTable(s table.Snapshot) (wireTable, bool) {
	if s.IsZero() {
		return wireTable{}, false
	}
	lo, hi := s.LevelRange()
	w := wireTable{Owner: s.Owner().String(), Lo: lo, Hi: hi}
	s.ForEach(func(level, digit int, n table.Neighbor) {
		w.Filled = append(w.Filled, wireEntry{
			Level: level, Digit: digit,
			ID: n.ID.String(), Addr: n.Addr, State: uint8(n.State),
		})
	})
	return w, true
}

func decodeTable(p id.Params, w wireTable) (table.Snapshot, error) {
	owner, err := id.Parse(p, w.Owner)
	if err != nil {
		return table.Snapshot{}, fmt.Errorf("tcptransport: bad table owner: %w", err)
	}
	if len(w.Filled) > p.D*p.B {
		return table.Snapshot{}, fmt.Errorf("tcptransport: table with %d entries exceeds %d", len(w.Filled), p.D*p.B)
	}
	entries := make(map[[2]int]table.Neighbor, len(w.Filled))
	for _, e := range w.Filled {
		if e.Level < 0 || e.Level >= p.D || e.Digit < 0 || e.Digit >= p.B {
			return table.Snapshot{}, fmt.Errorf("tcptransport: table entry (%d,%d) out of range", e.Level, e.Digit)
		}
		if s := table.State(e.State); s != table.StateT && s != table.StateS {
			return table.Snapshot{}, fmt.Errorf("tcptransport: table entry (%d,%d) has invalid state %d", e.Level, e.Digit, e.State)
		}
		if len(e.Addr) > maxWireAddr {
			return table.Snapshot{}, fmt.Errorf("tcptransport: table entry (%d,%d) address of %d bytes exceeds %d", e.Level, e.Digit, len(e.Addr), maxWireAddr)
		}
		x, err := id.Parse(p, e.ID)
		if err != nil {
			return table.Snapshot{}, fmt.Errorf("tcptransport: bad table entry: %w", err)
		}
		entries[[2]int{e.Level, e.Digit}] = table.Neighbor{ID: x, Addr: e.Addr, State: table.State(e.State)}
	}
	return table.NewSnapshot(p, owner, w.Lo, w.Hi, entries)
}

// decodeFill validates a wire bit vector: a hostile FillLen would
// otherwise size an allocation, and a fill vector is only ever the d×b
// table-fill bitmap.
func decodeFill(p id.Params, words []uint64, n int) (table.BitVector, error) {
	if n <= 0 {
		return table.BitVector{}, nil
	}
	if n > p.D*p.B {
		return table.BitVector{}, fmt.Errorf("tcptransport: fill vector of %d bits exceeds %d", n, p.D*p.B)
	}
	// Exactly ⌈n/64⌉ words: extra words would smuggle bytes past the
	// bit-length check, and missing words would silently zero-extend — a
	// truncated fill bitmap decoding as "mostly empty" makes the joiner
	// re-request levels it already holds (and, worse, trust a hostile
	// peer's claim that nothing is filled).
	if want := (n + 63) / 64; len(words) != want {
		return table.BitVector{}, fmt.Errorf("tcptransport: fill vector carries %d words, want %d", len(words), want)
	}
	return table.BitVectorFromWords(words, n), nil
}

// wireEnvelope is the single frame type exchanged on connections.
type wireEnvelope struct {
	From, To wireRef
	Kind     uint8

	// Scalar payload fields, used per message kind.
	R         uint8
	F         bool
	State     uint8
	Level     int
	Digit     int
	NotiLevel int
	U, X, Y   wireRef

	HasTable bool
	Table    wireTable
	Fill     []uint64
	FillLen  int

	// §7-extension fields.
	Want    string
	Found   wireEntry
	Blocked bool
	Avoid   string

	// Liveness probe sequence number (Ping/Pong).
	Seq uint64

	// Peer-sampling view (SamplePullRly).
	Refs []wireRef

	// Causal trace context (nil when untraced): 16-byte trace ID plus
	// 8-byte span ID. Gob decoders that predate these fields skip them,
	// so traced gob traffic still interops with v1-era nodes.
	TraceID, SpanID []byte
}

// encodeEnvelope flattens a protocol envelope into its wire form.
func encodeEnvelope(env msg.Envelope) (wireEnvelope, error) {
	w := wireEnvelope{
		From: encodeRef(env.From),
		To:   encodeRef(env.To),
		Kind: uint8(env.Msg.Type()),
	}
	if c := env.Trace; c.Sampled() {
		w.TraceID, w.SpanID = c.Trace[:], c.Span[:]
	}
	switch m := env.Msg.(type) {
	case msg.CpRst:
		w.Level = m.Level
	case msg.CpRly:
		w.Table, w.HasTable = encodeTable(m.Table)
	case msg.JoinWait:
	case msg.JoinWaitRly:
		w.R = uint8(m.R)
		w.U = encodeRef(m.U)
		w.Table, w.HasTable = encodeTable(m.Table)
	case msg.JoinNoti:
		w.Table, w.HasTable = encodeTable(m.Table)
		w.NotiLevel = m.NotiLevel
		if m.FillVector.Len() > 0 {
			w.Fill = m.FillVector.Words()
			w.FillLen = m.FillVector.Len()
		}
	case msg.JoinNotiRly:
		w.R = uint8(m.R)
		w.F = m.F
		w.Table, w.HasTable = encodeTable(m.Table)
	case msg.InSysNoti:
	case msg.SpeNoti:
		w.X = encodeRef(m.X)
		w.Y = encodeRef(m.Y)
	case msg.SpeNotiRly:
		w.X = encodeRef(m.X)
		w.Y = encodeRef(m.Y)
	case msg.RvNghNoti:
		w.Level, w.Digit, w.State = m.Level, m.Digit, uint8(m.State)
	case msg.RvNghNotiRly:
		w.Level, w.Digit, w.State = m.Level, m.Digit, uint8(m.State)
	case msg.Leave:
		w.Table, w.HasTable = encodeTable(m.Table)
	case msg.LeaveRly:
	case msg.Find:
		w.Want = m.Want.String()
		w.X = encodeRef(m.Origin)
		if !m.Avoid.IsNull() {
			w.Avoid = m.Avoid.String()
		}
	case msg.FindRly:
		w.Want = m.Want.String()
		w.Blocked = m.Blocked
		if !m.Found.IsZero() {
			w.Found = wireEntry{ID: m.Found.ID.String(), Addr: m.Found.Addr, State: uint8(m.Found.State)}
		}
	case msg.Ping:
		w.Seq = m.Seq
		w.X = encodeRef(m.Origin)
		w.Y = encodeRef(m.Target)
	case msg.Pong:
		w.Seq = m.Seq
	case msg.FailedNoti:
		w.X = encodeRef(m.Failed)
	case msg.SyncReq:
		if m.Fill.Len() > 0 {
			w.Fill = m.Fill.Words()
			w.FillLen = m.Fill.Len()
		}
	case msg.SyncRly:
		w.Table, w.HasTable = encodeTable(m.Table)
		if m.Fill.Len() > 0 {
			w.Fill = m.Fill.Words()
			w.FillLen = m.Fill.Len()
		}
	case msg.SyncPush:
		w.Table, w.HasTable = encodeTable(m.Table)
	case msg.SamplePush:
	case msg.SamplePullReq:
	case msg.SamplePullRly:
		for _, r := range m.Refs {
			w.Refs = append(w.Refs, encodeRef(r))
		}
	default:
		return wireEnvelope{}, fmt.Errorf("tcptransport: unknown message %T", env.Msg)
	}
	return w, nil
}

// decodeEnvelope reverses encodeEnvelope.
func decodeEnvelope(p id.Params, w wireEnvelope) (msg.Envelope, error) {
	from, err := decodeRef(p, w.From)
	if err != nil {
		return msg.Envelope{}, err
	}
	to, err := decodeRef(p, w.To)
	if err != nil {
		return msg.Envelope{}, err
	}
	env := msg.Envelope{From: from, To: to}
	if len(w.TraceID) > 0 || len(w.SpanID) > 0 {
		var c trace.Context
		if len(w.TraceID) != len(c.Trace) || len(w.SpanID) != len(c.Span) {
			return msg.Envelope{}, fmt.Errorf("tcptransport: trace context of %d+%d bytes, want %d+%d",
				len(w.TraceID), len(w.SpanID), len(c.Trace), len(c.Span))
		}
		copy(c.Trace[:], w.TraceID)
		copy(c.Span[:], w.SpanID)
		if !c.Sampled() || c.Span.IsZero() {
			return msg.Envelope{}, fmt.Errorf("tcptransport: trace context with zero trace or span ID")
		}
		env.Trace = c
	}

	var snap table.Snapshot
	if w.HasTable {
		snap, err = decodeTable(p, w.Table)
		if err != nil {
			return msg.Envelope{}, err
		}
	}
	switch msg.Type(w.Kind) {
	case msg.TCpRst:
		env.Msg = msg.CpRst{Level: w.Level}
	case msg.TCpRly:
		env.Msg = msg.CpRly{Table: snap}
	case msg.TJoinWait:
		env.Msg = msg.JoinWait{}
	case msg.TJoinWaitRly:
		u, err := decodeRef(p, w.U)
		if err != nil {
			return msg.Envelope{}, err
		}
		env.Msg = msg.JoinWaitRly{R: msg.Result(w.R), U: u, Table: snap}
	case msg.TJoinNoti:
		m := msg.JoinNoti{Table: snap, NotiLevel: w.NotiLevel}
		if m.FillVector, err = decodeFill(p, w.Fill, w.FillLen); err != nil {
			return msg.Envelope{}, err
		}
		env.Msg = m
	case msg.TJoinNotiRly:
		env.Msg = msg.JoinNotiRly{R: msg.Result(w.R), F: w.F, Table: snap}
	case msg.TInSysNoti:
		env.Msg = msg.InSysNoti{}
	case msg.TSpeNoti, msg.TSpeNotiRly:
		x, err := decodeRef(p, w.X)
		if err != nil {
			return msg.Envelope{}, err
		}
		y, err := decodeRef(p, w.Y)
		if err != nil {
			return msg.Envelope{}, err
		}
		if msg.Type(w.Kind) == msg.TSpeNoti {
			env.Msg = msg.SpeNoti{X: x, Y: y}
		} else {
			env.Msg = msg.SpeNotiRly{X: x, Y: y}
		}
	case msg.TRvNghNoti:
		env.Msg = msg.RvNghNoti{Level: w.Level, Digit: w.Digit, State: table.State(w.State)}
	case msg.TRvNghNotiRly:
		env.Msg = msg.RvNghNotiRly{Level: w.Level, Digit: w.Digit, State: table.State(w.State)}
	case msg.TLeave:
		env.Msg = msg.Leave{Table: snap}
	case msg.TLeaveRly:
		env.Msg = msg.LeaveRly{}
	case msg.TFind:
		want, err := id.ParseSuffix(p, w.Want)
		if err != nil {
			return msg.Envelope{}, fmt.Errorf("tcptransport: bad find suffix: %w", err)
		}
		origin, err := decodeRef(p, w.X)
		if err != nil {
			return msg.Envelope{}, err
		}
		m := msg.Find{Want: want, Origin: origin}
		if w.Avoid != "" {
			avoid, err := id.Parse(p, w.Avoid)
			if err != nil {
				return msg.Envelope{}, fmt.Errorf("tcptransport: bad avoid id: %w", err)
			}
			m.Avoid = avoid
		}
		env.Msg = m
	case msg.TFindRly:
		want, err := id.ParseSuffix(p, w.Want)
		if err != nil {
			return msg.Envelope{}, fmt.Errorf("tcptransport: bad findrly suffix: %w", err)
		}
		m := msg.FindRly{Want: want, Blocked: w.Blocked}
		if w.Found.ID != "" {
			fid, err := id.Parse(p, w.Found.ID)
			if err != nil {
				return msg.Envelope{}, fmt.Errorf("tcptransport: bad found id: %w", err)
			}
			// Found feeds table repair directly, so it gets the same
			// boundary checks as any table entry: a hostile address or
			// state must not ride in on a FindRly.
			if len(w.Found.Addr) > maxWireAddr {
				return msg.Envelope{}, fmt.Errorf("tcptransport: found address of %d bytes exceeds %d", len(w.Found.Addr), maxWireAddr)
			}
			if s := table.State(w.Found.State); s != table.StateT && s != table.StateS {
				return msg.Envelope{}, fmt.Errorf("tcptransport: found entry has invalid state %d", w.Found.State)
			}
			m.Found = table.Neighbor{ID: fid, Addr: w.Found.Addr, State: table.State(w.Found.State)}
		}
		env.Msg = m
	case msg.TPing:
		origin, err := decodeRef(p, w.X)
		if err != nil {
			return msg.Envelope{}, err
		}
		target, err := decodeRef(p, w.Y)
		if err != nil {
			return msg.Envelope{}, err
		}
		env.Msg = msg.Ping{Seq: w.Seq, Origin: origin, Target: target}
	case msg.TPong:
		env.Msg = msg.Pong{Seq: w.Seq}
	case msg.TFailedNoti:
		failed, err := decodeRef(p, w.X)
		if err != nil {
			return msg.Envelope{}, err
		}
		env.Msg = msg.FailedNoti{Failed: failed}
	case msg.TSyncReq:
		m := msg.SyncReq{}
		if m.Fill, err = decodeFill(p, w.Fill, w.FillLen); err != nil {
			return msg.Envelope{}, err
		}
		env.Msg = m
	case msg.TSyncRly:
		m := msg.SyncRly{Table: snap}
		if m.Fill, err = decodeFill(p, w.Fill, w.FillLen); err != nil {
			return msg.Envelope{}, err
		}
		env.Msg = m
	case msg.TSyncPush:
		env.Msg = msg.SyncPush{Table: snap}
	case msg.TSamplePush:
		env.Msg = msg.SamplePush{}
	case msg.TSamplePullReq:
		env.Msg = msg.SamplePullReq{}
	case msg.TSamplePullRly:
		if len(w.Refs) > msg.MaxSampleRefs {
			return msg.Envelope{}, fmt.Errorf("tcptransport: sample reply with %d refs exceeds %d", len(w.Refs), msg.MaxSampleRefs)
		}
		m := msg.SamplePullRly{}
		for i, wr := range w.Refs {
			r, err := decodeRef(p, wr)
			if err != nil {
				return msg.Envelope{}, err
			}
			if r.IsZero() {
				return msg.Envelope{}, fmt.Errorf("tcptransport: sample reply ref %d is zero", i)
			}
			m.Refs = append(m.Refs, r)
		}
		env.Msg = m
	default:
		return msg.Envelope{}, fmt.Errorf("tcptransport: unknown wire kind %d", w.Kind)
	}
	return env, nil
}
