// Package wire implements the wire codec of the TCP transport: a
// hand-rolled, versioned, stdlib-only binary encoding of protocol
// envelopes, with no reflection on the hot path. The layout goals, in
// order:
//
//   - Zero allocations on the steady-state encode path: Append* functions
//     write into caller-owned buffers (pooled by the delivery layer), IDs
//     travel as raw digit bytes instead of parsed strings, and no
//     intermediate struct is built.
//   - No allocation per name on the decode path: ID digits and addresses
//     already decoded once are looked up in a bounded process-wide table
//     (intern) instead of copied again, so a table-carrying reply costs
//     the same number of allocations whatever its number of entries.
//   - Validation at the codec boundary: every length, coordinate, state
//     bit and digit read off the wire is range-checked before it sizes an
//     allocation or reaches the protocol machine (guard.Check stays as
//     the second, semantic ring).
//   - One error check per record on the decode path: the reader keeps
//     its first fault and reads zero values after it, so each message
//     decodes as one composite literal whose reads run left to right, in
//     wire order. The encoder returns at its first error instead, since
//     a writer that kept its fault encoded slower.
//   - Canonical encoding: for any payload the decoder accepts,
//     re-encoding the decoded envelopes reproduces the payload byte for
//     byte. Table entries must arrive in ascending (level,digit) order,
//     booleans must be 0/1, fill-vector padding bits must be zero —
//     anything non-canonical is rejected, which keeps the fuzz target
//     (FuzzBinaryDecode) a strict equality check.
//   - Coalescing: one payload carries 1..MaxBatch envelopes, so many
//     small messages to the same peer (probes, JoinNoti, sync digests)
//     share one frame write and one length prefix.
//
// Payload layout (the frame header is the transport's concern; see
// tcptransport/frame.go):
//
//	byte    version (1)
//	byte    count   (1..MaxBatch envelopes)
//	count × record:
//	    uvarint bodyLen
//	    body:
//	        byte kind (msg.Type, with traced set on a traced record)
//	        if traced: 16-byte trace ID, 8-byte span ID
//	        ref  From, ref To
//	        per-kind fields (see appendBody)
//
// Common shapes:
//
//	ref:      byte present; if 1: D raw ID digits, uvarint addrLen, addr
//	id:       byte present; if 1: D raw ID digits
//	suffix:   uvarint len (≤ D), raw digits
//	table:    byte present; if 1: D raw owner digits, byte lo,
//	          byte hi+1 (0 = empty level range), uvarint filledCount,
//	          then per entry: byte level, byte digit, D raw ID digits,
//	          uvarint addrLen, addr, byte state — ascending (level,digit)
//	bitvec:   uvarint bitLen (0 = none), ⌈bitLen/64⌉ little-endian words
//	scalars:  uvarint for levels/sequence numbers, single bytes for
//	          results/states/flags
//
// All scalars are little-endian; all lengths are unsigned varints. A
// version bump changes the leading byte, so old decoders reject new
// payloads loudly instead of misparsing them. An untraced record is the
// same bytes whether or not its sender traces; a traced record is an
// unknown kind to a decoder that predates the traced bit.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
	"hypercube/internal/trace"
)

const (
	// Version is the payload format version; the first payload byte.
	Version = 1
	// MaxBatch is the largest envelope count one payload may carry. It
	// fits one byte, so the count field never needs a varint.
	MaxBatch = 127
	// headerLen is the payload header: version byte plus count byte.
	headerLen = 2
	// traced is the kind byte's top bit: the record carries a sampled
	// trace context, traceIDLen + spanIDLen bytes right after the kind.
	// Message types stay below it (msg.NumTypes < 0x80).
	traced      = 0x80
	traceIDLen  = 16
	spanIDLen   = 8
	traceCtxLen = traceIDLen + spanIDLen
)

// errMalformed is the sentinel wrapped by every decode failure. The
// decoder's snapshot check is what needs the split: the entry callback
// it hands table.SnapshotFrom returns the reader's own fault, already
// malformed, while SnapshotFrom's verdicts (count, range, order) are
// table errors that the reader must wrap. The transport drops a bad
// payload whatever its error says.
var errMalformed = errors.New("wire: malformed payload")

// IsMalformed reports whether err is a codec rejection rather than an
// error of some other origin, such as a DecodePayload callback's.
func IsMalformed(err error) bool { return errors.Is(err, errMalformed) }

func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMalformed, fmt.Sprintf(format, args...))
}

// AppendHeader appends the payload header (version + count placeholder)
// to dst. The caller appends 1..MaxBatch envelopes with AppendEnvelope
// and then fixes the count with SetCount.
func AppendHeader(dst []byte) []byte {
	return append(dst, Version, 0)
}

// SetCount patches the envelope count into a payload started with
// AppendHeader. payload must begin at the version byte.
func SetCount(payload []byte, n int) {
	if n < 1 || n > MaxBatch {
		panic(fmt.Sprintf("wire: payload count %d out of [1,%d]", n, MaxBatch))
	}
	payload[1] = byte(n)
}

// AppendEnvelope appends one envelope record (uvarint body length +
// body) to dst and returns the extended slice. It allocates nothing
// beyond growing dst. Envelopes the protocol can never produce (IDs of
// the wrong length, oversized addresses, negative levels, unknown
// message types, a trace context with a zero span ID) return an error;
// the input slice is returned unchanged so a failed append can simply
// be skipped.
func AppendEnvelope(dst []byte, p id.Params, env msg.Envelope) ([]byte, error) {
	mark := len(dst)
	out, err := appendBody(dst, p, env)
	if err != nil {
		return dst, err
	}
	bodyLen := len(out) - mark
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(bodyLen))
	// Shift the body right by the varint's width, then write the prefix.
	out = append(out, lenBuf[:n]...)
	copy(out[mark+n:], out[mark:mark+bodyLen])
	copy(out[mark:], lenBuf[:n])
	return out, nil
}

// EncodePayload builds a complete payload carrying the given envelopes —
// the convenience form used by tests and tools; the transport's hot path
// assembles payloads incrementally with AppendHeader/AppendEnvelope.
func EncodePayload(p id.Params, envs ...msg.Envelope) ([]byte, error) {
	if len(envs) == 0 || len(envs) > MaxBatch {
		return nil, fmt.Errorf("wire: %d envelopes per payload, want 1..%d", len(envs), MaxBatch)
	}
	out := AppendHeader(nil)
	var err error
	for _, env := range envs {
		if out, err = AppendEnvelope(out, p, env); err != nil {
			return nil, err
		}
	}
	SetCount(out, len(envs))
	return out, nil
}

// DecodePayload parses a payload and calls fn for each envelope in
// order. Malformed input returns an error satisfying IsMalformed; an
// error from fn aborts decoding and is returned as-is. The payload must
// be consumed exactly — trailing bytes are hostile.
func DecodePayload(p id.Params, payload []byte, fn func(msg.Envelope) error) error {
	if len(payload) < headerLen {
		return badf("%d bytes, want at least %d", len(payload), headerLen)
	}
	if payload[0] != Version {
		return badf("version %d, want %d", payload[0], Version)
	}
	count := int(payload[1])
	if count < 1 || count > MaxBatch {
		return badf("envelope count %d out of [1,%d]", count, MaxBatch)
	}
	r := reader{buf: payload, pos: headerLen}
	for i := 0; i < count; i++ {
		body := r.take(r.uvarint())
		if r.err != nil {
			return r.err
		}
		env, err := decodeBody(p, body)
		if err != nil {
			return err
		}
		if err := fn(env); err != nil {
			return err
		}
	}
	if r.pos != len(payload) {
		return badf("%d trailing bytes after %d envelopes", len(payload)-r.pos, count)
	}
	return nil
}

// DecodeOne parses a payload that must carry exactly one envelope.
func DecodeOne(p id.Params, payload []byte) (msg.Envelope, error) {
	var out msg.Envelope
	seen := 0
	err := DecodePayload(p, payload, func(env msg.Envelope) error {
		out = env
		seen++
		return nil
	})
	if err != nil {
		return msg.Envelope{}, err
	}
	if seen != 1 {
		return msg.Envelope{}, badf("%d envelopes, want exactly 1", seen)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

func appendBody(dst []byte, p id.Params, env msg.Envelope) ([]byte, error) {
	if c := env.Trace; c.Sampled() {
		if c.Span.IsZero() {
			return nil, fmt.Errorf("wire: trace context with zero span ID")
		}
		dst = append(dst, byte(env.Msg.Type())|traced)
		dst = append(dst, c.Trace[:]...)
		dst = append(dst, c.Span[:]...)
	} else {
		dst = append(dst, byte(env.Msg.Type()))
	}
	var err error
	if dst, err = appendRef(dst, p, env.From); err != nil {
		return nil, err
	}
	if dst, err = appendRef(dst, p, env.To); err != nil {
		return nil, err
	}
	switch m := env.Msg.(type) {
	case msg.CpRst:
		return appendLevel(dst, m.Level)
	case msg.CpRly:
		return appendSnapshot(dst, p, m.Table)
	case msg.JoinWaitRly:
		dst = append(dst, byte(m.R))
		if dst, err = appendRef(dst, p, m.U); err != nil {
			return nil, err
		}
		return appendSnapshot(dst, p, m.Table)
	case msg.JoinNoti:
		if dst, err = appendSnapshot(dst, p, m.Table); err != nil {
			return nil, err
		}
		dst = appendBitVector(dst, m.FillVector)
		return appendLevel(dst, m.NotiLevel)
	case msg.JoinNotiRly:
		dst = append(dst, byte(m.R), boolByte(m.F))
		return appendSnapshot(dst, p, m.Table)
	case msg.SpeNoti:
		if dst, err = appendRef(dst, p, m.X); err != nil {
			return nil, err
		}
		return appendRef(dst, p, m.Y)
	case msg.SpeNotiRly:
		if dst, err = appendRef(dst, p, m.X); err != nil {
			return nil, err
		}
		return appendRef(dst, p, m.Y)
	case msg.RvNghNoti:
		return appendCoords(dst, p, m.Level, m.Digit, m.State)
	case msg.RvNghNotiRly:
		return appendCoords(dst, p, m.Level, m.Digit, m.State)
	case msg.Leave:
		return appendSnapshot(dst, p, m.Table)
	case msg.Find:
		if dst, err = appendSuffix(dst, p, m.Want); err != nil {
			return nil, err
		}
		if dst, err = appendRef(dst, p, m.Origin); err != nil {
			return nil, err
		}
		return appendOptID(dst, p, m.Avoid)
	case msg.FindRly:
		if dst, err = appendSuffix(dst, p, m.Want); err != nil {
			return nil, err
		}
		dst = append(dst, boolByte(m.Blocked))
		return appendNeighbor(dst, p, m.Found)
	case *msg.Ping:
		dst = binary.AppendUvarint(dst, m.Seq)
		if dst, err = appendRef(dst, p, m.Origin); err != nil {
			return nil, err
		}
		return appendRef(dst, p, m.Target)
	case msg.Pong:
		return binary.AppendUvarint(dst, m.Seq), nil
	case msg.FailedNoti:
		return appendRef(dst, p, m.Failed)
	case msg.SyncReq:
		return appendBitVector(dst, m.Fill), nil
	case msg.SyncRly:
		if dst, err = appendSnapshot(dst, p, m.Table); err != nil {
			return nil, err
		}
		return appendBitVector(dst, m.Fill), nil
	case msg.SyncPush:
		return appendSnapshot(dst, p, m.Table)
	case msg.JoinWait, msg.InSysNoti, msg.LeaveRly, msg.SamplePush, msg.SamplePullReq:
		return dst, nil
	case msg.SamplePullRly:
		if len(m.Refs) > msg.MaxSampleRefs {
			return nil, fmt.Errorf("wire: sample reply with %d refs exceeds %d", len(m.Refs), msg.MaxSampleRefs)
		}
		dst = append(dst, byte(len(m.Refs)))
		for i, ref := range m.Refs {
			if ref.IsZero() {
				return nil, fmt.Errorf("wire: sample reply ref %d is zero", i)
			}
			if i > 0 && !m.Refs[i-1].ID.Less(ref.ID) {
				return nil, fmt.Errorf("wire: sample reply refs not strictly ascending at %d", i)
			}
			if dst, err = appendRef(dst, p, ref); err != nil {
				return nil, err
			}
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("wire: unknown message %T", env.Msg)
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendLevel(dst []byte, level int) ([]byte, error) {
	if level < 0 {
		return nil, fmt.Errorf("wire: negative level %d", level)
	}
	return binary.AppendUvarint(dst, uint64(level)), nil
}

func appendCoords(dst []byte, p id.Params, level, digit int, s table.State) ([]byte, error) {
	if level < 0 || level >= p.D || digit < 0 || digit >= p.B {
		return nil, fmt.Errorf("wire: coords (%d,%d) out of range for b=%d d=%d", level, digit, p.B, p.D)
	}
	if s != table.StateT && s != table.StateS {
		return nil, fmt.Errorf("wire: invalid state %d", s)
	}
	return append(dst, byte(level), byte(digit), byte(s)), nil
}

func appendRef(dst []byte, p id.Params, r table.Ref) ([]byte, error) {
	if r.IsZero() {
		return append(dst, 0), nil
	}
	if r.ID.Len() != p.D {
		return nil, fmt.Errorf("wire: ref ID %v has %d digits, want %d", r.ID, r.ID.Len(), p.D)
	}
	if len(r.Addr) > table.MaxAddr {
		return nil, fmt.Errorf("wire: ref address of %d bytes exceeds %d", len(r.Addr), table.MaxAddr)
	}
	dst = append(dst, 1)
	dst = r.ID.AppendRawDigits(dst)
	dst = binary.AppendUvarint(dst, uint64(len(r.Addr)))
	return append(dst, r.Addr...), nil
}

func appendOptID(dst []byte, p id.Params, x id.ID) ([]byte, error) {
	if x.IsNull() {
		return append(dst, 0), nil
	}
	if x.Len() != p.D {
		return nil, fmt.Errorf("wire: ID %v has %d digits, want %d", x, x.Len(), p.D)
	}
	return x.AppendRawDigits(append(dst, 1)), nil
}

func appendSuffix(dst []byte, p id.Params, s id.Suffix) ([]byte, error) {
	if s.Len() > p.D {
		return nil, fmt.Errorf("wire: suffix %v has %d digits, want at most %d", s, s.Len(), p.D)
	}
	dst = binary.AppendUvarint(dst, uint64(s.Len()))
	return s.AppendRawDigits(dst), nil
}

func appendNeighbor(dst []byte, p id.Params, n table.Neighbor) ([]byte, error) {
	if n.IsZero() {
		return append(dst, 0), nil
	}
	dst, err := appendOccupant(append(dst, 1), p, n)
	if err != nil {
		return nil, fmt.Errorf("wire: neighbor %w", err)
	}
	return dst, nil
}

// appendOccupant appends a neighbor's ID, address and state: the body
// of a present neighbor and of each table entry (reader.occupant).
func appendOccupant(dst []byte, p id.Params, n table.Neighbor) ([]byte, error) {
	if n.ID.Len() != p.D {
		return nil, fmt.Errorf("ID %v has %d digits, want %d", n.ID, n.ID.Len(), p.D)
	}
	if len(n.Addr) > table.MaxAddr {
		return nil, fmt.Errorf("address of %d bytes exceeds %d", len(n.Addr), table.MaxAddr)
	}
	if n.State != table.StateT && n.State != table.StateS {
		return nil, fmt.Errorf("state %d invalid", n.State)
	}
	dst = n.ID.AppendRawDigits(dst)
	dst = binary.AppendUvarint(dst, uint64(len(n.Addr)))
	dst = append(dst, n.Addr...)
	return append(dst, byte(n.State)), nil
}

func appendSnapshot(dst []byte, p id.Params, s table.Snapshot) ([]byte, error) {
	if s.IsZero() {
		return append(dst, 0), nil
	}
	owner := s.Owner()
	if owner.Len() != p.D {
		return nil, fmt.Errorf("wire: table owner %v has %d digits, want %d", owner, owner.Len(), p.D)
	}
	dst = append(dst, 1)
	dst = owner.AppendRawDigits(dst)
	lo, hi := s.LevelRange()
	if hi < lo {
		// Present but empty level range: lo byte 0, hi+1 byte 0, no entries.
		return append(dst, 0, 0, 0), nil
	}
	if lo < 0 || hi >= p.D {
		return nil, fmt.Errorf("wire: table level range [%d,%d] out of bounds", lo, hi)
	}
	dst = append(dst, byte(lo), byte(hi+1))
	dst = binary.AppendUvarint(dst, uint64(s.FilledCount()))
	var err error
	s.ForEach(func(level, digit int, n table.Neighbor) {
		if err == nil {
			if dst, err = appendOccupant(append(dst, byte(level), byte(digit)), p, n); err != nil {
				err = fmt.Errorf("wire: table entry (%d,%d) %w", level, digit, err)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

func appendBitVector(dst []byte, v table.BitVector) []byte {
	dst = binary.AppendUvarint(dst, uint64(v.Len()))
	for i := 0; i < v.WordCount(); i++ {
		dst = binary.LittleEndian.AppendUint64(dst, v.Word(i))
	}
	return dst
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

// reader is a bounds-checked cursor over a payload slice that keeps its
// first fault. Once err is set, every read returns a zero value without
// touching buf, so a decoder reads a whole record as one expression and
// checks err once at its end; no input makes a method panic.
type reader struct {
	buf []byte
	pos int
	p   id.Params
	err error // the first fault, from badf, so IsMalformed holds
}

// fail records a malformed-input fault unless an earlier one is kept.
func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = badf(format, args...)
	}
}

func (r *reader) remaining() int { return len(r.buf) - r.pos }

func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail("truncated at byte %d", r.pos)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// uvarint reads an unsigned varint, bounded to fit an int (lengths and
// counts are always compared against small limits by the caller).
func (r *reader) uvarint() int {
	v := r.uvarint64()
	if v > 1<<31 {
		r.fail("varint %d exceeds sane bounds", v)
		return 0
	}
	return int(v)
}

func (r *reader) uvarint64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	switch {
	case n <= 0:
		r.fail("bad varint at byte %d", r.pos)
		return 0
	case n > 1 && r.buf[r.pos+n-1] == 0:
		// Canonical form only: a multi-byte varint whose final 7-bit group
		// is zero re-encodes shorter, which would break byte-identical
		// round trips (and gives hostile peers an encoding oracle).
		r.fail("non-minimal varint at byte %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.remaining() {
		r.fail("%d bytes requested, %d remain", n, r.remaining())
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) bool() bool {
	b := r.u8()
	if b > 1 {
		r.fail("flag byte %d, want 0 or 1", b)
	}
	return b == 1
}

// traceContext reads a traced record's context: the 16-byte trace ID
// and 8-byte span ID, neither of them zero (an untraced record clears
// the traced bit instead, so each context has one encoding).
func (r *reader) traceContext() trace.Context {
	raw := r.take(traceCtxLen)
	if r.err != nil {
		return trace.Context{}
	}
	var c trace.Context
	copy(c.Trace[:], raw[:traceIDLen])
	copy(c.Span[:], raw[traceIDLen:])
	if c.Trace.IsZero() || c.Span.IsZero() {
		r.fail("traced record with zero trace or span ID")
		return trace.Context{}
	}
	return c
}

// internCap bounds interned: at most internCap names of at most
// table.MaxAddr bytes (≈ 1 MiB) stay pinned, whatever peers send.
const internCap = 4096

// interned is the process-wide table of decoded names (raw ID digits and
// addresses), each mapped to one shared copy: a node hears the same few
// hundred peers named in every envelope and every shipped table. Every
// node in the process shares it, since they name mostly the same peers.
var interned struct {
	sync.Mutex
	m map[string]string
}

// intern returns a string equal to raw, reusing an earlier decode's copy;
// the lookup m[string(raw)] does not allocate. A full table is dropped
// rather than evicted entry by entry, so a peer flooding junk names costs
// one allocation per name, as without the table.
func intern(raw []byte) string {
	interned.Lock()
	defer interned.Unlock()
	if s, ok := interned.m[string(raw)]; ok {
		return s
	}
	if interned.m == nil || len(interned.m) >= internCap {
		interned.m = make(map[string]string)
	}
	s := string(raw)
	interned.m[s] = s
	return s
}

func (r *reader) id() id.ID {
	raw := r.take(r.p.D)
	if r.err != nil {
		return id.Null
	}
	x, err := id.FromRawDigits(r.p, intern(raw))
	if err != nil {
		r.fail("%v", err)
	}
	return x
}

func (r *reader) addr() string {
	n := r.uvarint()
	if n > table.MaxAddr {
		r.fail("address of %d bytes exceeds %d", n, table.MaxAddr)
	}
	raw := r.take(n)
	if r.err != nil {
		return ""
	}
	return intern(raw)
}

func (r *reader) ref() table.Ref {
	if !r.bool() {
		return table.Ref{}
	}
	return table.Ref{ID: r.id(), Addr: r.addr()}
}

func (r *reader) optID() id.ID {
	if !r.bool() {
		return id.Null
	}
	return r.id()
}

func (r *reader) suffix() id.Suffix {
	n := r.uvarint()
	if n > r.p.D {
		r.fail("suffix of %d digits exceeds %d", n, r.p.D)
	}
	raw := r.take(n)
	if r.err != nil {
		return id.EmptySuffix
	}
	s, err := id.SuffixFromRawDigits(r.p, raw)
	if err != nil {
		r.fail("%v", err)
	}
	return s
}

func (r *reader) state() table.State {
	b := r.u8()
	if s := table.State(b); s == table.StateT || s == table.StateS {
		return s
	}
	r.fail("state byte %d, want T or S", b)
	return 0
}

func (r *reader) level() int {
	n := r.uvarint()
	if n >= r.p.D {
		r.fail("level %d out of [0,%d)", n, r.p.D)
		return 0
	}
	return n
}

func (r *reader) result() msg.Result {
	b := r.u8()
	if v := msg.Result(b); v == msg.Negative || v == msg.Positive {
		return v
	}
	r.fail("result byte %d, want negative or positive", b)
	return 0
}

func (r *reader) coords() (level, digit int, s table.State) {
	lb, db := r.u8(), r.u8()
	if int(lb) >= r.p.D || int(db) >= r.p.B {
		r.fail("coords (%d,%d) out of range for b=%d d=%d", lb, db, r.p.B, r.p.D)
		return 0, 0, 0
	}
	return int(lb), int(db), r.state()
}

func (r *reader) neighbor() table.Neighbor {
	if !r.bool() {
		return table.Neighbor{}
	}
	return r.occupant()
}

// occupant reads a neighbor's ID, address and state: the body of a
// present neighbor and of each table entry.
func (r *reader) occupant() table.Neighbor {
	return table.Neighbor{ID: r.id(), Addr: r.addr(), State: r.state()}
}

func (r *reader) snapshot() table.Snapshot {
	if !r.bool() {
		return table.Snapshot{}
	}
	owner, loByte, hiPlus1, count := r.id(), r.u8(), r.u8(), r.uvarint()
	// hi+1 = 0 is the empty range, which SnapshotFrom reads as [0,-1]
	// and allows no entries in.
	lo, hi := int(loByte), int(hiPlus1)-1
	if hiPlus1 == 0 && loByte != 0 {
		r.fail("empty table range with lo=%d", loByte)
	}
	if hiPlus1 != 0 && (hi >= r.p.D || lo > hi) {
		r.fail("table level range [%d,%d] out of bounds", lo, hi)
	}
	if r.err != nil {
		return table.Snapshot{}
	}
	snap, err := table.SnapshotFrom(r.p, owner, lo, hi, count, func() (int, int, table.Neighbor, error) {
		level, digit, n := r.u8(), r.u8(), r.occupant()
		return int(level), int(digit), n, r.err
	})
	if err != nil && !IsMalformed(err) {
		// SnapshotFrom's own verdict: too many entries, or one outside
		// the range or out of the canonical order (so no duplicates).
		r.fail("%v", err)
	}
	return snap
}

func (r *reader) bitVector() table.BitVector {
	n := r.uvarint()
	if n == 0 {
		return table.BitVector{}
	}
	if n > r.p.D*r.p.B {
		r.fail("fill vector of %d bits exceeds %d", n, r.p.D*r.p.B)
		return table.BitVector{}
	}
	words := (n + 63) / 64
	v := table.NewBitVector(n)
	for i := 0; i < words; i++ {
		raw := r.take(8)
		if r.err != nil {
			return table.BitVector{}
		}
		w := binary.LittleEndian.Uint64(raw)
		// Canonical padding: bits beyond n in the final word must be zero,
		// or re-encoding would not reproduce the input.
		if i == words-1 && n%64 != 0 && w>>(n%64) != 0 {
			r.fail("fill vector carries bits beyond length %d", n)
			return table.BitVector{}
		}
		v.SetWord(i, w)
	}
	return v
}

func (r *reader) sampleRefs() []table.Ref {
	count := int(r.u8())
	if count > msg.MaxSampleRefs {
		r.fail("sample reply with %d refs exceeds %d", count, msg.MaxSampleRefs)
	}
	var refs []table.Ref
	for i := 0; i < count && r.err == nil; i++ {
		ref := r.ref()
		switch {
		case r.err != nil:
		case ref.IsZero():
			r.fail("sample reply ref %d is zero", i)
		case i > 0 && !refs[i-1].ID.Less(ref.ID):
			// Canonical form: strictly ascending IDs, so every reference
			// list has exactly one encoding and duplicates cannot hide.
			r.fail("sample reply refs not strictly ascending at %d", i)
		default:
			refs = append(refs, ref)
		}
	}
	return refs
}

// decodeBody decodes one record's body. Each message is one composite
// literal whose reads run in field order, left to right, which is the
// wire order; the first fault of any of them is the record's error.
func decodeBody(p id.Params, body []byte) (msg.Envelope, error) {
	r := reader{buf: body, p: p}
	kind := r.u8()
	isTraced := kind&traced != 0
	kind &^= traced
	if kind == 0 || int(kind) > msg.NumTypes {
		r.fail("unknown message kind %d", kind)
	}
	env := msg.Envelope{}
	if isTraced {
		env.Trace = r.traceContext()
	}
	env.From, env.To = r.ref(), r.ref()
	switch msg.Type(kind) {
	case msg.TCpRst:
		env.Msg = msg.BoxesFor(p).CpRst(r.level())
	case msg.TCpRly:
		env.Msg = msg.CpRly{Table: r.snapshot()}
	case msg.TJoinWait:
		env.Msg = msg.JoinWait{}
	case msg.TJoinWaitRly:
		env.Msg = msg.JoinWaitRly{R: r.result(), U: r.ref(), Table: r.snapshot()}
	case msg.TJoinNoti:
		env.Msg = msg.JoinNoti{Table: r.snapshot(), FillVector: r.bitVector(), NotiLevel: r.level()}
	case msg.TJoinNotiRly:
		env.Msg = msg.JoinNotiRly{R: r.result(), F: r.bool(), Table: r.snapshot()}
	case msg.TInSysNoti:
		env.Msg = msg.InSysNoti{}
	case msg.TSpeNoti:
		env.Msg = msg.SpeNoti{X: r.ref(), Y: r.ref()}
	case msg.TSpeNotiRly:
		env.Msg = msg.SpeNotiRly{X: r.ref(), Y: r.ref()}
	case msg.TRvNghNoti:
		env.Msg = msg.BoxesFor(p).RvNghNoti(r.coords())
	case msg.TRvNghNotiRly:
		env.Msg = msg.BoxesFor(p).RvNghNotiRly(r.coords())
	case msg.TLeave:
		env.Msg = msg.Leave{Table: r.snapshot()}
	case msg.TLeaveRly:
		env.Msg = msg.LeaveRly{}
	case msg.TFind:
		env.Msg = msg.Find{Want: r.suffix(), Origin: r.ref(), Avoid: r.optID()}
	case msg.TFindRly:
		env.Msg = msg.FindRly{Want: r.suffix(), Blocked: r.bool(), Found: r.neighbor()}
	case msg.TPing:
		env.Msg = &msg.Ping{Seq: r.uvarint64(), Origin: r.ref(), Target: r.ref()}
	case msg.TPong:
		env.Msg = msg.Pong{Seq: r.uvarint64()}
	case msg.TFailedNoti:
		env.Msg = msg.FailedNoti{Failed: r.ref()}
	case msg.TSyncReq:
		env.Msg = msg.SyncReq{Fill: r.bitVector()}
	case msg.TSyncRly:
		env.Msg = msg.SyncRly{Table: r.snapshot(), Fill: r.bitVector()}
	case msg.TSyncPush:
		env.Msg = msg.SyncPush{Table: r.snapshot()}
	case msg.TSamplePush:
		env.Msg = msg.SamplePush{}
	case msg.TSamplePullReq:
		env.Msg = msg.SamplePullReq{}
	case msg.TSamplePullRly:
		env.Msg = msg.SamplePullRly{Refs: r.sampleRefs()}
	}
	if r.remaining() != 0 {
		r.fail("%d trailing bytes in %v body", r.remaining(), msg.Type(kind))
	}
	if r.err != nil {
		return msg.Envelope{}, r.err
	}
	return env, nil
}
