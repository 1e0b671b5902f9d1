package core_test

import (
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/guard"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/obs"
	"hypercube/internal/table"
	"hypercube/internal/trace"
)

// The fuzz decoder turns a byte string into one header byte (odd = the
// machine runs with a tracer and a sink, so Deliver's traced path is
// the one fuzzed) and a sequence of envelopes: one byte picks the
// sender, one the recipient, one the message type, the following bytes
// index pools of valid AND hostile field values, and a last byte picks
// the envelope's trace context (index 0 of every pool is a valid
// choice, so the seed corpus below encodes one well-formed envelope per
// message type). Everything is delivered to one machine; whatever
// arrives, the machine must not panic and its table must stay
// well-formed.

type byteReader struct {
	data []byte
	i    int
}

func (r *byteReader) done() bool { return r.i >= len(r.data) }

func (r *byteReader) next() int {
	if r.done() {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return int(b)
}

func pick[T any](r *byteReader, pool []T) T { return pool[r.next()%len(pool)] }

type fuzzPools struct {
	p       id.Params
	self    table.Ref
	refs    []table.Ref
	suffixe []id.Suffix
	avoids  []id.ID
	levels  []int
	digits  []int
	states  []table.State
	results []msg.Result
	fills   []table.BitVector
	founds  []table.Neighbor
	traces  []trace.Context
}

func newFuzzPools(p id.Params, self table.Ref) *fuzzPools {
	short := id.MustParse(id.Params{B: 4, D: 2}, "10")
	wide := id.MustParse(id.Params{B: 8, D: 4}, "7654")
	return &fuzzPools{
		p:    p,
		self: self,
		refs: []table.Ref{
			{ID: id.MustParse(p, "0123"), Addr: "sim://a"},
			{ID: id.MustParse(p, "1110"), Addr: "sim://b"},
			{ID: id.MustParse(p, "2210"), Addr: "sim://c"},
			self,
			{},
			{ID: short, Addr: "sim://short"},
			{ID: wide, Addr: "sim://wide"},
		},
		suffixe: []id.Suffix{
			id.MustParseSuffix(p, "0"),
			id.MustParseSuffix(p, "10"),
			id.MustParseSuffix(p, "3210"),
			{},
			id.MustParseSuffix(p, "3210").Extend(1), // 5 digits > d
		},
		avoids:  []id.ID{{}, self.ID, id.MustParse(p, "0123"), short},
		levels:  []int{0, 1, 2, 3, -1, 99, p.D},
		digits:  []int{0, 1, 2, 3, -7, 64},
		states:  []table.State{table.StateS, table.StateT, 0, 9},
		results: []msg.Result{msg.Positive, msg.Negative, 0, 9},
		fills: []table.BitVector{
			{},
			table.NewBitVector(p.D * p.B),
			table.NewBitVector(17),
			table.NewBitVector(1 << 12),
		},
		founds: []table.Neighbor{
			{},
			{ID: id.MustParse(p, "0000"), Addr: "sim://f", State: table.StateS},
			{ID: id.MustParse(p, "1230"), Addr: "sim://g", State: table.State(9)},
			{ID: wide, State: table.StateS},
		},
		// Unsampled, two live contexts (the second lets a later envelope
		// belong to another operation than the one in flight), and the two
		// half-set contexts no honest sender produces.
		traces: []trace.Context{
			{},
			{Trace: trace.TraceID{1}, Span: trace.SpanID{1}},
			{Trace: trace.TraceID{15: 2}, Span: trace.SpanID{7: 2}},
			{Trace: trace.TraceID{3}},
			{Span: trace.SpanID{4}},
		},
	}
}

// snapFor returns a table snapshot whose validity depends on sel: 0 is the
// sender's own diagonal table (well-formed), then the zero snapshot, a
// wrong-owner snapshot, and a corrupted one.
func (fp *fuzzPools) snapFor(from table.Ref, sel int) table.Snapshot {
	mk := func(owner id.ID) table.Snapshot {
		tbl := table.New(fp.p, owner)
		for i := 0; i < fp.p.D; i++ {
			tbl.Set(i, owner.Digit(i), table.Neighbor{ID: owner, Addr: "sim://o", State: table.StateS})
		}
		return tbl.Snapshot()
	}
	owner := from.ID
	hostable := !from.IsZero() && owner.Len() == fp.p.D
	for i := 0; hostable && i < owner.Len(); i++ {
		hostable = owner.Digit(i) < fp.p.B
	}
	if !hostable {
		owner = id.MustParse(fp.p, "1110")
	}
	switch sel % 4 {
	case 0:
		return mk(owner)
	case 1:
		return table.Snapshot{}
	case 2:
		return mk(id.MustParse(fp.p, "2210"))
	default:
		tbl := table.New(fp.p, owner)
		tbl.Set(0, 3, table.Neighbor{ID: id.MustParse(fp.p, "0000"), State: table.State(7)})
		return tbl.Snapshot()
	}
}

func (fp *fuzzPools) decodeEnv(r *byteReader) msg.Envelope {
	from := pick(r, fp.refs)
	to := fp.self
	if r.next()%8 == 7 {
		to = pick(r, fp.refs) // occasionally misaddressed
	}
	var pm msg.Message
	switch r.next() % 22 {
	case 0:
		pm = msg.CpRst{Level: pick(r, fp.levels)}
	case 1:
		pm = msg.CpRly{Table: fp.snapFor(from, r.next())}
	case 2:
		pm = msg.JoinWait{}
	case 3:
		pm = msg.JoinWaitRly{R: pick(r, fp.results), U: pick(r, fp.refs), Table: fp.snapFor(from, r.next())}
	case 4:
		pm = msg.JoinNoti{Table: fp.snapFor(from, r.next()), NotiLevel: pick(r, fp.levels), FillVector: pick(r, fp.fills)}
	case 5:
		pm = msg.JoinNotiRly{R: pick(r, fp.results), Table: fp.snapFor(from, r.next()), F: r.next()%2 == 1}
	case 6:
		pm = msg.InSysNoti{}
	case 7:
		pm = msg.SpeNoti{X: pick(r, fp.refs), Y: pick(r, fp.refs)}
	case 8:
		pm = msg.SpeNotiRly{X: pick(r, fp.refs), Y: pick(r, fp.refs)}
	case 9:
		pm = msg.RvNghNoti{Level: pick(r, fp.levels), Digit: pick(r, fp.digits), State: pick(r, fp.states)}
	case 10:
		pm = msg.RvNghNotiRly{Level: pick(r, fp.levels), Digit: pick(r, fp.digits), State: pick(r, fp.states)}
	case 11:
		pm = msg.Leave{Table: fp.snapFor(from, r.next())}
	case 12:
		pm = msg.LeaveRly{}
	case 13:
		pm = msg.Find{Want: pick(r, fp.suffixe), Origin: pick(r, fp.refs), Avoid: pick(r, fp.avoids)}
	case 14:
		pm = msg.FindRly{Want: pick(r, fp.suffixe), Found: pick(r, fp.founds), Blocked: r.next()%2 == 1}
	case 15:
		pm = &msg.Ping{Seq: uint64(r.next()), Origin: pick(r, fp.refs), Target: pick(r, fp.refs)}
	case 16:
		pm = msg.Pong{Seq: uint64(r.next())}
	case 17:
		pm = msg.FailedNoti{Failed: pick(r, fp.refs)}
	case 18:
		pm = msg.SyncReq{Fill: pick(r, fp.fills)}
	case 19:
		pm = msg.SyncRly{Table: fp.snapFor(from, r.next()), Fill: pick(r, fp.fills)}
	case 20:
		pm = msg.SyncPush{Table: fp.snapFor(from, r.next())}
	default:
		pm = hostileMsg{}
	}
	return msg.Envelope{From: from, To: to, Msg: pm, Trace: pick(r, fp.traces)}
}

func FuzzMachineDeliver(f *testing.F) {
	// One well-formed envelope per message type: header h, sender
	// refs[0], recipient self, type t, then zero bytes picking the valid
	// (index-0) variant of every field — untraced on an untraced machine
	// (h=0), and again carrying a live context into a traced one (h=1;
	// no message consumes more than four field bytes, so for the shorter
	// ones the context lands on a following envelope).
	for t := 0; t < 22; t++ {
		f.Add([]byte{0, 0, 0, byte(t), 0, 0, 0, 0, 0, 0, 0})
		f.Add([]byte{1, 0, 0, byte(t), 0, 0, 0, 0, 1, 1, 1, 1, 1})
	}
	// A couple of hostile openers: misaddressed, null sender, unknown type.
	f.Add([]byte{0, 0, 7, 0, 0})
	f.Add([]byte{0, 4, 0, 2})
	f.Add([]byte{0, 0, 0, 21})
	// Traced machine: a JoinWait under one context then a JoinNoti under
	// another (two operations interleaved), and half-set contexts.
	f.Add([]byte{1, 0, 0, 2, 1, 1, 0, 4, 0, 0, 0, 2})
	f.Add([]byte{1, 0, 0, 2, 3, 0, 0, 6, 4})
	// A live context into an untraced machine: it must be dropped.
	f.Add([]byte{0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := id.Params{B: 4, D: 4}
		self := table.Ref{ID: id.MustParse(p, "3210"), Addr: "sim://self"}
		m := core.NewSeed(p, self, core.Options{
			ReduceLevels: true,
			BitVector:    true,
			Guard:        &guard.Policy{},
		})
		var now time.Duration
		fp := newFuzzPools(p, self)
		if len(data) > 4096 {
			data = data[:4096] // bound per-input work; 4 KiB is ~500 envelopes
		}
		r := &byteReader{data: data}
		traced := r.next()%2 == 1
		if traced {
			m.SetTracer(trace.NewTracer(trace.NewDeterministicGen(1), 1))
			m.SetSink(obs.NewRing(8))
		}
		for !r.done() {
			env := fp.decodeEnv(r)
			for _, out := range m.Deliver(env) {
				// A reply continues its cause's operation or none: never
				// a context the tracerless machine should have dropped,
				// never one minted from an unsampled envelope.
				if out.Trace.Sampled() && (!traced || out.Trace.Trace != env.Trace.Trace) {
					t.Fatalf("reply %v to %v carries context %+v (machine traced=%v)", out.Msg.Type(), env.Msg.Type(), out.Trace, traced)
				}
			}
			now += 50 * time.Millisecond
			m.Advance(now)
		}
		// Whatever arrived, the table must still be well-formed: every
		// occupant carries its entry's desired suffix with a legal state.
		if err := m.Snapshot().Validate(); err != nil {
			t.Fatalf("table corrupted by hostile input: %v", err)
		}
		if m.Status() != core.StatusInSystem {
			t.Fatalf("seed node left in_system: %v", m.Status())
		}
	})
}
