// Package trace defines the compact causal trace context propagated
// across nodes: a 16-byte trace ID naming one protocol operation (a
// join attempt, a probe, an anti-entropy round, a sample round) and an
// 8-byte span ID naming one hop of it. The
// context rides inside msg.Envelope, crosses the network inside each
// traced wire record, and is echoed into obs events so `trace report`
// (obs.BuildTrees) can stitch per-node JSONL streams into cross-node
// span trees.
//
// Sampling is head-based: the decision is made once, when the root
// span is allocated. An unsampled operation gets the zero Context,
// which propagates nowhere and costs nothing downstream — emitters
// check Context.Sampled() (one comparison) before building any trace
// metadata, so tracing off stays within the nop-sink guardrail.
//
// ID generation is pluggable so the simulator stays deterministic:
// NewDeterministicGen derives a per-(seed,node) splitmix64 stream, the
// TCP runtime uses NewRandomGen (crypto/rand). Neither ever returns a
// zero ID — zero is reserved to mean "no context".
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"hypercube/internal/splitmix"
)

// TraceID identifies one protocol operation across every node it
// touches. The zero value means "untraced".
type TraceID [16]byte

// IsZero reports whether t is the absent trace ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders t as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one hop (or the root) of a traced operation. The
// zero value means "no span".
type SpanID [8]byte

// IsZero reports whether s is the absent span ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders s as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// Context is the propagated trace context: which operation this
// message belongs to and which span it is. The zero value is the
// absent context; a valid context always has both IDs non-zero (the
// sampling bit of the wire form is exactly this distinction).
type Context struct {
	Trace TraceID
	Span  SpanID
}

// Sampled reports whether the context is live — i.e. the operation's
// root made a positive head-sampling decision and the context should
// keep propagating.
func (c Context) Sampled() bool { return !c.Trace.IsZero() }

// Gen produces trace and span IDs. Implementations must be safe for
// concurrent use and must never return zero IDs.
type Gen interface {
	TraceID() TraceID
	SpanID() SpanID
}

// deterministicGen is a splitmix64 stream; the simulator derives one
// per (seed, node) so reruns produce identical IDs.
type deterministicGen struct {
	mu sync.Mutex
	s  splitmix.Stream
}

// NewDeterministicGen returns a Gen drawing from a splitmix64 stream
// seeded with seed. Two gens with the same seed produce the same IDs,
// so derive per-node seeds (e.g. run seed mixed with the node ID hash)
// before fanning out.
func NewDeterministicGen(seed uint64) Gen {
	return &deterministicGen{s: splitmix.New(seed)}
}

func (g *deterministicGen) TraceID() TraceID {
	g.mu.Lock()
	defer g.mu.Unlock()
	var t TraceID
	for t.IsZero() {
		binary.BigEndian.PutUint64(t[:8], g.s.Next())
		binary.BigEndian.PutUint64(t[8:], g.s.Next())
	}
	return t
}

func (g *deterministicGen) SpanID() SpanID {
	g.mu.Lock()
	defer g.mu.Unlock()
	var s SpanID
	for s.IsZero() {
		binary.BigEndian.PutUint64(s[:], g.s.Next())
	}
	return s
}

// randomGen draws from crypto/rand — the right source for real
// deployments where IDs must not collide across independently started
// nodes.
type randomGen struct{}

// NewRandomGen returns a Gen backed by crypto/rand.
func NewRandomGen() Gen { return randomGen{} }

func (randomGen) TraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		if _, err := rand.Read(t[:]); err != nil {
			panic("trace: crypto/rand failed: " + err.Error())
		}
	}
	return t
}

func (randomGen) SpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		if _, err := rand.Read(s[:]); err != nil {
			panic("trace: crypto/rand failed: " + err.Error())
		}
	}
	return s
}

// Tracer makes head-sampling decisions and allocates spans. A nil
// *Tracer means tracing is off: Root and Child on nil return the zero
// Context, so call sites need no nil-checks beyond the ones they
// already do for sampled contexts.
type Tracer struct {
	gen Gen
	// threshold implements the sampling rate without floating point on
	// the hot path: a root is sampled when the low 32 bits of a fresh
	// span ID fall below it. 0 = never, 1<<32 = always.
	threshold uint64
}

// NewTracer builds a tracer sampling the given fraction (clamped to
// [0,1], NaN read as 0) of operation roots from gen's ID streams.
func NewTracer(gen Gen, sample float64) *Tracer {
	if !(sample > 0) {
		sample = 0
	}
	if sample > 1 {
		sample = 1
	}
	return &Tracer{gen: gen, threshold: uint64(sample * (1 << 32))}
}

// Root starts a new operation: it makes the head-sampling decision and,
// when positive, returns a fresh context with a new trace ID and root
// span. When negative (or t is nil) it returns the zero Context and the
// operation propagates no trace state at all.
func (t *Tracer) Root() Context {
	if t == nil || t.threshold == 0 {
		return Context{}
	}
	span := t.gen.SpanID()
	if t.threshold < 1<<32 {
		if uint64(binary.BigEndian.Uint32(span[4:])) >= t.threshold {
			return Context{}
		}
	}
	return Context{Trace: t.gen.TraceID(), Span: span}
}

// Child allocates the next hop of parent's operation: same trace, new
// span. The zero context stays zero (unsampled operations never grow
// spans), as does any context when t is nil — a node without a tracer
// cannot mint spans and therefore appears as an opaque hop.
func (t *Tracer) Child(parent Context) Context {
	if t == nil || !parent.Sampled() {
		return Context{}
	}
	return Context{Trace: parent.Trace, Span: t.gen.SpanID()}
}
