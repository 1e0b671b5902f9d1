package wire

import (
	"bytes"
	"testing"

	"hypercube/internal/msg"
	"hypercube/internal/trace"
)

// sampleTraceContext builds a deterministic non-zero context from one
// seed byte, so golden vectors stay stable.
func sampleTraceContext(seed byte) trace.Context {
	var c trace.Context
	for i := range c.Trace {
		c.Trace[i] = seed + byte(i)
	}
	for i := range c.Span {
		c.Span[i] = seed ^ byte(0xa0+i)
	}
	if !c.Sampled() || c.Span.IsZero() {
		panic("sampleTraceContext built a zero context")
	}
	return c
}

// Traced envelopes must round-trip with their context intact and
// canonically (re-encode byte-identical). The traced bit and the
// context sit inside the record; the payload stays version 1.
func TestTraceContextRoundTrip(t *testing.T) {
	for i, env := range sampleEnvelopes(t) {
		env.Trace = sampleTraceContext(byte(i + 1))
		payload, err := EncodePayload(tp, env)
		if err != nil {
			t.Fatalf("sample %d (%v): encode: %v", i, env.Msg.Type(), err)
		}
		if payload[0] != Version {
			t.Fatalf("sample %d: traced payload has version %d, want %d", i, payload[0], Version)
		}
		back, err := DecodeOne(tp, payload)
		if err != nil {
			t.Fatalf("sample %d (%v): decode: %v", i, env.Msg.Type(), err)
		}
		if back.Trace != env.Trace {
			t.Fatalf("sample %d (%v): context diverged: got %v/%v want %v/%v",
				i, env.Msg.Type(), back.Trace.Trace, back.Trace.Span, env.Trace.Trace, env.Trace.Span)
		}
		re, err := EncodePayload(tp, back)
		if err != nil {
			t.Fatalf("sample %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(re, payload) {
			t.Fatalf("sample %d (%v): re-encode not byte-identical", i, env.Msg.Type())
		}
		assertEnvelopeEqual(t, env, back)
	}
}

// A mixed payload — some records traced, some not — keeps each record's
// own context, and its untraced records are the bytes an all-untraced
// payload carries for them.
func TestTraceMixedBatch(t *testing.T) {
	envs := sampleEnvelopes(t)[:6]
	envs[1].Trace = sampleTraceContext(7)
	envs[4].Trace = sampleTraceContext(9)
	payload, err := EncodePayload(tp, envs...)
	if err != nil {
		t.Fatal(err)
	}
	var got []msg.Envelope
	if err := DecodePayload(tp, payload, func(env msg.Envelope) error {
		got = append(got, env)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range envs {
		if got[i].Trace != envs[i].Trace {
			t.Fatalf("record %d context diverged", i)
		}
	}
	plain, err := EncodePayload(tp, sampleEnvelopes(t)[:6]...)
	if err != nil {
		t.Fatal(err)
	}
	// Each traced record grows by the context alone.
	if len(payload)-len(plain) != 2*traceCtxLen {
		t.Fatalf("two traced records add %d bytes, want %d", len(payload)-len(plain), 2*traceCtxLen)
	}
	first, err := EncodePayload(tp, envs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload[:len(first)], plain[:len(first)]) {
		t.Fatal("an untraced record differs inside a mixed payload")
	}
}

// The traced bit sits above every message type, so no kind byte of an
// untraced record can read as traced.
func TestKindByteLeavesTracedBitFree(t *testing.T) {
	if msg.NumTypes >= traced {
		t.Fatalf("msg.NumTypes = %d reaches the traced bit %#x", msg.NumTypes, traced)
	}
}

// tracedRecord hand-encodes a payload of one JoinWait record whose
// body is kind, then ctx, then the refs — the byte-by-byte form hostile
// traced shapes are built in.
func tracedRecord(t *testing.T, kind byte, ctx []byte) []byte {
	t.Helper()
	body := append([]byte{kind}, ctx...)
	body = appendRawRef(body, tref(t, "21233", "a"))
	body = appendRawRef(body, tref(t, "33121", "b"))
	payload := appendRecord(AppendHeader(nil), body)
	SetCount(payload, 1)
	return payload
}

// Hostile traced shapes must be rejected, loudly and as malformed, and
// so must a version-2 payload (the trailer format of earlier releases).
func TestTraceContextRejectsHostile(t *testing.T) {
	c := sampleTraceContext(3)
	ctx := append(append([]byte(nil), c.Trace[:]...), c.Span[:]...)
	kind := byte(msg.TJoinWait) | traced
	good := tracedRecord(t, kind, ctx)
	if env, err := DecodeOne(tp, good); err != nil || env.Trace != c {
		t.Fatalf("well-formed traced record: %v, context %+v", err, env.Trace)
	}
	zeroed := func(from, to int) []byte {
		z := append([]byte(nil), ctx...)
		clear(z[from:to])
		return z
	}
	// The context starts after the header, the one-byte body length and
	// the kind.
	const ctxAt = headerLen + 2
	cases := map[string][]byte{
		"zero trace ID": tracedRecord(t, kind, zeroed(0, traceIDLen)),
		"zero span ID":  tracedRecord(t, kind, zeroed(traceIDLen, traceCtxLen)),
		"truncated context": func() []byte {
			b := appendRecord(AppendHeader(nil), append([]byte{kind}, ctx[:traceCtxLen-4]...))
			SetCount(b, 1)
			return b
		}(),
		"payload ends in context": good[:ctxAt+traceCtxLen-4],
		"traced kind zero":        tracedRecord(t, traced, ctx),
		"traced unknown kind":     tracedRecord(t, byte(msg.NumTypes+1)|traced, ctx),
		"traced kind 0xff":        tracedRecord(t, 0xff, ctx),
		"untraced with context":   tracedRecord(t, byte(msg.TJoinWait), ctx),
		"version 2": func() []byte {
			b := append([]byte(nil), good...)
			b[0] = 2
			return b
		}(),
	}
	for name, data := range cases {
		if _, err := DecodeOne(tp, data); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !IsMalformed(err) {
			t.Errorf("%s: error not marked malformed: %v", name, err)
		}
	}
	// Encoder-side guard: a zero span with a live trace ID.
	bad := sampleEnvelopes(t)[0]
	bad.Trace = trace.Context{Trace: c.Trace}
	if _, err := EncodePayload(tp, bad); err == nil {
		t.Error("encoder accepted a context with zero span ID")
	}
}

// Golden vectors for traced records, one per sample envelope: any layout
// change must be deliberate. Regenerate with
//
//	go test ./internal/wire -run TestTraceGoldenVectors -update
func TestTraceGoldenVectors(t *testing.T) {
	envs := goldenEnvelopes(t)
	for i := range envs {
		envs[i].Trace = sampleTraceContext(byte(i + 1))
	}
	checkGolden(t, "golden_traced.txt", "Golden traced wire vectors", "TestTraceGoldenVectors", envs, func(i int, back msg.Envelope) {
		if back.Trace != envs[i].Trace {
			t.Fatalf("golden %v context diverged", envs[i].Msg.Type())
		}
		assertEnvelopeEqual(t, envs[i], back)
	})
}
