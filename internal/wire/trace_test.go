package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// Traced envelopes must round-trip through the v2 payload with their
// context intact, canonically (re-encode byte-identical), and the
// version must be auto-selected: any traced record makes the payload
// v2, none keeps it v1 — byte-identical to the pre-v2 encoder.
func TestTraceContextRoundTrip(t *testing.T) {
	for i, env := range sampleEnvelopes(t) {
		env.Trace = sampleTraceContext(byte(i + 1))
		payload, err := EncodePayload(tp, env)
		if err != nil {
			t.Fatalf("sample %d (%v): encode: %v", i, env.Msg.Type(), err)
		}
		if payload[0] != VersionTraced {
			t.Fatalf("sample %d: traced payload has version %d, want %d", i, payload[0], VersionTraced)
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

// A mixed payload — some records traced, some not — is v2 with per-
// record flags, and each record keeps its own context.
func TestTraceMixedBatch(t *testing.T) {
	envs := sampleEnvelopes(t)[:6]
	envs[1].Trace = sampleTraceContext(7)
	envs[4].Trace = sampleTraceContext(9)
	payload, err := EncodePayload(tp, envs...)
	if err != nil {
		t.Fatal(err)
	}
	if payload[0] != VersionTraced {
		t.Fatalf("mixed payload has version %d, want %d", payload[0], VersionTraced)
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
	// Untraced batches must stay v1 — byte-identical to the old encoder.
	plain, err := EncodePayload(tp, sampleEnvelopes(t)[:6]...)
	if err != nil {
		t.Fatal(err)
	}
	if plain[0] != Version {
		t.Fatalf("untraced payload has version %d, want %d", plain[0], Version)
	}
}

// StripTraceTrailers rewrites a v2 payload into the v1 payload a
// version-1-only node would have produced for the same envelopes: the
// version byte drops to 1 and every record's trailer is removed. Test
// helper shared with the differential fuzz target.
func stripTraceTrailers(t *testing.T, payload []byte) []byte {
	t.Helper()
	if len(payload) < headerLen || payload[0] != VersionTraced {
		t.Fatalf("not a v2 payload")
	}
	out := []byte{Version, payload[1]}
	pos := headerLen
	for i := 0; i < int(payload[1]); i++ {
		bodyLen, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			t.Fatalf("bad record %d", i)
		}
		end := pos + n + int(bodyLen)
		out = append(out, payload[pos:end]...)
		pos = end
		switch payload[pos] {
		case 0:
			pos++
		case 1:
			pos += 1 + traceCtxLen
		default:
			t.Fatalf("record %d: bad trailer flags %d", i, payload[pos])
		}
	}
	if pos != len(payload) {
		t.Fatalf("%d trailing bytes", len(payload)-pos)
	}
	return out
}

// Differential v2↔v1: stripping the trailers from any traced payload
// must yield a valid v1 payload decoding to the same envelopes minus
// their trace context — the exact view a v1-only decoder has of traced
// traffic after a re-encode hop.
func TestTraceStripDifferential(t *testing.T) {
	envs := sampleEnvelopes(t)
	for i := range envs {
		if i%2 == 0 {
			envs[i].Trace = sampleTraceContext(byte(i + 1))
		}
	}
	for n := 1; n <= len(envs); n += 7 {
		batch := envs[:n]
		v2, err := EncodePayloadV(tp, VersionTraced, batch...)
		if err != nil {
			t.Fatal(err)
		}
		v1 := stripTraceTrailers(t, v2)
		var got []msg.Envelope
		if err := DecodePayload(tp, v1, func(env msg.Envelope) error {
			got = append(got, env)
			return nil
		}); err != nil {
			t.Fatalf("stripped payload rejected: %v", err)
		}
		if len(got) != len(batch) {
			t.Fatalf("stripped payload decoded %d envelopes, want %d", len(got), len(batch))
		}
		for j := range batch {
			if got[j].Trace.Sampled() {
				t.Fatalf("record %d kept a trace context through the strip", j)
			}
			want := batch[j]
			want.Trace = trace.Context{}
			assertEnvelopeEqual(t, want, got[j])
			if got[j].From != want.From || got[j].To != want.To {
				t.Fatalf("record %d refs diverged", j)
			}
		}
	}
}

// Hostile trailer shapes must be rejected, loudly and as malformed.
func TestTraceTrailerRejectsHostile(t *testing.T) {
	env := sampleEnvelopes(t)[0]
	env.Trace = sampleTraceContext(3)
	good, err := EncodePayload(tp, env)
	if err != nil {
		t.Fatal(err)
	}
	trailerAt := len(good) - 1 - traceCtxLen
	if good[trailerAt] != 1 {
		t.Fatalf("trailer flags not where expected")
	}
	mut := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	cases := map[string][]byte{
		"flags byte 2":      mut(func(b []byte) []byte { b[trailerAt] = 2; return b }),
		"truncated trailer": good[:len(good)-4],
		"zero trace ID": mut(func(b []byte) []byte {
			for i := 0; i < traceIDLen; i++ {
				b[trailerAt+1+i] = 0
			}
			return b
		}),
		"zero span ID": mut(func(b []byte) []byte {
			for i := 0; i < spanIDLen; i++ {
				b[trailerAt+1+traceIDLen+i] = 0
			}
			return b
		}),
		"v1 with trailer": mut(func(b []byte) []byte { b[0] = Version; return b }),
		"v2 missing trailer": func() []byte {
			v1, err := EncodePayloadV(tp, Version, sampleEnvelopes(t)[0])
			if err != nil {
				t.Fatal(err)
			}
			v1[0] = VersionTraced
			return v1
		}(),
	}
	for name, data := range cases {
		if _, err := DecodeOne(tp, data); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !IsMalformed(err) {
			t.Errorf("%s: error not marked malformed: %v", name, err)
		}
	}
	// Encoder-side guards: traced envelope under v1, zero span with a
	// live trace ID.
	if _, err := EncodePayloadV(tp, Version, env); err == nil {
		t.Error("EncodePayloadV(v1) accepted a traced envelope")
	}
	bad := env
	bad.Trace.Span = trace.SpanID{}
	if _, err := EncodePayload(tp, bad); err == nil {
		t.Error("encoder accepted a context with zero span ID")
	}
}

// Golden vectors for the v2 trailer: any layout change must be
// deliberate. Regenerate with
//
//	go test ./internal/wire -run TestTraceGoldenVectors -update
func TestTraceGoldenVectors(t *testing.T) {
	envs := goldenEnvelopes(t)
	for i := range envs {
		envs[i].Trace = sampleTraceContext(byte(i + 1))
	}
	// One untraced record inside a v2 payload (flags 0) is part of the
	// format too.
	plain := goldenEnvelopes(t)[0]
	path := filepath.Join("testdata", "golden_v2.txt")
	encode := func(i int) []byte {
		var payload []byte
		var err error
		if i < len(envs) {
			payload, err = EncodePayload(tp, envs[i])
		} else {
			payload, err = EncodePayloadV(tp, VersionTraced, plain)
		}
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	names := func(i int) string {
		if i < len(envs) {
			return envs[i].Msg.Type().String()
		}
		return plain.Msg.Type().String() + "-untraced"
	}
	total := len(envs) + 1
	if *update {
		var sb strings.Builder
		sb.WriteString("# Golden v2 wire vectors: <kind> <hex payload>, one per sample envelope.\n")
		sb.WriteString("# Regenerate with: go test ./internal/wire -run TestTraceGoldenVectors -update\n")
		for i := 0; i < total; i++ {
			fmt.Fprintf(&sb, "%s %s\n", names(i), hex.EncodeToString(encode(i)))
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != total {
		t.Fatalf("golden file has %d vectors, want %d (regenerate with -update)", len(lines), total)
	}
	for i := 0; i < total; i++ {
		payload := encode(i)
		fields := strings.Fields(lines[i])
		if len(fields) != 2 {
			t.Fatalf("golden line %d malformed: %q", i, lines[i])
		}
		want, err := hex.DecodeString(fields[1])
		if err != nil {
			t.Fatalf("golden line %d: %v", i, err)
		}
		if fields[0] != names(i) {
			t.Fatalf("golden line %d is %s, sample is %s (regenerate with -update)", i, fields[0], names(i))
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("v2 wire layout changed for %s\n got %x\nwant %x\nif deliberate, bump VersionTraced and regenerate with -update",
				names(i), payload, want)
		}
		back, err := DecodeOne(tp, want)
		if err != nil {
			t.Fatalf("golden %s no longer decodes: %v", names(i), err)
		}
		if i < len(envs) {
			if back.Trace != envs[i].Trace {
				t.Fatalf("golden %s context diverged", names(i))
			}
			assertEnvelopeEqual(t, envs[i], back)
		} else if back.Trace.Sampled() {
			t.Fatalf("untraced golden decoded with a context")
		}
	}
}
