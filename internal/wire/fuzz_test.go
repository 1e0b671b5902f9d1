package wire

import (
	"bytes"
	"testing"

	"hypercube/internal/id"
	"hypercube/internal/msg"
)

// FuzzBinaryDecode feeds arbitrary bytes through DecodePayload: it must
// never panic, and — because the codec is canonical — any payload it
// accepts must re-encode byte-identically.
func FuzzBinaryDecode(f *testing.F) {
	p := id.Params{B: 8, D: 5}
	t := &testing.T{}
	for _, env := range sampleEnvelopes(t) {
		if payload, err := EncodePayload(p, env); err == nil {
			f.Add(payload)
		}
	}
	if envs := sampleEnvelopes(t); len(envs) > 3 {
		if payload, err := EncodePayload(p, envs[:3]...); err == nil {
			f.Add(payload)
		}
	}
	// Traced seeds: every kind traced, and a batch mixing traced and
	// untraced records.
	for i, env := range sampleEnvelopes(t) {
		env.Trace = sampleTraceContext(byte(i + 1))
		if payload, err := EncodePayload(p, env); err == nil {
			f.Add(payload)
		}
	}
	if envs := sampleEnvelopes(t); len(envs) > 3 {
		envs[1].Trace = sampleTraceContext(7)
		if payload, err := EncodePayload(p, envs[:3]...); err == nil {
			f.Add(payload)
		}
	}
	// Hostile shapes: truncations, bad versions, the traced bit on kind 0
	// and on a record too short for its context.
	f.Add([]byte{Version, 1, 3, byte(msg.TPong), 0, 0})
	f.Add([]byte{Version, 2, 1, 0})
	f.Add([]byte{Version, 1, 3, byte(msg.TPong) | traced, 0, 0})
	f.Add([]byte{Version, 1, 1, traced})
	f.Add([]byte{2, 1, 3, byte(msg.TPong), 0, 0, 2})
	f.Add([]byte{99, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var envs []msg.Envelope
		if err := DecodePayload(p, data, func(env msg.Envelope) error {
			envs = append(envs, env)
			return nil
		}); err != nil {
			return
		}
		re, err := EncodePayload(p, envs...)
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode not byte-identical\n got %x\nwant %x", re, data)
		}
	})
}
