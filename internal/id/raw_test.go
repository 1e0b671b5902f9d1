package id

import (
	"bytes"
	"testing"
)

// Raw-digit accessors are the binary codec's view of IDs: append must be
// the exact inverse of FromRawDigits, and hostile lengths/digits must be
// rejected rather than smuggled into an ID value.
func TestRawDigitsRoundTrip(t *testing.T) {
	p := Params{B: 8, D: 5}
	x := MustParse(p, "21233")
	raw := x.AppendRawDigits(nil)
	if len(raw) != p.D {
		t.Fatalf("AppendRawDigits wrote %d bytes, want %d", len(raw), p.D)
	}
	back, err := FromRawDigits(p, string(raw))
	if err != nil {
		t.Fatalf("FromRawDigits: %v", err)
	}
	if back != x {
		t.Fatalf("round trip %v != %v", back, x)
	}
	// Wire order: index 0 is the rightmost digit.
	if int(raw[0]) != x.Digit(0) {
		t.Fatalf("raw[0] = %d, want rightmost digit %d", raw[0], x.Digit(0))
	}
	// Appending extends, not overwrites.
	pre := []byte{0xff}
	ext := x.AppendRawDigits(pre)
	if !bytes.Equal(ext[:1], []byte{0xff}) || !bytes.Equal(ext[1:], raw) {
		t.Fatalf("AppendRawDigits does not append: %v", ext)
	}
	// Null ID appends nothing.
	if got := Null.AppendRawDigits(nil); len(got) != 0 {
		t.Fatalf("null ID appended %v", got)
	}
}

func TestFromRawDigitsRejectsHostile(t *testing.T) {
	p := Params{B: 8, D: 5}
	cases := []string{
		"\x01\x02\x03",             // too short
		"\x01\x02\x03\x04\x05\x06", // too long
		"\x01\x02\x03\x04\x08",     // digit >= base
		"\x01\x02\x03\x04\xff",     // wildly out of range
		"",                         // empty
	}
	for _, raw := range cases {
		if _, err := FromRawDigits(p, raw); err == nil {
			t.Errorf("FromRawDigits(%q) accepted", raw)
		}
	}
}

func TestSuffixRawDigitsRoundTrip(t *testing.T) {
	p := Params{B: 8, D: 5}
	for _, s := range []string{"", "3", "233", "21233"} {
		sf := MustParseSuffix(p, s)
		raw := sf.AppendRawDigits(nil)
		back, err := SuffixFromRawDigits(p, raw)
		if err != nil {
			t.Fatalf("SuffixFromRawDigits(%q): %v", s, err)
		}
		if back != sf {
			t.Fatalf("round trip %v != %v", back, sf)
		}
	}
	if _, err := SuffixFromRawDigits(p, []byte{1, 2, 3, 4, 5, 6}); err == nil {
		t.Error("over-length raw suffix accepted")
	}
	if _, err := SuffixFromRawDigits(p, []byte{9}); err == nil {
		t.Error("out-of-base raw suffix digit accepted")
	}
}
