package id

import (
	"testing"
)

// FuzzParse exercises the ID parser with arbitrary strings: it must never
// panic, and anything it accepts must round-trip exactly.
func FuzzParse(f *testing.F) {
	f.Add("21233", 4, 5)
	f.Add("0123abcd", 16, 8)
	f.Add("", 2, 1)
	f.Add("zz9", 36, 3)
	f.Add("ε", 8, 5)
	f.Fuzz(func(t *testing.T, s string, b, d int) {
		p := Params{B: b, D: d}
		x, err := Parse(p, s)
		if err != nil {
			return
		}
		if x.Len() != d {
			t.Fatalf("accepted ID has %d digits, want %d", x.Len(), d)
		}
		back, err := Parse(p, x.String())
		if err != nil || back != x {
			t.Fatalf("round trip failed for %q: %v", s, err)
		}
		if back, err := ParsePrinted(x.String()); err != nil || back != x {
			t.Fatalf("ParsePrinted round trip failed for %q: %v", s, err)
		}
	})
}

// FuzzParseSuffix: same contract for suffixes, including the ε form.
func FuzzParseSuffix(f *testing.F) {
	f.Add("233", 4, 5)
	f.Add("", 16, 8)
	f.Add("ε", 16, 8)
	f.Add("10261", 8, 5)
	f.Fuzz(func(t *testing.T, s string, b, d int) {
		p := Params{B: b, D: d}
		if p.Validate() != nil {
			return
		}
		sf, err := ParseSuffix(p, s)
		if err != nil {
			return
		}
		if sf.Len() > d {
			t.Fatalf("accepted suffix longer than d: %d > %d", sf.Len(), d)
		}
		back, err := ParseSuffix(p, sf.String())
		if err != nil || back != sf {
			t.Fatalf("round trip failed for %q", s)
		}
		// Any random ID either matches the whole suffix or a strict
		// prefix of it; SuffixMatch must agree with HasSuffix.
		x := FromName(p, s)
		m := x.SuffixMatch(sf)
		if (m == sf.Len()) != x.HasSuffix(sf) {
			t.Fatalf("SuffixMatch=%d disagrees with HasSuffix for %q on %v", m, sf.String(), x)
		}
	})
}
