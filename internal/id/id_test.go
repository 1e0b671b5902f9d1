package id

import (
	"cmp"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

var p45 = Params{B: 4, D: 5} // the paper's Figure 1 space
var p85 = Params{B: 8, D: 5} // the paper's Figure 2 space
var p168 = Params{B: 16, D: 8}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"hex8", Params{16, 8}, false},
		{"hex40", Params{16, 40}, false},
		{"binary", Params{2, 1}, false},
		{"base36", Params{36, 4}, false},
		{"baseTooSmall", Params{1, 4}, true},
		{"baseTooLarge", Params{37, 4}, true},
		{"zeroDigits", Params{16, 0}, true},
		{"negativeDigits", Params{16, -3}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestParamsSize(t *testing.T) {
	tests := []struct {
		p    Params
		want float64
	}{
		{Params{2, 3}, 8},
		{Params{4, 5}, 1024},
		{Params{16, 8}, 4294967296},
	}
	for _, tt := range tests {
		if got := tt.p.Size(); got != tt.want {
			t.Errorf("Size(%+v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	tests := []struct {
		p Params
		s string
	}{
		{p45, "21233"},
		{p45, "00000"},
		{p45, "33333"},
		{p85, "10261"},
		{p85, "47051"},
		{p168, "0123abcd"},
		{Params{36, 3}, "zz9"},
	}
	for _, tt := range tests {
		x, err := Parse(tt.p, tt.s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tt.s, err)
		}
		if got := x.String(); got != tt.s {
			t.Errorf("Parse(%q).String() = %q", tt.s, got)
		}
		if got := string(x.AppendString([]byte("id="))); got != "id="+tt.s {
			t.Errorf("Parse(%q).AppendString = %q", tt.s, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		p    Params
		s    string
	}{
		{"tooShort", p45, "2123"},
		{"tooLong", p45, "212333"},
		{"digitOutOfBase", p45, "21243"},
		{"nonDigit", p45, "21_33"},
		{"hexInDecimalBase", Params{10, 4}, "12af"},
		{"badParams", Params{1, 4}, "0000"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.p, tt.s); err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", tt.s)
			}
		})
	}
}

// TestParsePrinted: a printed ID of any space reads back without the
// space, and what is no printed ID is refused.
func TestParsePrinted(t *testing.T) {
	for _, tc := range []struct {
		p Params
		s string
	}{{Params{B: 4, D: 5}, "21233"}, {Params{B: 16, D: 8}, "0123abcd"}, {Params{B: 36, D: 1}, "z"}} {
		x := MustParse(tc.p, tc.s)
		if got, err := ParsePrinted(tc.s); err != nil || got != x {
			t.Errorf("ParsePrinted(%q) = %v, %v; want %v", tc.s, got, err, x)
		}
	}
	for _, s := range []string{"", "<null>", "12A4", "12 4", "ε"} {
		if x, err := ParsePrinted(s); err == nil {
			t.Errorf("ParsePrinted(%q) = %v, want an error", s, x)
		}
	}
}

func TestDigitIndexing(t *testing.T) {
	// The 0th digit is the rightmost digit (paper notation).
	x := MustParse(p45, "21233")
	want := []int{3, 3, 2, 1, 2}
	for i, w := range want {
		if got := x.Digit(i); got != w {
			t.Errorf("Digit(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestDigitPanics(t *testing.T) {
	x := MustParse(p45, "21233")
	for _, i := range []int{-1, 5, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Digit(%d) did not panic", i)
				}
			}()
			x.Digit(i)
		}()
	}
}

func TestCommonSuffixLen(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"21233", "21233", 5},
		{"21233", "03233", 3},
		{"21233", "11233", 4},
		{"21233", "21231", 0},
		{"10233", "21233", 3},
		{"00000", "10000", 4},
		{"12345", "54321", 0},
	}
	p := Params{B: 8, D: 5}
	for _, tt := range tests {
		a, b := MustParse(p, tt.a), MustParse(p, tt.b)
		if got := a.CommonSuffixLen(b); got != tt.want {
			t.Errorf("csuf(%s,%s) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
		if got := b.CommonSuffixLen(a); got != tt.want {
			t.Errorf("csuf(%s,%s) = %d, want %d (symmetry)", tt.b, tt.a, got, tt.want)
		}
	}
}

func TestNullID(t *testing.T) {
	if !Null.IsNull() {
		t.Error("Null.IsNull() = false")
	}
	if Null.Len() != 0 {
		t.Errorf("Null.Len() = %d", Null.Len())
	}
	if Null.String() != "<null>" {
		t.Errorf("Null.String() = %q", Null.String())
	}
	if got := string(Null.AppendString(nil)); got != "<null>" {
		t.Errorf("Null.AppendString = %q", got)
	}
	x := MustParse(p45, "21233")
	if x.IsNull() {
		t.Error("valid ID reported null")
	}
	if x == Null {
		t.Error("valid ID compares equal to Null")
	}
}

func TestSuffix(t *testing.T) {
	x := MustParse(p45, "21233")
	tests := []struct {
		k    int
		want string
	}{
		{0, "ε"},
		{1, "3"},
		{2, "33"},
		{3, "233"},
		{5, "21233"},
	}
	for _, tt := range tests {
		if got := x.Suffix(tt.k).String(); got != tt.want {
			t.Errorf("Suffix(%d) = %q, want %q", tt.k, got, tt.want)
		}
	}
}

func TestSuffixExtendParentLeading(t *testing.T) {
	s := MustParseSuffix(p85, "61") // suffix "61": digit0=1, digit1=6
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	ext := s.Extend(2)
	if got := ext.String(); got != "261" {
		t.Errorf("Extend(2) = %q, want 261", got)
	}
	if got := ext.Leading(); got != 2 {
		t.Errorf("Leading = %d, want 2", got)
	}
	if got := MustParseSuffix(p85, ext.String()[1:]); got != s {
		t.Errorf("Extend(2) without its leading digit = %q, want %q", got.String(), s.String())
	}
}

func TestSuffixMatching(t *testing.T) {
	x := MustParse(p85, "10261")
	y := MustParse(p85, "47051")
	s261 := MustParseSuffix(p85, "261")
	s61 := MustParseSuffix(p85, "61")
	s1 := MustParseSuffix(p85, "1")
	if !x.HasSuffix(s261) || !x.HasSuffix(s61) || !x.HasSuffix(s1) || !x.HasSuffix(EmptySuffix) {
		t.Error("10261 should match 261, 61, 1 and ε")
	}
	if y.HasSuffix(s261) || y.HasSuffix(s61) {
		t.Error("47051 should not match 261 or 61")
	}
	if !y.HasSuffix(s1) {
		t.Error("47051 should match suffix 1")
	}
	if !s61.IsSuffixOf(s261) {
		t.Error("61 is a suffix of 261")
	}
	if s261.IsSuffixOf(s61) {
		t.Error("261 is not a suffix of 61")
	}
	if !EmptySuffix.IsSuffixOf(s261) {
		t.Error("ε is a suffix of everything")
	}
}

func TestFromDigits(t *testing.T) {
	x, err := FromDigits(p45, []int{3, 3, 2, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.String(); got != "21233" {
		t.Errorf("FromDigits = %q, want 21233", got)
	}
	if _, err := FromDigits(p45, []int{1, 2}); err == nil {
		t.Error("short digit slice accepted")
	}
	if _, err := FromDigits(p45, []int{0, 0, 0, 0, 9}); err == nil {
		t.Error("out-of-base digit accepted")
	}
}

func TestRandomUniqueAndInRange(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	seen := make(map[ID]bool, 1000)
	for i := 0; i < 1000; i++ {
		x := Random(p168, r)
		if x.Len() != p168.D {
			t.Fatalf("Random ID has %d digits", x.Len())
		}
		for j := 0; j < p168.D; j++ {
			if d := x.Digit(j); d < 0 || d >= p168.B {
				t.Fatalf("digit %d out of range", d)
			}
		}
		seen[x] = true
	}
	// With 2^32 IDs, 1000 draws should essentially never collide.
	if len(seen) < 999 {
		t.Errorf("unexpectedly many collisions: %d unique of 1000", len(seen))
	}
}

func TestFromNameDeterministicAndSpread(t *testing.T) {
	a := FromName(p168, "node-1.example.com:4000")
	b := FromName(p168, "node-1.example.com:4000")
	c := FromName(p168, "node-2.example.com:4000")
	if a != b {
		t.Error("FromName not deterministic")
	}
	if a == c {
		t.Error("distinct names hashed to same ID")
	}
	// Long IDs exercise the block-extension path.
	long := FromName(Params{16, 40}, "x")
	if long.Len() != 40 {
		t.Fatalf("long ID has %d digits", long.Len())
	}
	// Digit histogram over many names should hit every value for b=16.
	counts := make([]int, 16)
	for i := 0; i < 200; i++ {
		x := FromName(p168, strings.Repeat("n", i+1))
		for j := 0; j < x.Len(); j++ {
			counts[x.Digit(j)]++
		}
	}
	for v, c := range counts {
		if c == 0 {
			t.Errorf("digit value %d never produced", v)
		}
	}
}

func TestWithDigit(t *testing.T) {
	x := MustParse(p45, "21233")
	y := x.WithDigit(0, 1)
	if got := y.String(); got != "21231" {
		t.Errorf("WithDigit(0,1) = %q", got)
	}
	if x.String() != "21233" {
		t.Error("WithDigit mutated the receiver")
	}
	if got := x.WithDigit(4, 0).String(); got != "01233" {
		t.Errorf("WithDigit(4,0) = %q", got)
	}
	if got := x.WithDigit(2, 2); got != x {
		t.Errorf("identity WithDigit changed ID to %v", got)
	}
	for _, bad := range []func(){
		func() { x.WithDigit(-1, 0) },
		func() { x.WithDigit(5, 0) },
		func() { x.WithDigit(0, -1) },
		func() { x.WithDigit(0, MaxBase) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("WithDigit out of range did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestLessIsTotalOrder(t *testing.T) {
	ids := []string{"00000", "00001", "10000", "21233", "33333"}
	for i := range ids {
		for j := range ids {
			a, b := MustParse(p45, ids[i]), MustParse(p45, ids[j])
			switch {
			case i < j && !a.Less(b):
				t.Errorf("%s should be Less than %s", ids[i], ids[j])
			case i >= j && a.Less(b):
				t.Errorf("%s should not be Less than %s", ids[i], ids[j])
			}
			if got, want := a.Compare(b), cmp.Compare(i, j); got != want {
				t.Errorf("Compare(%s, %s) = %d, want %d", ids[i], ids[j], got, want)
			}
		}
	}
}

// Property: csuf(x,y) == k implies the k rightmost digits agree and, when
// k < D, digit k differs.
func TestQuickCommonSuffix(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		x, y := Random(p168, rr), Random(p168, rr)
		k := x.CommonSuffixLen(y)
		for i := 0; i < k; i++ {
			if x.Digit(i) != y.Digit(i) {
				return false
			}
		}
		if k < p168.D && x.Digit(k) == y.Digit(k) {
			return false
		}
		return x.HasSuffix(y.Suffix(k)) && y.HasSuffix(x.Suffix(k))
	}
	cfg := &quick.Config{MaxCount: 500, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: parse/format round-trips for random IDs in several spaces.
func TestQuickRoundTrip(t *testing.T) {
	spaces := []Params{{2, 16}, {4, 5}, {8, 5}, {16, 8}, {16, 40}, {36, 6}}
	r := rand.New(rand.NewSource(7))
	for _, p := range spaces {
		f := func(seed int64) bool {
			rr := rand.New(rand.NewSource(seed))
			x := Random(p, rr)
			y, err := Parse(p, x.String())
			return err == nil && x == y
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
			t.Errorf("space %+v: %v", p, err)
		}
	}
}

// Property: Extend grows Suffix(k) into Suffix(k+1), and HasSuffix is
// monotone in suffix length.
func TestQuickSuffixAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		x := Random(p168, rr)
		k := rr.Intn(p168.D)
		s := x.Suffix(k)
		ext := s.Extend(x.Digit(k))
		if ext != x.Suffix(k+1) {
			return false
		}
		// Monotonicity: matching a longer suffix implies matching shorter.
		return !x.HasSuffix(ext) || x.HasSuffix(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: r}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCommonSuffixLen(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	p := Params{16, 40}
	x, y := Random(p, r), Random(p, r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.CommonSuffixLen(y)
	}
}

func BenchmarkRandomID(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	p := Params{16, 40}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Random(p, r)
	}
}

func TestSuffixMatch(t *testing.T) {
	x := MustParse(p85, "10261")
	tests := []struct {
		suffix string
		want   int
	}{
		{"ε", 0},
		{"1", 1},
		{"61", 2},
		{"261", 3},
		{"0261", 4},
		{"10261", 5},
		{"71", 1},  // digit 0 matches, digit 1 differs
		{"3", 0},   // immediate mismatch
		{"461", 2}, // two digits then mismatch
	}
	for _, tt := range tests {
		s := MustParseSuffix(p85, tt.suffix)
		if got := x.SuffixMatch(s); got != tt.want {
			t.Errorf("SuffixMatch(%q) = %d, want %d", tt.suffix, got, tt.want)
		}
	}
}

func TestEqualAndSuffixDigit(t *testing.T) {
	a := MustParse(p45, "21233")
	b := MustParse(p45, "21233")
	c := MustParse(p45, "21230")
	if a != b || a == c {
		t.Error("ID equality wrong")
	}
	s := MustParseSuffix(p45, "233")
	if s.Digit(0) != 3 || s.Digit(1) != 3 || s.Digit(2) != 2 {
		t.Error("Suffix.Digit values wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Suffix.Digit out of range did not panic")
			}
		}()
		s.Digit(3)
	}()
}

func TestSuffixEdgePanics(t *testing.T) {
	x := MustParse(p45, "21233")
	for _, bad := range []func(){
		func() { x.Suffix(-1) },
		func() { x.Suffix(6) },
		func() { EmptySuffix.Leading() },
		func() { EmptySuffix.Extend(-1) },
		func() { EmptySuffix.Extend(MaxBase) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestMustParsePanics(t *testing.T) {
	for _, bad := range []func(){
		func() { MustParse(p45, "bad!") },
		func() { MustParseSuffix(p45, "999999") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestHasSuffixLongerThanID(t *testing.T) {
	// A suffix longer than the ID cannot match (null ID vs real suffix).
	s := MustParseSuffix(p45, "233")
	if Null.HasSuffix(s) {
		t.Error("null ID matched a non-empty suffix")
	}
	if !Null.HasSuffix(EmptySuffix) {
		t.Error("ε should match even the null ID")
	}
	if got := Null.CommonSuffixLen(MustParse(p45, "21233")); got != 0 {
		t.Errorf("csuf(null, x) = %d", got)
	}
	if got := Null.SuffixMatch(s); got != 0 {
		t.Errorf("SuffixMatch on null = %d", got)
	}
}
