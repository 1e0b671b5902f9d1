// Package id implements the identifier space of the hypercube routing
// scheme: fixed-length IDs of d digits in base b, with digit 0 being the
// rightmost (least significant) digit, following the notation of
// Liu & Lam (ICDCS 2003) and Plaxton, Rajaraman & Richa (SPAA 1997).
//
// IDs are immutable values and can be used as map keys. All suffix
// arithmetic ("the rightmost k digits") is provided here so that higher
// layers never manipulate raw digits.
package id

import (
	"crypto/sha1"
	"errors"
	"fmt"
	"math/rand"
	"strings"
)

// MaxBase is the largest supported digit base. Digits are printed with the
// characters 0-9 then a-z, so bases beyond 36 have no printable form.
const MaxBase = 36

const digitChars = "0123456789abcdefghijklmnopqrstuvwxyz"

// Params describe an ID space: every ID has exactly D digits of base B.
// The space therefore contains B^D distinct IDs.
type Params struct {
	B int // base of each digit (2..MaxBase)
	D int // number of digits (>= 1)
}

// Validate reports whether the parameters describe a usable ID space.
func (p Params) Validate() error {
	switch {
	case p.B < 2 || p.B > MaxBase:
		return fmt.Errorf("id: base %d out of range [2,%d]", p.B, MaxBase)
	case p.D < 1:
		return fmt.Errorf("id: digit count %d must be positive", p.D)
	default:
		return nil
	}
}

// Size returns the number of IDs in the space, saturating at the maximum
// float64 (the space can exceed 2^63 for large D).
func (p Params) Size() float64 {
	size := 1.0
	for i := 0; i < p.D; i++ {
		size *= float64(p.B)
	}
	return size
}

// ID is a node or object identifier: a string of D digits, stored with
// digit i at byte i, i.e. index 0 is the rightmost digit of the printed
// form. The zero value is the "null" ID, distinct from every valid ID.
type ID struct {
	// digits holds one byte per digit, index 0 = rightmost digit.
	digits string
}

// Null is the zero ID, used to represent "no node".
var Null ID

// IsNull reports whether x is the null ID.
func (x ID) IsNull() bool { return x.digits == "" }

// Len returns the number of digits in x (0 for the null ID).
func (x ID) Len() int { return len(x.digits) }

// Digit returns the i-th digit of x counting from the right (the paper's
// x[i]). It panics if i is out of range, which always indicates a
// programming error in the caller.
func (x ID) Digit(i int) int {
	if i < 0 || i >= len(x.digits) {
		panic(fmt.Sprintf("id: digit index %d out of range for %q", i, x.String()))
	}
	return int(x.digits[i])
}

// String renders the ID most-significant digit first, matching the paper's
// examples (e.g. "21233" with b=4, d=5).
func (x ID) String() string {
	if x.IsNull() {
		return "<null>"
	}
	var sb strings.Builder
	sb.Grow(len(x.digits))
	for i := len(x.digits) - 1; i >= 0; i-- {
		sb.WriteByte(digitChars[x.digits[i]])
	}
	return sb.String()
}

// AppendString appends String's rendering of x to dst and returns the
// extended slice; with room in dst it does not allocate.
func (x ID) AppendString(dst []byte) []byte {
	if x.IsNull() {
		return append(dst, "<null>"...)
	}
	for i := len(x.digits) - 1; i >= 0; i-- {
		dst = append(dst, digitChars[x.digits[i]])
	}
	return dst
}

// CommonSuffixLen returns |csuf(x, y)|: the number of rightmost digits
// shared by x and y. Both IDs must come from the same space for the result
// to be meaningful; the shorter length bounds the answer.
func (x ID) CommonSuffixLen(y ID) int {
	n := len(x.digits)
	if len(y.digits) < n {
		n = len(y.digits)
	}
	k := 0
	for k < n && x.digits[k] == y.digits[k] {
		k++
	}
	return k
}

// WithDigit returns a copy of x with digit i (counting from the right)
// replaced by v. Used by surrogate routing, which resolves the final hops
// toward an object ID by substituting unmatchable digits.
func (x ID) WithDigit(i, v int) ID {
	if i < 0 || i >= len(x.digits) {
		panic(fmt.Sprintf("id: WithDigit index %d out of range for %q", i, x.String()))
	}
	if v < 0 || v >= MaxBase {
		panic(fmt.Sprintf("id: WithDigit value %d out of range", v))
	}
	b := []byte(x.digits)
	b[i] = byte(v)
	return ID{digits: string(b)}
}

// Suffix returns the rightmost k digits of x as a Suffix value.
// It panics if k is negative or exceeds the ID length.
func (x ID) Suffix(k int) Suffix {
	if k < 0 || k > len(x.digits) {
		panic(fmt.Sprintf("id: suffix length %d out of range for %q", k, x.String()))
	}
	return Suffix{digits: x.digits[:k]}
}

// SuffixMatch returns the number of rightmost digits of s that agree with
// x, i.e. the largest m <= |s| with x.Digit(i) == s.Digit(i) for i < m.
// m == |s| means x carries the whole suffix.
func (x ID) SuffixMatch(s Suffix) int {
	n := len(s.digits)
	if len(x.digits) < n {
		n = len(x.digits)
	}
	m := 0
	for m < n && x.digits[m] == s.digits[m] {
		m++
	}
	return m
}

// HasSuffix reports whether the rightmost |s| digits of x equal s.
func (x ID) HasSuffix(s Suffix) bool {
	if len(s.digits) > len(x.digits) {
		return false
	}
	return x.digits[:len(s.digits)] == s.digits
}

// Less imposes a total order on IDs (lexicographic most-significant digit
// first), useful for deterministic iteration in tests and tools.
func (x ID) Less(y ID) bool {
	n := len(x.digits)
	if len(y.digits) < n {
		n = len(y.digits)
	}
	for i := n - 1; i >= 0; i-- {
		if x.digits[i] != y.digits[i] {
			return x.digits[i] < y.digits[i]
		}
	}
	return len(x.digits) < len(y.digits)
}

// Compare is the three-way form of Less, for slices.SortFunc: negative
// when x orders before y, positive when after, zero when equal.
func (x ID) Compare(y ID) int {
	switch {
	case x.Less(y):
		return -1
	case y.Less(x):
		return 1
	}
	return 0
}

// Suffix is a sequence of rightmost digits (possibly empty). Like ID it is
// immutable and comparable. The empty suffix matches every ID.
type Suffix struct {
	digits string // index 0 = rightmost digit
}

// EmptySuffix matches every ID.
var EmptySuffix Suffix

// Len returns the number of digits in the suffix (|omega|).
func (s Suffix) Len() int { return len(s.digits) }

// Digit returns the i-th digit of the suffix counting from the right.
func (s Suffix) Digit(i int) int {
	if i < 0 || i >= len(s.digits) {
		panic(fmt.Sprintf("id: suffix digit index %d out of range for %q", i, s.String()))
	}
	return int(s.digits[i])
}

// Extend returns the suffix j·s: digit j prepended on the left of s, i.e.
// the suffix one digit longer. It panics on an invalid digit value.
func (s Suffix) Extend(j int) Suffix {
	if j < 0 || j >= MaxBase {
		panic(fmt.Sprintf("id: digit %d out of range", j))
	}
	return Suffix{digits: s.digits + string(byte(j))}
}

// String renders the suffix most-significant digit first; the empty suffix
// renders as "ε".
func (s Suffix) String() string {
	if len(s.digits) == 0 {
		return "ε"
	}
	var sb strings.Builder
	sb.Grow(len(s.digits))
	for i := len(s.digits) - 1; i >= 0; i-- {
		sb.WriteByte(digitChars[s.digits[i]])
	}
	return sb.String()
}

// Leading returns the leftmost (most significant) digit of the suffix.
func (s Suffix) Leading() int {
	if len(s.digits) == 0 {
		panic("id: Leading of empty suffix")
	}
	return int(s.digits[len(s.digits)-1])
}

// IsSuffixOf reports whether s is a suffix of t (every ID matching t also
// matches s).
func (s Suffix) IsSuffixOf(t Suffix) bool {
	if len(s.digits) > len(t.digits) {
		return false
	}
	return t.digits[:len(s.digits)] == s.digits
}

// errParse is the sentinel wrapped by all Parse failures.
var errParse = errors.New("id: parse error")

// Parse converts the printed form (most-significant digit first) into an
// ID in space p. Digits use 0-9 then a-z.
func Parse(p Params, s string) (ID, error) {
	if err := p.Validate(); err != nil {
		return Null, err
	}
	if len(s) != p.D {
		return Null, fmt.Errorf("%w: %q has %d digits, want %d", errParse, s, len(s), p.D)
	}
	digits := make([]byte, p.D)
	for i := 0; i < p.D; i++ {
		c := s[p.D-1-i]
		v := strings.IndexByte(digitChars, c)
		if v < 0 || v >= p.B {
			return Null, fmt.Errorf("%w: %q has invalid digit %q for base %d", errParse, s, c, p.B)
		}
		digits[i] = byte(v)
	}
	return ID{digits: string(digits)}, nil
}

// ParsePrinted is the inverse of String for a reader that knows no ID
// space, such as a trace, which records none: s may have any non-zero
// length and each digit is 0-9 or a-z. For an ID x of any space,
// ParsePrinted(x.String()) equals x.
func ParsePrinted(s string) (ID, error) {
	if s == "" {
		return Null, fmt.Errorf("%w: empty ID", errParse)
	}
	digits := make([]byte, len(s))
	for i := range digits {
		c := s[len(s)-1-i]
		v := strings.IndexByte(digitChars, c)
		if v < 0 {
			return Null, fmt.Errorf("%w: %q has invalid digit %q", errParse, s, c)
		}
		digits[i] = byte(v)
	}
	return ID{digits: string(digits)}, nil
}

// MustParse is Parse that panics on error; for tests and fixed fixtures.
func MustParse(p Params, s string) ID {
	x, err := Parse(p, s)
	if err != nil {
		panic(err)
	}
	return x
}

// ParseSuffix converts a printed digit string into a Suffix (any length up
// to D). An empty string or "ε" yields the empty suffix.
func ParseSuffix(p Params, s string) (Suffix, error) {
	if s == "" || s == "ε" {
		return EmptySuffix, nil
	}
	if len(s) > p.D {
		return EmptySuffix, fmt.Errorf("%w: suffix %q longer than %d digits", errParse, s, p.D)
	}
	digits := make([]byte, len(s))
	for i := range digits {
		c := s[len(s)-1-i]
		v := strings.IndexByte(digitChars, c)
		if v < 0 || v >= p.B {
			return EmptySuffix, fmt.Errorf("%w: suffix %q has invalid digit %q for base %d", errParse, s, c, p.B)
		}
		digits[i] = byte(v)
	}
	return Suffix{digits: string(digits)}, nil
}

// MustParseSuffix is ParseSuffix that panics on error.
func MustParseSuffix(p Params, s string) Suffix {
	sf, err := ParseSuffix(p, s)
	if err != nil {
		panic(err)
	}
	return sf
}

// AppendRawDigits appends the ID's raw digit bytes to dst (index 0 =
// rightmost digit, one byte per digit, values in [0,b)) and returns the
// extended slice. It is the allocation-free wire form used by the binary
// codec; FromRawDigits is its inverse. The null ID appends nothing.
func (x ID) AppendRawDigits(dst []byte) []byte {
	return append(dst, x.digits...)
}

// FromRawDigits rebuilds an ID from the raw digit bytes produced by
// AppendRawDigits, validating length and digit range against p. Unlike
// Parse it works on wire-order digits (index 0 = rightmost) and never
// touches the printable form. The ID shares raw's storage, so the wire
// decoder's interned digits become the ID without a copy.
func FromRawDigits(p Params, raw string) (ID, error) {
	if err := p.Validate(); err != nil {
		return Null, err
	}
	if len(raw) != p.D {
		return Null, fmt.Errorf("%w: %d raw digits, want %d", errParse, len(raw), p.D)
	}
	for i := 0; i < len(raw); i++ {
		if int(raw[i]) >= p.B {
			return Null, fmt.Errorf("%w: raw digit %d at index %d out of range for base %d", errParse, raw[i], i, p.B)
		}
	}
	return ID{digits: raw}, nil
}

// AppendRawDigits appends the suffix's raw digit bytes to dst (index 0 =
// rightmost digit), the wire form inverted by SuffixFromRawDigits.
func (s Suffix) AppendRawDigits(dst []byte) []byte {
	return append(dst, s.digits...)
}

// SuffixFromRawDigits rebuilds a Suffix from raw wire-order digit bytes,
// validating length (at most D) and digit range against p.
func SuffixFromRawDigits(p Params, raw []byte) (Suffix, error) {
	if err := p.Validate(); err != nil {
		return EmptySuffix, err
	}
	if len(raw) > p.D {
		return EmptySuffix, fmt.Errorf("%w: suffix of %d raw digits longer than %d", errParse, len(raw), p.D)
	}
	for i, v := range raw {
		if int(v) >= p.B {
			return EmptySuffix, fmt.Errorf("%w: raw suffix digit %d at index %d out of range for base %d", errParse, v, i, p.B)
		}
	}
	return Suffix{digits: string(raw)}, nil
}

// FromDigits builds an ID from a digit slice with index 0 = rightmost
// digit. The slice is copied; it must have exactly D digits in range.
func FromDigits(p Params, digits []int) (ID, error) {
	if err := p.Validate(); err != nil {
		return Null, err
	}
	if len(digits) != p.D {
		return Null, fmt.Errorf("%w: %d digits, want %d", errParse, len(digits), p.D)
	}
	raw := make([]byte, p.D)
	for i, v := range digits {
		if v < 0 || v >= p.B {
			return Null, fmt.Errorf("%w: digit %d out of range for base %d", errParse, v, p.B)
		}
		raw[i] = byte(v)
	}
	return ID{digits: string(raw)}, nil
}

// Random draws an ID uniformly from space p using r.
func Random(p Params, r *rand.Rand) ID {
	digits := make([]byte, p.D)
	for i := range digits {
		digits[i] = byte(r.Intn(p.B))
	}
	return ID{digits: string(digits)}
}

// FromName hashes an arbitrary name (e.g. a URL or host:port) into the ID
// space using SHA-1, the scheme the paper suggests for assigning IDs.
// Hash bits are consumed per digit by rejection-free modular reduction;
// for power-of-two bases the mapping is exactly uniform.
func FromName(p Params, name string) ID {
	sum := sha1.Sum([]byte(name))
	digits := make([]byte, p.D)
	// Re-hash with a counter whenever the 20-byte block is exhausted so
	// arbitrarily large D is supported.
	block := sum[:]
	next := 0
	round := 0
	for i := range digits {
		if next >= len(block) {
			round++
			s := sha1.Sum([]byte(fmt.Sprintf("%s#%d", name, round)))
			block = s[:]
			next = 0
		}
		digits[i] = block[next] % byte(p.B)
		next++
	}
	return ID{digits: string(digits)}
}
