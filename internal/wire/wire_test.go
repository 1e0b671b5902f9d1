package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
)

var update = flag.Bool("update", false, "rewrite the golden vectors in testdata from the current encoder")

var tp = id.Params{B: 8, D: 5}

func tref(t *testing.T, ids, addr string) table.Ref {
	t.Helper()
	return table.Ref{ID: id.MustParse(tp, ids), Addr: addr}
}

// sampleTable builds a deterministic snapshot whose entries carry the
// coordinates' desired suffixes, as a real protocol table would.
func sampleTable(t *testing.T) table.Snapshot {
	t.Helper()
	owner := id.MustParse(tp, "21233")
	tbl := table.New(tp, owner)
	fill := func(level, digit int, seed string, state table.State) {
		suf := tbl.DesiredSuffix(level, digit)
		digits := make([]int, tp.D)
		for i := range digits {
			digits[i] = int(seed[i%len(seed)]-'0') % tp.B
		}
		for i := 0; i < suf.Len(); i++ {
			digits[i] = suf.Digit(i)
		}
		x, err := id.FromDigits(tp, digits)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Set(level, digit, table.Neighbor{ID: x, Addr: fmt.Sprintf("10.0.0.%d:%d", level, 7000+digit), State: state})
	}
	fill(0, 1, "4567", table.StateS)
	fill(1, 0, "1212", table.StateT)
	fill(2, 7, "7654", table.StateS)
	fill(4, 3, "3030", table.StateT)
	return tbl.Snapshot()
}

func sampleFill(t *testing.T) table.BitVector {
	t.Helper()
	v := table.NewBitVector(tp.D * tp.B)
	for _, i := range []int{0, 1, 9, 23, 39} {
		v.Set(i)
	}
	return v
}

// sampleEnvelopes is every input the round-trip, trace and fuzz-seed
// tests run over: the frozen golden set plus shapes added since.
func sampleEnvelopes(t *testing.T) []msg.Envelope {
	t.Helper()
	envs := goldenEnvelopes(t)
	from, to := envs[0].From, envs[0].To
	return append(envs,
		// A direct probe: Origin set, Target the zero ref.
		msg.Envelope{From: from, To: to, Msg: &msg.Ping{Seq: 42, Origin: from}},
	)
}

// goldenEnvelopes returns one representative envelope per message kind,
// exercising every field shape (refs, tables, fill vectors, suffixes,
// optional IDs, flags). testdata/golden*.txt hold one vector per entry,
// in this order, so the list only ever changes together with them.
func goldenEnvelopes(t *testing.T) []msg.Envelope {
	t.Helper()
	from := tref(t, "21233", "127.0.0.1:7001")
	to := tref(t, "33121", "127.0.0.1:7002")
	u := tref(t, "12345", "127.0.0.1:7003")
	snap := sampleTable(t)
	fill := sampleFill(t)
	found := table.Neighbor{ID: id.MustParse(tp, "54321"), Addr: "127.0.0.1:7004", State: table.StateS}
	envs := []msg.Envelope{
		{From: from, To: to, Msg: msg.CpRst{Level: 3}},
		{From: from, To: to, Msg: msg.CpRly{Table: snap}},
		{From: from, To: to, Msg: msg.JoinWait{}},
		{From: from, To: to, Msg: msg.JoinWaitRly{R: msg.Negative, U: u, Table: snap}},
		{From: from, To: to, Msg: msg.JoinNoti{Table: snap, FillVector: fill, NotiLevel: 2}},
		{From: from, To: to, Msg: msg.JoinNotiRly{R: msg.Positive, F: true, Table: snap}},
		{From: from, To: to, Msg: msg.InSysNoti{}},
		{From: from, To: to, Msg: msg.SpeNoti{X: u, Y: from}},
		{From: from, To: to, Msg: msg.SpeNotiRly{X: u, Y: from}},
		{From: from, To: to, Msg: msg.RvNghNoti{Level: 1, Digit: 3, State: table.StateT}},
		{From: from, To: to, Msg: msg.RvNghNotiRly{Level: 4, Digit: 7, State: table.StateS}},
		{From: from, To: to, Msg: msg.Leave{Table: snap}},
		{From: from, To: to, Msg: msg.LeaveRly{}},
		{From: from, To: to, Msg: msg.Find{Want: id.MustParseSuffix(tp, "233"), Origin: u, Avoid: id.MustParse(tp, "54321")}},
		{From: from, To: to, Msg: msg.Find{Want: id.MustParseSuffix(tp, "3"), Origin: u}},
		{From: from, To: to, Msg: msg.FindRly{Want: id.MustParseSuffix(tp, "233"), Found: found}},
		{From: from, To: to, Msg: msg.FindRly{Want: id.MustParseSuffix(tp, "233"), Blocked: true}},
		{From: from, To: to, Msg: &msg.Ping{Seq: 123456, Origin: from, Target: to}},
		{From: from, To: to, Msg: msg.Pong{Seq: 123456}},
		{From: from, To: to, Msg: msg.FailedNoti{Failed: u}},
		{From: from, To: to, Msg: msg.SyncReq{Fill: fill}},
		{From: from, To: to, Msg: msg.SyncRly{Table: snap, Fill: fill}},
		{From: from, To: to, Msg: msg.SyncPush{Table: snap}},
		{From: from, To: to, Msg: msg.SamplePush{}},
		{From: from, To: to, Msg: msg.SamplePullReq{}},
		{From: from, To: to, Msg: msg.SamplePullRly{Refs: ascendingRefs(u, from, to)}},
		{From: from, To: to, Msg: msg.SamplePullRly{}},
		// Edge shapes: zero refs, empty table, no fill, empty suffix.
		{From: from, To: to, Msg: msg.JoinWaitRly{R: msg.Positive}},
		{From: from, To: to, Msg: msg.JoinNoti{Table: snap, NotiLevel: 0}},
		{From: from, To: to, Msg: msg.SyncReq{}},
		{From: from, To: to, Msg: msg.Find{Want: id.EmptySuffix, Origin: u}},
	}
	return envs
}

// ascendingRefs sorts refs into the strictly ascending ID order the
// SamplePullRly canonical form requires.
func ascendingRefs(refs ...table.Ref) []table.Ref {
	out := append([]table.Ref(nil), refs...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out
}

// Every sample must survive encode → decode unchanged, and re-encoding
// the decoded envelope must be byte-identical (canonical encoding).
func TestRoundTripAllKinds(t *testing.T) {
	for i, env := range sampleEnvelopes(t) {
		payload, err := EncodePayload(tp, env)
		if err != nil {
			t.Fatalf("sample %d (%v): encode: %v", i, env.Msg.Type(), err)
		}
		back, err := DecodeOne(tp, payload)
		if err != nil {
			t.Fatalf("sample %d (%v): decode: %v", i, env.Msg.Type(), err)
		}
		if back.From != env.From || back.To != env.To {
			t.Fatalf("sample %d (%v): refs diverged", i, env.Msg.Type())
		}
		if back.Msg.Type() != env.Msg.Type() {
			t.Fatalf("sample %d: kind %v became %v", i, env.Msg.Type(), back.Msg.Type())
		}
		re, err := EncodePayload(tp, back)
		if err != nil {
			t.Fatalf("sample %d (%v): re-encode: %v", i, env.Msg.Type(), err)
		}
		if !bytes.Equal(re, payload) {
			t.Fatalf("sample %d (%v): re-encode not byte-identical\n got %x\nwant %x",
				i, env.Msg.Type(), re, payload)
		}
		assertEnvelopeEqual(t, env, back)
	}
}

// assertEnvelopeEqual compares envelopes through their observable
// protocol content (wire normalization drops nothing the machine reads).
func assertEnvelopeEqual(t *testing.T, want, got msg.Envelope) {
	t.Helper()
	normalize := func(e msg.Envelope) string {
		return fmt.Sprintf("%#v", e.Msg)
	}
	// Snapshots and bit vectors hold unexported fields; DeepEqual covers
	// them, with the %#v form as a readable fallback for the diff.
	if !reflect.DeepEqual(want.Msg, got.Msg) {
		t.Fatalf("message diverged\n got %s\nwant %s", normalize(got), normalize(want))
	}
}

func TestMultiEnvelopePayload(t *testing.T) {
	envs := sampleEnvelopes(t)[:5]
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
	if len(got) != len(envs) {
		t.Fatalf("decoded %d envelopes, want %d", len(got), len(envs))
	}
	for i := range envs {
		assertEnvelopeEqual(t, envs[i], got[i])
	}
}

func TestDecodeRejectsHostile(t *testing.T) {
	good, err := EncodePayload(tp, sampleEnvelopes(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return f(b)
	}
	cases := map[string][]byte{
		"empty":           {},
		"short header":    {Version},
		"bad version":     mut(func(b []byte) []byte { b[0] = 99; return b }),
		"zero count":      mut(func(b []byte) []byte { b[1] = 0; return b }),
		"over count":      mut(func(b []byte) []byte { b[1] = 200; return b }),
		"count too high":  mut(func(b []byte) []byte { b[1] = 2; return b }),
		"trailing bytes":  append(append([]byte(nil), good...), 0xde, 0xad),
		"truncated":       good[:len(good)-3],
		"unknown kind":    mut(func(b []byte) []byte { b[3] = 250; return b }),
		"kind zero":       mut(func(b []byte) []byte { b[3] = 0; return b }),
		"bad presence":    mut(func(b []byte) []byte { b[4] = 7; return b }),
		"digit over base": mut(func(b []byte) []byte { b[5] = 9; return b }),
	}
	// Every proper prefix of every golden payload is a truncation, and so
	// is every proper prefix of its record's body under a length prefix
	// that agrees: the decoder must stop at its first short read wherever
	// that read falls, outside the record or inside it.
	for _, file := range []string{"golden.txt", "golden_traced.txt"} {
		for _, line := range goldenLines(t, file) {
			fields := strings.Fields(line)
			payload, err := hex.DecodeString(fields[len(fields)-1])
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			for n := range payload {
				cases[fmt.Sprintf("%s %s[:%d]", file, fields[0], n)] = payload[:n]
			}
			bodyLen, w := binary.Uvarint(payload[headerLen:])
			body := payload[headerLen+w:]
			for n := 0; n < int(bodyLen); n++ {
				cut := AppendHeader(nil)
				SetCount(cut, 1)
				cut = append(binary.AppendUvarint(cut, uint64(n)), body[:n]...)
				cases[fmt.Sprintf("%s %s body[:%d]", file, fields[0], n)] = cut
			}
		}
	}
	for name, data := range cases {
		if _, err := DecodeOne(tp, data); err == nil {
			t.Errorf("%s: accepted", name)
		} else if name != "callback" && !IsMalformed(err) {
			t.Errorf("%s: error not marked malformed: %v", name, err)
		}
	}
}

// The boundary classes a decoder most easily lets through must be
// structurally impossible or rejected: under-length fill words, phantom
// padding bits, out-of-order or duplicate table entries, oversized
// addresses, and invalid Found state/addr on FindRly.
func TestDecodeRejectsCodecBoundaryClasses(t *testing.T) {
	from := tref(t, "21233", "a")
	to := tref(t, "33121", "b")

	// Truncated fill bitmap: encode a SyncReq, then chop one word off the
	// vector by hand-editing the payload length fields is fiddly — build
	// the hostile payload directly instead.
	hostileFill := AppendHeader(nil)
	body := []byte{byte(msg.TSyncReq)}
	body = appendRawRef(body, from)
	body = appendRawRef(body, to)
	body = append(body, 40)                 // 40 bits claimed...
	body = append(body, make([]byte, 4)...) // ...but only half a word follows
	hostileFill = appendRecord(hostileFill, body)
	SetCount(hostileFill, 1)
	if _, err := DecodeOne(tp, hostileFill); err == nil {
		t.Error("under-length fill vector accepted")
	}

	// Padding bits beyond the declared length must be rejected.
	padded := AppendHeader(nil)
	body = []byte{byte(msg.TSyncReq)}
	body = appendRawRef(body, from)
	body = appendRawRef(body, to)
	body = append(body, 40) // 40 bits -> one word, top 24 bits must be clear
	word := make([]byte, 8)
	word[7] = 0x80
	body = append(body, word...)
	padded = appendRecord(padded, body)
	SetCount(padded, 1)
	if _, err := DecodeOne(tp, padded); err == nil {
		t.Error("fill vector with phantom padding bits accepted")
	}

	// One word more than the declared length needs is trailing garbage in
	// the record body.
	overFill := AppendHeader(nil)
	body = []byte{byte(msg.TSyncReq)}
	body = appendRawRef(body, from)
	body = appendRawRef(body, to)
	body = append(body, 40)                  // 40 bits -> one word...
	body = append(body, make([]byte, 16)...) // ...but two follow
	overFill = appendRecord(overFill, body)
	SetCount(overFill, 1)
	if _, err := DecodeOne(tp, overFill); err == nil {
		t.Error("over-length fill vector accepted")
	}

	// FindRly Found with an invalid state byte.
	foundBad := AppendHeader(nil)
	body = []byte{byte(msg.TFindRly)}
	body = appendRawRef(body, from)
	body = appendRawRef(body, to)
	body = append(body, 0)             // empty suffix
	body = append(body, 0)             // not blocked
	body = append(body, 1)             // found present
	body = append(body, 1, 2, 3, 4, 5) // digits
	body = append(body, 1, 'x')        // addr
	body = append(body, 9)             // state 9: invalid
	foundBad = appendRecord(foundBad, body)
	SetCount(foundBad, 1)
	if _, err := DecodeOne(tp, foundBad); err == nil {
		t.Error("FindRly Found with invalid state accepted")
	}

	// Oversized Found address.
	foundAddr := AppendHeader(nil)
	body = []byte{byte(msg.TFindRly)}
	body = appendRawRef(body, from)
	body = appendRawRef(body, to)
	body = append(body, 0, 0, 1)
	body = append(body, 1, 2, 3, 4, 5)
	body = append(body, 0x82, 0x04) // addrLen 514 > table.MaxAddr
	body = append(body, make([]byte, 514)...)
	body = append(body, byte(table.StateS))
	foundAddr = appendRecord(foundAddr, body)
	SetCount(foundAddr, 1)
	if _, err := DecodeOne(tp, foundAddr); err == nil {
		t.Error("FindRly Found with oversized address accepted")
	}

	// A table owner outside the ID space (digit 9 under base 8).
	badOwner := []byte{byte(msg.TCpRly)}
	badOwner = appendRawRef(badOwner, from)
	badOwner = appendRawRef(badOwner, to)
	badOwner = append(badOwner, 1)             // table present
	badOwner = append(badOwner, 9, 9, 9, 9, 9) // owner digits
	badOwner = append(badOwner, 0, 0, 0)       // empty level range, no entries
	ownerPayload := appendRecord(AppendHeader(nil), badOwner)
	SetCount(ownerPayload, 1)
	if _, err := DecodeOne(tp, ownerPayload); err == nil {
		t.Error("table owner outside the ID space accepted")
	}

	// Out-of-order table entries break the canonical ordering rule.
	snapBody := []byte{byte(msg.TCpRly)}
	snapBody = appendRawRef(snapBody, from)
	snapBody = appendRawRef(snapBody, to)
	snapBody = append(snapBody, 1)             // table present
	snapBody = append(snapBody, 3, 3, 2, 1, 2) // owner digits ("21233" reversed)
	snapBody = append(snapBody, 0, 5)          // lo=0, hi=4
	snapBody = append(snapBody, 2)             // two entries
	entry := func(level, digit byte) []byte {
		e := []byte{level, digit}
		e = append(e, 1, 2, 3, 4, 5)
		e = append(e, 1, 'x')
		e = append(e, byte(table.StateS))
		return e
	}
	snapBody = append(snapBody, entry(2, 0)...)
	snapBody = append(snapBody, entry(1, 0)...) // descending: hostile
	outOfOrder := appendRecord(AppendHeader(nil), snapBody)
	SetCount(outOfOrder, 1)
	if _, err := DecodeOne(tp, outOfOrder); err == nil {
		t.Error("out-of-order table entries accepted")
	}

	// Duplicate coordinates are likewise non-canonical.
	dupBody := []byte{byte(msg.TCpRly)}
	dupBody = appendRawRef(dupBody, from)
	dupBody = appendRawRef(dupBody, to)
	dupBody = append(dupBody, 1)
	dupBody = append(dupBody, 3, 3, 2, 1, 2)
	dupBody = append(dupBody, 0, 5)
	dupBody = append(dupBody, 2)
	dupBody = append(dupBody, entry(1, 0)...)
	dupBody = append(dupBody, entry(1, 0)...)
	dup := appendRecord(AppendHeader(nil), dupBody)
	SetCount(dup, 1)
	if _, err := DecodeOne(tp, dup); err == nil {
		t.Error("duplicate table entries accepted")
	}

	// Non-minimal varints re-encode shorter, so they must be rejected.
	nonMinimal := AppendHeader(nil)
	body = []byte{byte(msg.TPong)}
	body = appendRawRef(body, from)
	body = appendRawRef(body, to)
	body = append(body, 0x80, 0x00) // Seq 0 encoded in two bytes
	nonMinimal = appendRecord(nonMinimal, body)
	SetCount(nonMinimal, 1)
	if _, err := DecodeOne(tp, nonMinimal); err == nil {
		t.Error("non-minimal varint accepted")
	}
}

// appendRawRef hand-encodes a present ref (test helper mirroring the
// codec layout so hostile payloads can be assembled byte by byte).
func appendRawRef(dst []byte, r table.Ref) []byte {
	dst = append(dst, 1)
	dst = r.ID.AppendRawDigits(dst)
	dst = append(dst, byte(len(r.Addr)))
	return append(dst, r.Addr...)
}

// appendRecord appends a record (length prefix + body) to a payload.
func appendRecord(dst, body []byte) []byte {
	dst = append(dst, byte(len(body)))
	return append(dst, body...)
}

// Encoding must refuse envelopes the protocol can never produce, and
// must leave dst untouched when it does.
func TestAppendEnvelopeRejectsUnencodable(t *testing.T) {
	from := tref(t, "21233", "a")
	to := tref(t, "33121", "b")
	long := strings.Repeat("x", table.MaxAddr+1)
	cases := []msg.Envelope{
		{From: table.Ref{ID: id.MustParse(id.Params{B: 8, D: 3}, "123"), Addr: "a"}, To: to, Msg: msg.JoinWait{}},
		{From: from, To: table.Ref{ID: to.ID, Addr: long}, Msg: msg.JoinWait{}},
		{From: from, To: to, Msg: msg.CpRst{Level: -1}},
		{From: from, To: to, Msg: msg.RvNghNoti{Level: 99, Digit: 0, State: table.StateT}},
		{From: from, To: to, Msg: msg.RvNghNoti{Level: 0, Digit: 0, State: 9}},
	}
	for i, env := range cases {
		dst := []byte{0xaa}
		out, err := AppendEnvelope(dst, tp, env)
		if err == nil {
			t.Errorf("case %d: unencodable envelope accepted", i)
		}
		if !bytes.Equal(out, dst) {
			t.Errorf("case %d: dst mutated on error", i)
		}
	}
}

// Golden vectors: any layout change must be deliberate. Regenerate with
//
//	go test ./internal/wire -run TestGoldenVectors -update
func TestGoldenVectors(t *testing.T) {
	envs := goldenEnvelopes(t)
	checkGolden(t, "golden.txt", "Golden wire vectors", "TestGoldenVectors", envs, func(i int, back msg.Envelope) {
		if back.Trace.Sampled() {
			t.Fatalf("untraced golden %v decoded with a context", envs[i].Msg.Type())
		}
		assertEnvelopeEqual(t, envs[i], back)
	})
}

// checkGolden compares the encoding of each envelope with its vector in
// testdata/<file>, one "<kind> <hex payload>" line each, in order, or
// rewrites the file under -update. check sees each golden decoded again.
func checkGolden(t *testing.T, file, title, test string, envs []msg.Envelope, check func(i int, back msg.Envelope)) {
	t.Helper()
	path := filepath.Join("testdata", file)
	payloads := make([][]byte, len(envs))
	for i, env := range envs {
		var err error
		if payloads[i], err = EncodePayload(tp, env); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		var sb strings.Builder
		fmt.Fprintf(&sb, "# %s: <kind> <hex payload>, one per sample envelope.\n", title)
		fmt.Fprintf(&sb, "# Regenerate with: go test ./internal/wire -run %s -update\n", test)
		for i, env := range envs {
			fmt.Fprintf(&sb, "%s %s\n", env.Msg.Type(), hex.EncodeToString(payloads[i]))
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	lines := goldenLines(t, file)
	if len(lines) != len(envs) {
		t.Fatalf("%s has %d vectors, samples have %d (regenerate with -update)", file, len(lines), len(envs))
	}
	for i, env := range envs {
		fields := strings.Fields(lines[i])
		if len(fields) != 2 {
			t.Fatalf("%s line %d malformed: %q", file, i, lines[i])
		}
		want, err := hex.DecodeString(fields[1])
		if err != nil {
			t.Fatalf("%s line %d: %v", file, i, err)
		}
		if fields[0] != env.Msg.Type().String() {
			t.Fatalf("%s line %d is %s, sample is %v (regenerate with -update)", file, i, fields[0], env.Msg.Type())
		}
		if !bytes.Equal(payloads[i], want) {
			t.Fatalf("wire layout changed for %v\n got %x\nwant %x\nif deliberate, bump Version and regenerate with -update",
				env.Msg.Type(), payloads[i], want)
		}
		back, err := DecodeOne(tp, want)
		if err != nil {
			t.Fatalf("golden %v no longer decodes: %v", env.Msg.Type(), err)
		}
		check(i, back)
	}
}

// goldenLines returns the vector lines of testdata/<file>, comments and
// blank lines dropped.
func goldenLines(t *testing.T, file string) []string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", file))
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
	return lines
}

// The steady-state encode path must not allocate once the destination
// buffer has capacity.
func TestAppendEnvelopeZeroAlloc(t *testing.T) {
	env := msg.Envelope{
		From: tref(t, "21233", "127.0.0.1:7001"),
		To:   tref(t, "33121", "127.0.0.1:7002"),
		Msg:  msg.RvNghNoti{Level: 1, Digit: 3, State: table.StateT},
	}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		out := AppendHeader(buf[:0])
		out, err := AppendEnvelope(out, tp, env)
		if err != nil {
			t.Fatal(err)
		}
		SetCount(out, 1)
	})
	if allocs != 0 {
		t.Fatalf("encode path allocates %v times per envelope, want 0", allocs)
	}
}
