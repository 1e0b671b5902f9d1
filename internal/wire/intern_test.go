package wire

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
)

// cpRlyPayload encodes a CpRly whose table, under p, holds the first n
// cells in (level,digit) order, each occupant carrying the cell's desired
// suffix and an address of its own.
func cpRlyPayload(t *testing.T, p id.Params, n int) []byte {
	t.Helper()
	owner, err := id.FromDigits(p, make([]int, p.D))
	if err != nil {
		t.Fatal(err)
	}
	tbl := table.New(p, owner)
	for cell := 0; cell < n; cell++ {
		level, digit := cell/p.B, cell%p.B
		digits := make([]int, p.D)
		digits[level] = digit
		for i := level + 1; i < p.D; i++ {
			digits[i] = (cell + i) % p.B
		}
		x, err := id.FromDigits(p, digits)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Set(level, digit, table.Neighbor{ID: x, Addr: fmt.Sprintf("10.0.%d.%d:7000", level, digit), State: table.StateS})
	}
	from := table.Ref{ID: owner, Addr: "127.0.0.1:7001"}
	to := table.Ref{ID: id.MustParse(p, "11111111"), Addr: "127.0.0.1:7002"}
	payload, err := EncodePayload(p, msg.Envelope{From: from, To: to, Msg: msg.CpRly{Table: tbl.Snapshot()}})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// A node decodes the same names again and again; once they are interned,
// a table-carrying reply allocates the same whether it holds 2 entries
// or all b·d of them.
func TestDecodeAllocsIndependentOfTableSize(t *testing.T) {
	p := id.Params{B: 16, D: 8}
	decodeAllocs := func(payload []byte) float64 {
		decode := func() {
			if _, err := DecodeOne(p, payload); err != nil {
				t.Fatal(err)
			}
		}
		decode() // the first decode interns the names
		return testing.AllocsPerRun(100, decode)
	}
	small := decodeAllocs(cpRlyPayload(t, p, 2))
	full := decodeAllocs(cpRlyPayload(t, p, p.B*p.D))
	if full != small {
		t.Fatalf("decoding a %d-entry table allocates %v times, a 2-entry one %v: want equal", p.B*p.D, full, small)
	}
}

// TestDecodeControlAllocsLikeInSysNoti: an in-range CpRst, RvNghNoti or
// RvNghNotiRly decodes into the space's shared box, so its record costs
// no more allocations than a payload-free InSysNoti between the same
// refs.
func TestDecodeControlAllocsLikeInSysNoti(t *testing.T) {
	from, to := tref(t, "21233", "127.0.0.1:7001"), tref(t, "33121", "127.0.0.1:7002")
	decodeAllocs := func(m msg.Message) float64 {
		payload, err := EncodePayload(tp, msg.Envelope{From: from, To: to, Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		decode := func() {
			back, err := DecodeOne(tp, payload)
			if err != nil || back.Msg != m {
				t.Fatalf("%v decoded as %#v, %v", m.Type(), back.Msg, err)
			}
		}
		decode() // the first decode interns the names
		return testing.AllocsPerRun(100, decode)
	}
	base := decodeAllocs(msg.InSysNoti{})
	for _, m := range []msg.Message{
		msg.CpRst{Level: tp.D - 1},
		msg.RvNghNoti{Level: 2, Digit: tp.B - 1, State: table.StateT},
		msg.RvNghNotiRly{Level: 0, Digit: 3, State: table.StateS},
	} {
		if got := decodeAllocs(m); got > base {
			t.Errorf("decoding %v allocates %v times, InSysNoti %v", m.Type(), got, base)
		}
	}
}

// failedNoti is a decodable envelope naming one address of its own.
func failedNoti(t *testing.T, i int) msg.Envelope {
	return msg.Envelope{
		From: tref(t, "21233", "127.0.0.1:7001"),
		To:   tref(t, "33121", "127.0.0.1:7002"),
		Msg:  msg.FailedNoti{Failed: tref(t, "12345", fmt.Sprintf("10.%d.%d.%d:7000", i>>16, i>>8&0xff, i&0xff))},
	}
}

// roundTrip encodes and decodes env, reporting a decode that does not
// reproduce it.
func roundTrip(t *testing.T, env msg.Envelope) {
	payload, err := EncodePayload(tp, env)
	if err != nil {
		t.Error(err)
		return
	}
	back, err := DecodeOne(tp, payload)
	if err != nil {
		t.Error(err)
		return
	}
	if back.From != env.From || back.To != env.To || !reflect.DeepEqual(back.Msg, env.Msg) {
		t.Errorf("decoded %+v, want %+v", back, env)
	}
}

// A peer naming ever new addresses never grows the table past its cap,
// and every name still decodes to its input across the restarts.
func TestInternTableBounded(t *testing.T) {
	for i := 0; i < internCap+internCap/2; i++ {
		roundTrip(t, failedNoti(t, i))
		interned.Lock()
		n := len(interned.m)
		interned.Unlock()
		if n > internCap {
			t.Fatalf("after %d distinct addresses the table holds %d names, cap %d", i+1, n, internCap)
		}
	}
}

// Decoders on many connections share the table; run under -race.
func TestInternConcurrentDecodes(t *testing.T) {
	envs := sampleEnvelopes(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < internCap/4; i++ {
				roundTrip(t, envs[i%len(envs)])
				roundTrip(t, failedNoti(t, g<<16|i))
			}
		}(g)
	}
	wg.Wait()
}
