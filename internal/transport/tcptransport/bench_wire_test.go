package tcptransport

import (
	"testing"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
	"hypercube/internal/wire"
)

// Two transport-level costs the repository benchmark's wire.* probes do
// not report: decoding the steady-state small message, and assembling a
// coalesced frame. Run with `go test -bench . ./internal/transport/tcptransport`.

var benchParams = id.Params{B: 16, D: 8}

func benchRefs() (table.Ref, table.Ref) {
	return table.Ref{ID: id.MustParse(benchParams, "21233a0f"), Addr: "127.0.0.1:47001"},
		table.Ref{ID: id.MustParse(benchParams, "ff10cb21"), Addr: "127.0.0.1:47002"}
}

// benchSmallEnvelope is the steady-state shape: scalar fields only.
func benchSmallEnvelope() msg.Envelope {
	from, to := benchRefs()
	return msg.Envelope{From: from, To: to, Msg: msg.RvNghNoti{Level: 3, Digit: 11, State: table.StateS}}
}

func BenchmarkWireDecodeBinarySmall(b *testing.B) {
	payload, err := wire.EncodePayload(benchParams, benchSmallEnvelope())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeOne(benchParams, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(payload)), "wirebytes")
}

// BenchmarkFrameCoalesce packs 32 small envelopes into one frame the way
// deliverBatch does — header reservation, append, count patch, header
// stamp — measuring the per-flush cost of coalescing.
func BenchmarkFrameCoalesce(b *testing.B) {
	const batch = 32
	env := benchSmallEnvelope()
	buf := make([]byte, 0, 8192)
	var size int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf = append(buf, make([]byte, frameHeaderLen)...)
		buf = wire.AppendHeader(buf)
		var err error
		for j := 0; j < batch; j++ {
			if buf, err = wire.AppendEnvelope(buf, benchParams, env); err != nil {
				b.Fatal(err)
			}
		}
		wire.SetCount(buf[frameHeaderLen:], batch)
		if err := finishBinaryFrame(buf); err != nil {
			b.Fatal(err)
		}
		size = len(buf)
	}
	b.ReportMetric(float64(size)/batch, "wirebytes")
}
