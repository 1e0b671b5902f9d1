package trace_test

import (
	"math"
	"testing"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
	"hypercube/internal/trace"
	"hypercube/internal/wire"
)

var (
	someTrace = trace.TraceID{0: 0x01, 15: 0xfe}
	someSpan  = trace.SpanID{0: 0x02, 7: 0xfd}
)

// A context is live when its trace ID is non-zero, and a live context
// must name a span. The wire codec is where that rule is enforced
// against peers, so the two must agree: the decoder accepts a traced
// record exactly when the context it carries is sampled with a span.
func TestContextValidityMatchesWireTrailer(t *testing.T) {
	p := id.Params{B: 16, D: 3}
	env := msg.Envelope{
		From:  table.Ref{ID: id.MustParse(p, "a11"), Addr: "a:1"},
		To:    table.Ref{ID: id.MustParse(p, "b20"), Addr: "b:2"},
		Msg:   msg.JoinWait{},
		Trace: trace.Context{Trace: someTrace, Span: someSpan},
	}
	good, err := wire.EncodePayload(p, env)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.NewDeterministicGen(7)
	tracer := trace.NewTracer(gen, 1)
	root := tracer.Root()
	cases := []struct {
		name    string
		ctx     trace.Context
		sampled bool
	}{
		{"zero", trace.Context{}, false},
		{"span without trace", trace.Context{Span: someSpan}, false},
		{"trace without span", trace.Context{Trace: someTrace}, true},
		{"trace and span", trace.Context{Trace: someTrace, Span: someSpan}, true},
		{"tracer root", root, true},
		{"tracer child", tracer.Child(root), true},
	}
	for _, tc := range cases {
		if got := tc.ctx.Sampled(); got != tc.sampled {
			t.Errorf("%s: Sampled() = %v, want %v", tc.name, got, tc.sampled)
		}
		// Overwrite the record's context (trace ID, span ID — after the
		// version, count, body length and traced kind bytes) with this
		// context.
		payload := append([]byte(nil), good...)
		ctx := payload[4:]
		copy(ctx, tc.ctx.Trace[:])
		copy(ctx[len(tc.ctx.Trace):], tc.ctx.Span[:])
		back, err := wire.DecodeOne(p, payload)
		valid := tc.ctx.Sampled() && !tc.ctx.Span.IsZero()
		if (err == nil) != valid {
			t.Errorf("%s: wire decode error %v, but context valid = %v", tc.name, err, valid)
		}
		if err == nil && back.Trace != tc.ctx {
			t.Errorf("%s: context changed on the wire: %+v", tc.name, back.Trace)
		}
	}
}

// Trace and span IDs render as fixed-width lowercase hex, the form
// trace files and the admin surface carry.
func TestIDString(t *testing.T) {
	for _, tc := range []struct{ got, want string }{
		{trace.TraceID{}.String(), "00000000000000000000000000000000"},
		{someTrace.String(), "010000000000000000000000000000fe"},
		{trace.SpanID{}.String(), "0000000000000000"},
		{someSpan.String(), "02000000000000fd"},
	} {
		if tc.got != tc.want {
			t.Errorf("ID renders as %q, want %q", tc.got, tc.want)
		}
	}
	gen := trace.NewDeterministicGen(3)
	for _, x := range []trace.TraceID{gen.TraceID(), trace.NewRandomGen().TraceID()} {
		if s := x.String(); len(s) != 32 {
			t.Errorf("trace ID renders as %q, want 32 hex digits", s)
		}
	}
	for _, x := range []trace.SpanID{gen.SpanID(), trace.NewRandomGen().SpanID()} {
		if s := x.String(); len(s) != 16 {
			t.Errorf("span ID renders as %q, want 16 hex digits", s)
		}
	}
}

// Head sampling over a seeded ID stream: never at 0, always at 1, and at
// 0.25 within ±0.02 of the rate over 4000 roots (the stream is
// deterministic, so the bound cannot flake; binomial σ is 0.007). Rates
// outside [0,1] clamp, NaN samples nothing, and a nil tracer samples
// nothing.
func TestHeadSamplingRates(t *testing.T) {
	const roots = 4000
	cases := []struct {
		rate     float64
		min, max int
	}{
		{0, 0, 0},
		{-1, 0, 0},
		{1, roots, roots},
		{2, roots, roots},
		{math.NaN(), 0, 0},
		{0.25, roots * 23 / 100, roots * 27 / 100},
	}
	for _, tc := range cases {
		tracer := trace.NewTracer(trace.NewDeterministicGen(11), tc.rate)
		sampled := 0
		for i := 0; i < roots; i++ {
			c := tracer.Root()
			if !c.Sampled() {
				if c != (trace.Context{}) {
					t.Fatalf("rate %v: unsampled root is not the zero context: %+v", tc.rate, c)
				}
				continue
			}
			if c.Span.IsZero() {
				t.Fatalf("rate %v: sampled root has no span", tc.rate)
			}
			sampled++
		}
		if sampled < tc.min || sampled > tc.max {
			t.Errorf("rate %v: %d of %d roots sampled, want %d..%d", tc.rate, sampled, roots, tc.min, tc.max)
		}
	}
	var off *trace.Tracer
	if c := off.Root(); c != (trace.Context{}) {
		t.Errorf("nil tracer sampled a root: %+v", c)
	}
}

func TestChildKeepsTraceChangesSpan(t *testing.T) {
	tracer := trace.NewTracer(trace.NewDeterministicGen(5), 1)
	root := tracer.Root()
	seen := map[trace.SpanID]bool{root.Span: true}
	parent := root
	for i := 0; i < 1000; i++ {
		child := tracer.Child(parent)
		if child.Trace != root.Trace {
			t.Fatalf("hop %d left the trace: %v, want %v", i, child.Trace, root.Trace)
		}
		if child.Span.IsZero() || seen[child.Span] {
			t.Fatalf("hop %d reused or zeroed its span: %v", i, child.Span)
		}
		seen[child.Span] = true
		parent = child
	}
	if c := tracer.Child(trace.Context{}); c != (trace.Context{}) {
		t.Errorf("child of the zero context is live: %+v", c)
	}
	var off *trace.Tracer
	if c := off.Child(root); c != (trace.Context{}) {
		t.Errorf("nil tracer minted a span: %+v", c)
	}
	// Same seed, same IDs: what keeps simulator traces reproducible.
	again := trace.NewTracer(trace.NewDeterministicGen(5), 1).Root()
	if again != root {
		t.Errorf("deterministic gen diverged: %+v vs %+v", again, root)
	}
	if other := trace.NewTracer(trace.NewDeterministicGen(6), 1).Root(); other == root {
		t.Error("different seeds produced the same root")
	}
}
