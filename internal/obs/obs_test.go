package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/trace"
)

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	want := []Event{
		{T: time.Second, Node: "0123", Kind: KindJoinStart, Peer: pid("4567")},
		{T: 2 * time.Second, Node: "0123", Kind: KindStatus, Detail: "copying"},
		{T: 3 * time.Second, Node: "0123", Kind: KindSend, Peer: pid("4567"), Msg: "CpRstMsg", Seq: 7, N: 2},
	}
	for _, e := range want {
		s.Emit(e)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := s.Emitted(); got != len(want) {
		t.Fatalf("emitted = %d, want %d", got, len(want))
	}
	var got []Event
	if err := ScanJSONL(&buf, func(e Event) { got = append(got, e) }); err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// pid reads a printed peer ID of no particular space, as a trace does.
func pid(s string) id.ID {
	x, err := id.ParsePrinted(s)
	if err != nil {
		panic(err)
	}
	return x
}

// TestJSONLEncodingPinned writes events with and without a peer, trace
// context and characters JSON escapes, and compares the bytes with
// testdata/events.golden, recorded when Peer was still a printed string:
// naming peers by ID must not move a byte of any trace. Each line must
// read back to the event that wrote it, its peer to the same ID.
func TestJSONLEncodingPinned(t *testing.T) {
	ctx := trace.Context{
		Trace: trace.TraceID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		Span:  trace.SpanID{0xa, 0xb, 0xc, 0xd, 0xe, 0xf, 0x10, 0x11},
	}
	p := id.Params{B: 36, D: 8}
	events := []Event{
		{T: 1500 * time.Millisecond, Node: "0325f07c", Kind: KindProbe, Peer: id.MustParse(p, "08e13867"), Seq: 1},
		{T: 2 * time.Second, Node: "0325f07c", Kind: KindStatus, Detail: "in_system"},
		Event{T: 3 * time.Second, Node: "0325f07c", Kind: KindSend, Peer: id.MustParse(p, "0000000z"), Msg: "CpRstMsg", N: 2}.Stamped(ctx, trace.SpanID{9, 9, 9, 9, 9, 9, 9, 9}),
		{Node: "0325f07c", Kind: KindGuardDrop, Peer: id.MustParse(p, "ffffffff"), Detail: "unknown message type <&>"},
		{Kind: KindAuditPurge, N: -3},
	}
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	for _, e := range events {
		s.Emit(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/events.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("JSONL bytes moved:\n got %s\nwant %s", buf.Bytes(), want)
	}
	var got []Event
	if err := ScanJSONL(bytes.NewReader(want), func(e Event) { got = append(got, e) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("read back %+v, want %+v", got, events)
	}

	// A trace written when a sender with no ID printed as "<null>"
	// still reads, that peer as the null ID.
	old := `{"t":0,"node":"0325f07c","kind":"guard_reject","peer":"<null>","msg":"PingMsg"}`
	got = nil
	if err := ScanJSONL(strings.NewReader(old), func(e Event) { got = append(got, e) }); err != nil {
		t.Fatal(err)
	}
	if want := (Event{Node: "0325f07c", Kind: KindGuardReject, Msg: "PingMsg"}); len(got) != 1 || got[0] != want {
		t.Fatalf("read back %+v, want %+v", got, want)
	}

	// A probe_ack carries its probe's round trip as rtt, in nanoseconds,
	// and reads back to it.
	ack := Event{T: 4 * time.Second, Node: "0325f07c", Kind: KindProbeAck, Peer: pid("08e13867"), Seq: 1, RTT: 2500 * time.Microsecond}
	line := `{"t":4000000000,"node":"0325f07c","kind":"probe_ack","peer":"08e13867","seq":1,"rtt":2500000}`
	buf.Reset()
	s = NewJSONL(&buf)
	s.Emit(ack)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != line+"\n" {
		t.Fatalf("probe_ack written as %s, want %s", buf.Bytes(), line)
	}
	got = nil
	if err := ScanJSONL(strings.NewReader(line), func(e Event) { got = append(got, e) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != ack {
		t.Fatalf("read back %+v, want %+v", got, ack)
	}
}

func TestReadJSONLBadLine(t *testing.T) {
	seen := 0
	err := ScanJSONL(strings.NewReader("{\"kind\":\"send\"}\n\nnot json\n"), func(Event) { seen++ })
	if err == nil || !strings.Contains(err.Error(), "line 3") || seen != 1 {
		t.Fatalf("want one event then a line-3 error, got %d events, %v", seen, err)
	}
}

func TestRingOverflowDrain(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Seq: uint64(i)})
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("len = %d, want 4", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	ev := r.Drain()
	if len(ev) != 4 {
		t.Fatalf("drained %d, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(6 + i); e.Seq != want {
			t.Errorf("drain[%d].Seq = %d, want %d (oldest-first)", i, e.Seq, want)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("ring not empty after drain")
	}
	if ev := r.Drain(); len(ev) != 0 {
		t.Fatalf("second drain returned %d events", len(ev))
	}
}

func TestNopNormalization(t *testing.T) {
	if !IsNop(nil) || !IsNop(Nop) {
		t.Fatal("nil and Nop must both be nop")
	}
	if IsNop(NewRing(1)) {
		t.Fatal("a real sink is not nop")
	}
	if Clocked(Nop, func() time.Duration { return 0 }) != nil {
		t.Fatal("Clocked(Nop) should collapse to nil")
	}
	if Tee(nil, Nop) != nil {
		t.Fatal("Tee of only nops should collapse to nil")
	}
	r := NewRing(1)
	if Tee(nil, r, Nop) != Sink(r) {
		t.Fatal("Tee with one live sink should return it directly")
	}
}

func TestClockedStamps(t *testing.T) {
	r := NewRing(8)
	now := 5 * time.Second
	c := Clocked(r, func() time.Duration { return now })
	c.Emit(Event{Node: "x", Kind: KindSend})
	now = 9 * time.Second
	c.Emit(Event{Node: "x", Kind: KindRecv})
	ev := r.Drain()
	if ev[0].T != 5*time.Second || ev[1].T != 9*time.Second {
		t.Fatalf("stamps = %v, %v", ev[0].T, ev[1].T)
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("test_by_type_total", "a vec", "type")
	v.With("b").Inc()
	v.With("a").Inc()
	v.With("a").Inc()
	reg.Collect(func(w io.Writer) {
		WriteStruct(w, "test", struct {
			UptimeSeconds float64 `metric:"gauge"`
		}{42})
	})
	h := reg.Histogram("test_latency_seconds", "a histogram", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99)

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}
	body := buf.String()
	for _, want := range []string{
		"# HELP test_by_type_total a vec",
		"# TYPE test_by_type_total counter",
		"test_by_type_total{type=\"a\"} 2",
		"test_by_type_total{type=\"b\"} 1",
		"# TYPE test_uptime_seconds gauge",
		"test_uptime_seconds 42",
		"# HELP test_latency_seconds a histogram",
		"# TYPE test_latency_seconds histogram",
		"test_latency_seconds_bucket{le=\"0.1\"} 1",
		"test_latency_seconds_bucket{le=\"1\"} 2",
		"test_latency_seconds_bucket{le=\"10\"} 2",
		"test_latency_seconds_bucket{le=\"+Inf\"} 3",
		"test_latency_seconds_sum 99.55",
		"test_latency_seconds_count 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
	// Label values are sorted, so scrapes are deterministic.
	if strings.Index(body, `type="a"`) > strings.Index(body, `type="b"`) {
		t.Error("vec label values not sorted")
	}
}

// TestWriteStruct pins the derived exporter's rules: name from the field
// path, counter unless tagged gauge, bools as gauges, embedded structs
// flattened, nil sections and non-numbers left out.
func TestWriteStruct(t *testing.T) {
	type inner struct {
		PushesSent int
		ViewSize   int `metric:"gauge"`
	}
	type Embedded struct{ BytesSent int }
	type stats struct {
		ID string
		Embedded
		UptimeSeconds float64 `metric:"gauge"`
		Partitioned   bool
		RTT           *inner
		AntiEntropy   *inner
		Inbound       struct{ DecodeErrors int64 }
		Queues        map[string]int
		PerType       [3]int
		hidden        int
	}
	var buf bytes.Buffer
	WriteStruct(&buf, "hc", &stats{
		ID: "abc", Embedded: Embedded{7}, UptimeSeconds: 1.5, Partitioned: true,
		RTT: &inner{PushesSent: 2, ViewSize: 3}, Queues: map[string]int{"x": 1}, hidden: 9,
	})
	want := `# TYPE hc_bytes_sent_total counter
hc_bytes_sent_total 7
# TYPE hc_uptime_seconds gauge
hc_uptime_seconds 1.5
# TYPE hc_partitioned gauge
hc_partitioned 1
# TYPE hc_rtt_pushes_sent_total counter
hc_rtt_pushes_sent_total 2
# TYPE hc_rtt_view_size gauge
hc_rtt_view_size 3
# TYPE hc_inbound_decode_errors_total counter
hc_inbound_decode_errors_total 0
`
	if got := buf.String(); got != want {
		t.Errorf("WriteStruct =\n%s\nwant\n%s", got, want)
	}
}

// TestAddStruct pins the fleet-total rules: every number on WriteStruct's
// walk sums, gauges included, through nested, embedded and pointed-to
// structs; a pointer nil on either side is left out, and what is not a
// number keeps the destination's value.
func TestAddStruct(t *testing.T) {
	type inner struct {
		PushesSent int
		ViewSize   int `metric:"gauge"`
	}
	type Embedded struct{ BytesSent int }
	type stats struct {
		ID string
		Embedded
		Uptime      float64
		Marked      uint32
		Partitioned bool
		RTT         *inner
		AntiEntropy *inner
		Inbound     struct{ DecodeErrors int64 }
		PerType     [2]int
		hidden      int
	}
	dst := stats{ID: "dst", Embedded: Embedded{1}, Uptime: 0.5, Marked: 2, RTT: &inner{3, 4},
		Inbound: struct{ DecodeErrors int64 }{5}, PerType: [2]int{6, 7}, hidden: 8}
	src := stats{ID: "src", Embedded: Embedded{10}, Uptime: 1, Marked: 20, Partitioned: true,
		RTT: &inner{30, 40}, AntiEntropy: &inner{50, 60},
		Inbound: struct{ DecodeErrors int64 }{70}, PerType: [2]int{80, 90}, hidden: 100}
	AddStruct(&dst, src)
	AddStruct(&dst, &src)
	want := stats{ID: "dst", Embedded: Embedded{21}, Uptime: 2.5, Marked: 42, RTT: &inner{63, 84},
		Inbound: struct{ DecodeErrors int64 }{145}, PerType: [2]int{6, 7}, hidden: 8}
	if !reflect.DeepEqual(dst, want) {
		t.Errorf("AddStruct twice = %+v (RTT %+v), want %+v (RTT %+v)", dst, *dst.RTT, want, *want.RTT)
	}
	// Summing names nothing: a fleet total costs no allocation.
	if n := testing.AllocsPerRun(100, func() { AddStruct(&dst, &src) }); n != 0 {
		t.Errorf("AddStruct allocates %v times per call, want 0", n)
	}

	defer func() {
		if recover() == nil {
			t.Error("AddStruct of a different struct type did not panic")
		}
	}()
	AddStruct(&dst, inner{})
}

func TestRegistryReregisterReturnsSame(t *testing.T) {
	reg := NewRegistry()
	a := reg.CounterVec("dup_total", "x", "kind")
	b := reg.CounterVec("dup_total", "x", "kind")
	if a != b {
		t.Fatal("re-registering the same counter family must return the original")
	}
	a.With("join").Inc()
	if b.With("join").Value() != 1 {
		t.Fatal("aliases out of sync")
	}
	h := reg.Histogram("dup_seconds", "x", LatencyBuckets())
	if reg.Histogram("dup_seconds", "x", LatencyBuckets()) != h {
		t.Fatal("re-registering the same histogram must return the original")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter family's name as a histogram did not panic")
		}
	}()
	reg.Histogram("dup_total", "x", LatencyBuckets())
}

// TestRegistryConcurrent hammers every instrument kind from concurrent
// goroutines while a scraper renders the registry; run under -race this
// is the registry's data-race proof.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("conc_by_type_total", "", "type")
	h := reg.Histogram("conc_hist", "", LatencyBuckets())

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := fmt.Sprintf("t%d", w%3)
			for i := 0; i < iters; i++ {
				v.With(label).Inc()
				v.With("all").Inc()
				h.Observe(float64(i) * 0.001)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			reg.WritePrometheus(&buf)
		}
	}()
	wg.Wait()
	<-done
	if got := v.With("all").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestAnalyzerJoinSpans(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	events := []Event{
		// Node A: clean join with all three phases.
		{T: ms(0), Node: "A", Kind: KindJoinStart, Peer: pid("g")},
		{T: ms(0), Node: "A", Kind: KindStatus, Detail: "copying"},
		{T: ms(10), Node: "A", Kind: KindStatus, Detail: "waiting"},
		{T: ms(30), Node: "A", Kind: KindStatus, Detail: "notifying"},
		{T: ms(70), Node: "A", Kind: KindStatus, Detail: "in_system"},
		// Node B: one restart, never completes.
		{T: ms(5), Node: "B", Kind: KindJoinStart, Peer: pid("g")},
		{T: ms(5), Node: "B", Kind: KindStatus, Detail: "copying"},
		{T: ms(50), Node: "B", Kind: KindJoinStart, Peer: pid("g"), N: 1},
		// Node G: seed, only ever in_system — not a join.
		{T: ms(0), Node: "G", Kind: KindStatus, Detail: "in_system"},
		// Traffic.
		{T: ms(2), Node: "A", Kind: KindSend, Peer: pid("g"), Msg: "CpRstMsg"},
		{T: ms(3), Node: "G", Kind: KindRecv, Peer: pid("a"), Msg: "CpRstMsg"},
		{T: ms(4), Node: "A", Kind: KindResend, Peer: pid("g"), Msg: "CpRstMsg", N: 1},
	}
	sum := Analyze(events)
	if sum.Events != len(events) {
		t.Fatalf("events = %d", sum.Events)
	}
	if len(sum.Joins) != 2 {
		t.Fatalf("joins = %d, want 2 (seed must not count)", len(sum.Joins))
	}
	a := sum.Joins[0]
	if a.Node != "A" || !a.Completed {
		t.Fatalf("first join = %+v", a)
	}
	if a.Total() != ms(70) {
		t.Errorf("A total = %v, want 70ms", a.Total())
	}
	if a.Copying != ms(10) || a.Waiting != ms(20) || a.Notifying != ms(40) {
		t.Errorf("A phases = %v/%v/%v, want 10ms/20ms/40ms", a.Copying, a.Waiting, a.Notifying)
	}
	b := sum.Joins[1]
	if b.Node != "B" || b.Completed || b.Restarts != 1 {
		t.Fatalf("second join = %+v", b)
	}
	if b.Total() != 0 {
		t.Errorf("incomplete join Total = %v, want 0", b.Total())
	}
	comp := sum.Completed()
	if len(comp) != 1 || comp[0].Node != "A" {
		t.Fatalf("completed = %+v", comp)
	}
	if sum.Sent["CpRstMsg"] != 1 || sum.Received["CpRstMsg"] != 1 || sum.Resends != 1 {
		t.Errorf("traffic counts wrong: %+v", sum)
	}
	if sum.Span != ms(70) {
		t.Errorf("span = %v", sum.Span)
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{4, 1, 3, 2, 5}
	if got, want := summarize(ds), (Stats{Count: 5, P50: 3, P90: 5, P99: 5, Max: 5}); got != want {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}
	if ds[0] != 4 {
		t.Error("summarize sorted its input in place")
	}
	if got := summarize(nil); got != (Stats{}) {
		t.Errorf("empty = %+v", got)
	}
	// Nearest rank on 1..200 in reverse: p50 is the 100th smallest.
	var big []time.Duration
	for i := 200; i >= 1; i-- {
		big = append(big, time.Duration(i))
	}
	if got, want := summarize(big), (Stats{Count: 200, P50: 100, P90: 180, P99: 198, Max: 200}); got != want {
		t.Errorf("summarize(1..200) = %+v, want %+v", got, want)
	}
}
