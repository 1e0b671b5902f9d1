package overlay

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"hypercube/internal/obs"
)

// TestWaveTraceMatchesResult runs a join wave with a JSONL sink and
// checks the trace against the wave's own records: one completed join
// span per joiner, virtual-clock stamps, and the same trace schema the
// TCP runtime produces (so `trace report` works on either).
func TestWaveTraceMatchesResult(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	res, err := RunWave(WaveConfig{Params: p164, N: 40, M: 25, Seed: 7, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSNodes {
		t.Fatal("wave did not complete")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	a := obs.NewAnalyzer("")
	if err := obs.ScanJSONL(&buf, a.Feed); err != nil {
		t.Fatal(err)
	}
	sum := a.Report()
	if sum.Nodes != 40+25 {
		t.Errorf("trace nodes = %d, want 65 (every emitter, not only the joiners)", sum.Nodes)
	}
	completed := sum.Completed()
	if len(completed) != 25 {
		t.Fatalf("completed join spans = %d, want 25", len(completed))
	}
	if len(sum.Joins) != 25 {
		t.Fatalf("join spans = %d, want 25 (seeds must not count)", len(sum.Joins))
	}

	// Spans agree with the wave's own JoinRecords (same virtual clock).
	recEnd := make(map[string]time.Duration, len(res.Records))
	for _, rec := range res.Records {
		recEnd[rec.Ref.ID.String()] = rec.Ended
	}
	for _, span := range completed {
		want, ok := recEnd[span.Node]
		if !ok {
			t.Fatalf("span for unknown joiner %s", span.Node)
		}
		if span.End != want {
			t.Errorf("joiner %s: span end %v, record end %v", span.Node, span.End, want)
		}
		if span.Total() <= 0 {
			t.Errorf("joiner %s: non-positive total %v", span.Node, span.Total())
		}
		if span.Copying <= 0 {
			t.Errorf("joiner %s: no copying phase recorded", span.Node)
		}
	}

	// Send events must agree with the wave's per-type accounting: every
	// joiner sent at least one CpRstMsg and one JoinWaitMsg.
	if sum.Sent["CpRstMsg"] < 25 || sum.Sent["JoinWaitMsg"] < 25 {
		t.Errorf("trace sends CpRst=%d JoinWait=%d, want >= 25 each",
			sum.Sent["CpRstMsg"], sum.Sent["JoinWaitMsg"])
	}
	if sum.Span != res.VirtualDuration {
		// The last event is at or before quiescence.
		if sum.Span > res.VirtualDuration {
			t.Errorf("trace span %v exceeds virtual duration %v", sum.Span, res.VirtualDuration)
		}
	}
}

// TestWaveTraceReportE14 pins EXPERIMENTS.md E14: the §5.2 quantities
// `trace wave -n 256 -m 192 -seed 1 | trace report -` prints, recomputed
// from the event stream alone. A protocol or analysis change that moves
// one of them must move the table in EXPERIMENTS.md with it.
func TestWaveTraceReportE14(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	res, err := RunWave(WaveConfig{Params: p164, N: 256, M: 192, Seed: 1, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSNodes || !res.Consistent() {
		t.Fatal("wave did not converge to a consistent network")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	a := obs.NewAnalyzer("")
	if err := obs.ScanJSONL(&buf, a.Feed); err != nil {
		t.Fatal(err)
	}
	rep := a.Report()
	got := []int{rep.Events, rep.Nodes, len(rep.Joins), rep.Total.Count, rep.JoinRestarts,
		rep.Sent["JoinNotiMsg"], rep.BigSent, rep.SmallSent}
	want := []int{23150, 448, 192, 192, 0, 1250, 3206, 7889}
	if !slices.Equal(got, want) {
		t.Errorf("events/nodes/joins/completed/restarts/JoinNotiMsg/big/small\n got %v\nwant %v", got, want)
	}
	ms := func(d time.Duration) int { return int(d.Round(time.Millisecond) / time.Millisecond) }
	if p50, p90, p99 := ms(rep.Total.P50), ms(rep.Total.P90), ms(rep.Total.P99); p50 != 619 || p90 != 902 || p99 != 1065 {
		t.Errorf("join latency p50/p90/p99 = %d/%d/%d ms, want 619/902/1065", p50, p90, p99)
	}
	if rep.Span > res.VirtualDuration || rep.Traces != 0 {
		t.Errorf("span %v (virtual duration %v), %d span trees in an untraced wave", rep.Span, res.VirtualDuration, rep.Traces)
	}
}

// TestWaveNopSinkIsDefault confirms an untraced wave emits nothing and
// a Nop sink behaves identically to nil.
func TestWaveNopSinkIsDefault(t *testing.T) {
	res, err := RunWave(WaveConfig{Params: p164, N: 20, M: 10, Seed: 3, Sink: obs.Nop})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSNodes {
		t.Fatal("wave did not complete")
	}
	base, err := RunWave(WaveConfig{Params: p164, N: 20, M: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != base.Events || res.VirtualDuration != base.VirtualDuration {
		t.Errorf("Nop-sink wave diverged: events %d vs %d, duration %v vs %v",
			res.Events, base.Events, res.VirtualDuration, base.VirtualDuration)
	}
}
