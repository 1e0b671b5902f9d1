package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"hypercube/internal/nemesis"
	"hypercube/internal/obs"
)

// pipelines are the pinned `trace wave -n N -m M -out - | trace report -`
// runs: a 16-node wave with 12 joiners, and EXPERIMENTS.md E14's wave of
// 192 joiners into 256 nodes, whose report that section quotes. The
// trace goes to stdout and the summary to stderr, so report can read
// it. Refresh testdata/ after an intended change of output with
//
//	go run ./cmd/trace wave -n 16 -m 12 -out - 2>cmd/trace/testdata/wave.golden | go run ./cmd/trace report - >cmd/trace/testdata/report.golden
//	go run ./cmd/trace wave -n 256 -m 192 -out - 2>cmd/trace/testdata/wave-e14.golden | go run ./cmd/trace report - >cmd/trace/testdata/report-e14.golden
var pipelines = []struct {
	wave, report string // golden files
	args         []string
}{
	{"wave.golden", "report.golden", []string{"wave", "-n", "16", "-m", "12", "-out", "-"}},
	{"wave-e14.golden", "report-e14.golden", []string{"wave", "-n", "256", "-m", "192", "-out", "-"}},
}

// runWave runs a pinned wave and returns its trace and summary.
func runWave(t *testing.T, args []string) (trace, summary *bytes.Buffer) {
	t.Helper()
	trace, summary = new(bytes.Buffer), new(bytes.Buffer)
	if code := run(args, nil, trace, summary); code != 0 {
		t.Fatalf("trace %v: exit %d\n%s", args, code, summary)
	}
	return trace, summary
}

func golden(t *testing.T, file, got string) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from testdata/%s; got:\n%s", file, got)
	}
}

// TestWaveReportGolden is each pinned pipeline in process: the wave
// must converge and every line of its trace parse, and both the wave's
// summary and the report are pinned byte for byte.
func TestWaveReportGolden(t *testing.T) {
	for _, p := range pipelines {
		trace, summary := runWave(t, p.args)
		golden(t, p.wave, summary.String())

		var out, errb bytes.Buffer
		if code := run([]string{"report", "-"}, trace, &out, &errb); code != 0 {
			t.Fatalf("trace report -: exit %d\n%s", code, errb.String())
		}
		golden(t, p.report, out.String())
	}
}

// TestReportE19 regenerates the report EXPERIMENTS.md E19 quotes, of
// `paper flashcrowd -small -seed 1 -trace`: the committed schedule
// cmd/paper/testdata/flashcrowd-small.json run at seed 1 by the nemesis
// executor, its trace read by `report -require-joins 0.95 -`. Refresh the
// golden after an intended change of output with
//
//	go run ./cmd/paper flashcrowd -small -seed 1 -trace fleet.jsonl
//	go run ./cmd/trace report fleet.jsonl >cmd/trace/testdata/report-e19.golden
func TestReportE19(t *testing.T) {
	r, err := nemesis.LoadRepro("../paper/testdata/flashcrowd-small.json")
	if err != nil {
		t.Fatal(err)
	}
	s := r.Schedule
	s.Seed = 1
	var trace bytes.Buffer
	sink := obs.NewJSONL(&trace)
	if _, _, err := nemesis.Execute(s, nemesis.Options{Trace: sink}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"report", "-require-joins", "0.95", "-"}, &trace, &out, &errb); code != 0 {
		t.Fatalf("trace report: exit %d\n%s", code, errb.String())
	}
	golden(t, "report-e19.golden", out.String())
}

func TestUsageAndErrors(t *testing.T) {
	trace, _ := runWave(t, pipelines[0].args)
	for _, c := range []struct {
		args   []string
		stdin  []byte
		code   int
		stderr string
	}{
		{nil, nil, 2, "usage: trace wave"},
		{[]string{"replay"}, nil, 2, "usage: trace wave"},
		{[]string{"wave", "64"}, nil, 2, `trace wave: unexpected argument "64"`},
		{[]string{"wave", "-size", "64"}, nil, 2, "flag provided but not defined: -size"},
		{[]string{"report"}, nil, 2, "usage: trace wave"},
		{[]string{"report", "-scrape", "127.0.0.1:1", "x.jsonl"}, nil, 1, "mutually exclusive"},
		{[]string{"report", "/nonexistent/x.jsonl"}, nil, 1, "trace report: open /nonexistent/x.jsonl"},
		{[]string{"report", "-"}, []byte("not json\n"), 1, "trace report: -: "},
		{[]string{"report", "-require-joins", "0.95", "-"}, trace.Bytes(), 1, "no join traces found"},
	} {
		var out, errb bytes.Buffer
		code := run(c.args, bytes.NewReader(c.stdin), &out, &errb)
		if code != c.code || !strings.Contains(errb.String(), c.stderr) {
			t.Errorf("trace %v: exit %d, stderr %q; want exit %d mentioning %q", c.args, code, errb.String(), c.code, c.stderr)
		}
		if c.code == 2 && out.Len() != 0 {
			t.Errorf("trace %v: usage error wrote to stdout: %q", c.args, out.String())
		}
	}
}
