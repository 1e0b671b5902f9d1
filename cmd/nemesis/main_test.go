package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypercube/internal/id"
	"hypercube/internal/nemesis"
	"hypercube/internal/nemesis/oracle"
)

// sweepArgs is the pinned sweep: ten seeds of the nemesis-smoke shape,
// every step narrated (~0.5 s). Refresh after an intended change with
//
//	go run ./cmd/nemesis -seeds 60..69 -n 32 -b 16 -d 4 -steps 8 -v > cmd/nemesis/testdata/sweep.golden
var sweepArgs = []string{"-seeds", "60..69", "-n", "32", "-b", "16", "-d", "4", "-steps", "8", "-v"}

// TestSweepGolden pins the sweep byte for byte: schedules, step
// narration, final sizes and virtual end times. Any change to the
// protocol stack's behaviour under faults moves it.
func TestSweepGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/sweep.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run(append(sweepArgs, "-out", t.TempDir()), &out, &errb); code != 0 {
		t.Fatalf("exit %d\n%s", code, errb.String())
	}
	if out.String() != string(want) {
		t.Errorf("sweep differs from testdata/sweep.golden; got:\n%s", out.String())
	}
	if !strings.HasPrefix(errb.String(), "swept 10 schedules in ") {
		t.Errorf("stderr %q, want the sweep's wall time", errb.String())
	}
}

// TestReplay round-trips a recording through -replay: a clean schedule
// recorded with no findings replays to no findings, and a recording
// that claims a finding the run does not produce is reported diverged.
// E17's small flash crowd, a committed cmd/paper scenario, replays as
// is. Two shrunk sweep failures replay as recorded:
//   - seed 966 at n = 32, whose leaver was rejoining when its leave
//     came due, ended in stuck-leave while the leave was dropped; it now
//     replays clean;
//   - seed 797 at n = 32, a crash between two partitions, failed
//     convergence with 16 findings: tables re-adopted a crashed member
//     that their probers could only drop as unreachable. Since such a
//     drop keeps a tombstone until the member is heard from, it
//     replays clean, at the fixed anti-entropy cadence as well.
func TestReplay(t *testing.T) {
	sched := nemesis.Generate(60, id.Params{B: 16, D: 4}, 32, 8)
	dir := t.TempDir()
	for _, c := range []struct {
		name     string
		file     string // a committed recording; "" writes one of sched
		findings []oracle.Finding
		code     int
		stream   string
	}{
		{"clean", "", nil, 0, "replay matches the recording exactly (0 findings)"},
		{"claimed", "", make([]oracle.Finding, 1), 1, "replay DIVERGED"},
		{"flashcrowd-small", "../paper/testdata/flashcrowd-small.json", nil, 0, "replay matches the recording exactly (0 findings)"},
		{"rejoin-leave-966", "testdata/rejoin-leave-966.json", nil, 0, "replay matches the recording exactly (0 findings)"},
		{"partition-crash-797", "testdata/partition-crash-797.json", nil, 0, "replay matches the recording exactly (0 findings)"},
	} {
		path := c.file
		if path == "" {
			path = filepath.Join(dir, c.name+".json")
			if err := nemesis.WriteRepro(path, nemesis.Repro{Schedule: sched, Findings: c.findings}); err != nil {
				t.Fatal(err)
			}
		}
		var out, errb bytes.Buffer
		code := run([]string{"-replay", path}, &out, &errb)
		if code != c.code || !strings.Contains(out.String()+errb.String(), c.stream) {
			t.Errorf("%s: exit %d, output %q%q; want exit %d mentioning %q", c.name, code, out.String(), errb.String(), c.code, c.stream)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-seeds", "9..1"}, 1, "hi < lo"},
		{[]string{"-seeds", "0-9"}, 1, "want lo..hi"},
		{[]string{"-sweep"}, 2, "flag provided but not defined"},
		{[]string{"0..9"}, 2, `unexpected argument "0..9"`},
		{[]string{"-replay", "/nonexistent/repro.json"}, 1, "nemesis: "},
	} {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != c.code || !strings.Contains(errb.String(), c.stderr) {
			t.Errorf("nemesis %v: exit %d, stderr %q; want exit %d mentioning %q", c.args, code, errb.String(), c.code, c.stderr)
		}
	}
}
