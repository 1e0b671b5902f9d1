package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"hypercube/internal/id"
	"hypercube/internal/netcheck"
	"hypercube/internal/overlay"
)

// multiW joins seven nodes whose notification sets fall into four
// suffix groups of the paper's V, so cset prints four trees; the
// paper's own W has one group.
const multiW = "10261,47051,00261,33333,12345,22222,44444"

// goldens is every output pinned under testdata/: each subcommand at
// its default size except the two that run the §5.2 waves, which
// `go test` runs at -small (make experiments-check covers paper scale).
var goldens = []struct {
	file string
	args []string
	runs int // >1 to catch output that depends on map iteration order
}{
	{file: "fig15a", args: []string{"fig15a"}},
	{file: "fig15b-small", args: []string{"fig15b", "-small"}},
	{file: "table-small", args: []string{"table", "-small"}},
	{file: "consistency", args: []string{"consistency"}},
	{file: "cset", args: []string{"cset"}},
	{file: "cset-multi", args: []string{"cset", "-w", multiW}, runs: 20},
	{file: "baseline", args: []string{"baseline"}},
	{file: "msgsize", args: []string{"msgsize"}},
	{file: "msgsize-wire", args: []string{"msgsize", "-wire"}},
	{file: "topo", args: []string{"topo"}},
	{file: "topo-small", args: []string{"topo", "-small"}},
	{file: "workload", args: []string{"workload"}},
	{file: "workload-quiet", args: []string{"workload", "-quiet"}},
}

func golden(t *testing.T, files ...string) string {
	t.Helper()
	var all []byte
	for _, f := range files {
		b, err := os.ReadFile("testdata/" + f + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return string(all)
}

// mustRun runs the command and requires exit status 0. That status is
// the assertion that every join wave of the run ended consistent with
// all joiners S-nodes and within Theorem 3's d+1 — and, for the §5.2
// waves, with its mean JoinNotiMsg under the Theorem-5 bound — taken
// from the run's own results, not from the printed text.
func mustRun(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("paper %v: exit %d\n%s", args, code, errb.String())
	}
	return out.String(), errb.String()
}

func TestGolden(t *testing.T) {
	for _, c := range goldens {
		t.Run(c.file, func(t *testing.T) {
			want := golden(t, c.file)
			for i := 0; i < max(c.runs, 1); i++ {
				if got, _ := mustRun(t, c.args...); got != want {
					t.Fatalf("run %d of paper %v differs from testdata/%s.golden; got:\n%s", i, c.args, c.file, got)
				}
			}
		})
	}
}

// TestAll pins `all` as the nine subcommands back to back, with the
// §5.2 waves run once for fig15b and table together.
func TestAll(t *testing.T) {
	want := golden(t, "fig15a", "fig15b-small", "table-small", "consistency", "cset", "baseline", "msgsize", "topo-small", "workload")
	got, stderr := mustRun(t, "all", "-small")
	if got != want {
		t.Errorf("`all -small` is not the concatenation of its nine subcommands' goldens; got:\n%s", got)
	}
	if n := strings.Count(stderr, " wall\n"); n != len(paperSetups) {
		t.Errorf("`all` timed %d §5.2 waves on stderr, want %d (fig15b and table share them):\n%s", n, len(paperSetups), stderr)
	}
	// The same at paper scale, on the files make experiments-check diffs.
	var files []string
	for _, e := range experiments {
		files = append(files, e.name)
	}
	if golden(t, files...) != golden(t, "all") {
		t.Error("testdata/all.golden is not the concatenation of the nine per-subcommand goldens")
	}
}

// TestCsetFigure2 checks E7 against the paper: Figure 2(b) has nine
// C-sets under V_1, and the realization must satisfy §3.3.
func TestCsetFigure2(t *testing.T) {
	out := golden(t, "cset")
	template, _, ok := strings.Cut(out, "realized cset(V,W)")
	if !ok {
		t.Fatal("cset golden has no realized tree")
	}
	csets := strings.Fields(template[strings.Index(template, "template C(V,W):"):])[2:]
	want := "V_1 C_51 C_051 C_7051 C_47051 C_61 C_261 C_0261 C_00261 C_10261"
	if got := strings.Join(csets, " "); got != want {
		t.Errorf("template C(V,W) = %s, want Figure 2(b)'s %s", got, want)
	}
	if !strings.Contains(out, "conditions (1), (2), (3) of §3.3: satisfied\n") {
		t.Error("cset golden does not report the §3.3 conditions satisfied")
	}
}

// TestExperimentsDoc keeps EXPERIMENTS.md's E1-E11 transcripts from
// drifting again: every fenced block there must be a run of lines of
// some golden.
func TestExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	e1to11, _, _ := strings.Cut(string(doc), "\n## E12 ")
	var names []string
	for _, c := range goldens {
		names = append(names, c.file)
	}
	pinned := golden(t, append(names, "fig15b", "table")...)
	blocks := strings.Split(e1to11, "\n```\n")
	if len(blocks) < 3 || len(blocks)%2 == 0 {
		t.Fatalf("EXPERIMENTS.md splits into %d parts at its code fences before E12: none, or unbalanced", len(blocks))
	}
	for i := 1; i < len(blocks); i += 2 {
		if !strings.Contains(pinned, blocks[i]+"\n") {
			t.Errorf("EXPERIMENTS.md block is in no testdata/*.golden:\n%s", blocks[i])
		}
	}
}

func TestTheorems(t *testing.T) {
	cfg := overlay.WaveConfig{Params: id.Params{B: 16, D: 8}, N: 10, M: 2}
	ok := func() *wave {
		return &wave{WaveResult: &overlay.WaveResult{Config: cfg, AllSNodes: true, Records: make([]overlay.JoinRecord, 2)}, maxSetup: 9}
	}
	if err := ok().theorems(); err != nil {
		t.Errorf("clean wave: %v", err)
	}
	for want, breach := range map[string]func(*wave){
		"Theorem 1": func(wv *wave) { wv.Violations = make([]netcheck.Violation, 1) },
		"Theorem 2": func(wv *wave) { wv.Records = wv.Records[:1] },
		"Theorem 3": func(wv *wave) { wv.maxSetup = 10 },
	} {
		wv := ok()
		breach(wv)
		if err := wv.theorems(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("breach of %s reported as %v", want, err)
		}
	}
}

func TestUsageAndErrors(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 2, "usage: paper"},
		{[]string{"figure15a"}, 2, "usage: paper"},
		{[]string{"fig15a", "-wire"}, 2, "does not take -wire"},
		{[]string{"all", "-quiet"}, 2, "does not take -quiet"},
		{[]string{"topo", "8320"}, 2, "does not take 8320"},
		{[]string{"cset", "-b", "8", "-d", "5", "-v", "99999"}, 1, "-v: "},
		{[]string{"cset", "-b", "1"}, 1, "paper cset: "},
	} {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != c.code || !strings.Contains(errb.String(), c.stderr) {
			t.Errorf("paper %v: exit %d, stderr %q; want exit %d mentioning %q", c.args, code, errb.String(), c.code, c.stderr)
		}
		if c.code == 2 && out.Len() != 0 {
			t.Errorf("paper %v: usage error wrote to stdout: %q", c.args, out.String())
		}
	}
}
