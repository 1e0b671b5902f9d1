package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/nemesis"
	"hypercube/internal/netcheck"
	"hypercube/internal/obs"
	"hypercube/internal/overlay"
)

// multiW joins seven nodes whose notification sets fall into four
// suffix groups of the paper's V, so cset prints four trees; the
// paper's own W has one group.
const multiW = "10261,47051,00261,33333,12345,22222,44444"

// goldens is every output pinned under testdata/: each subcommand at
// its default size except the two that run the §5.2 waves and the two
// one-second scenarios (churn at n=1000, gray at n=64), which `go test`
// runs at -small (make experiments-check covers full size). The
// scenarios run five times each: E11–E15's member and hostile
// selections, partitionJoiner and DeclWatch.Examples touch maps, and
// E17/E18 run on the same overlay, sampling and guard layers.
var goldens = []struct {
	file string
	args []string
	runs int // >1 to catch output that depends on map iteration order
}{
	{file: "fig15a", args: []string{"fig15a"}},
	{file: "fig15b-small", args: []string{"fig15b", "-small"}},
	{file: "table-small", args: []string{"table", "-small"}},
	{file: "consistency", args: []string{"consistency"}},
	{file: "fig1", args: []string{"fig1"}},
	{file: "cset", args: []string{"cset"}},
	{file: "cset-multi", args: []string{"cset", "-w", multiW}, runs: 20},
	{file: "baseline", args: []string{"baseline"}},
	{file: "msgsize", args: []string{"msgsize"}},
	{file: "msgsize-wire", args: []string{"msgsize", "-wire"}},
	{file: "netinit", args: []string{"netinit"}},
	{file: "topo", args: []string{"topo"}},
	{file: "topo-small", args: []string{"topo", "-small"}},
	{file: "workload", args: []string{"workload"}},
	{file: "workload-quiet", args: []string{"workload", "-quiet"}},
	{file: "churn-small", args: []string{"churn", "-small"}, runs: 5},
	{file: "selfheal", args: []string{"selfheal"}, runs: 5},
	{file: "partition", args: []string{"partition"}, runs: 5},
	{file: "byzantine", args: []string{"byzantine"}, runs: 5},
	{file: "flashcrowd", args: []string{"flashcrowd"}, runs: 5},
	{file: "flashcrowd-small", args: []string{"flashcrowd", "-small"}, runs: 5},
	{file: "flashcrowd-byz", args: []string{"flashcrowd", "-with-byzantine"}, runs: 5},
	{file: "massfail", args: []string{"massfail"}, runs: 5},
	{file: "massfail-byz", args: []string{"massfail", "-with-byzantine"}, runs: 5},
	{file: "restart", args: []string{"restart"}, runs: 5},
	{file: "gray-small", args: []string{"gray", "-small"}, runs: 5},
	{file: "gray-small-byz", args: []string{"gray", "-small", "-with-byzantine"}, runs: 5},
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
// all joiners S-nodes and within Theorem 3's d+1 — for the §5.2 waves,
// with its mean JoinNotiMsg under the Theorem-5 bound — and that every
// scenario passed its verdict (TestVerdicts), taken from the run's own
// results, not from the printed text.
func mustRun(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("paper %v: exit %d\n%s", args, code, errb.String())
	}
	return out.String(), errb.String()
}

func TestGolden(t *testing.T) {
	t.Parallel()
	for _, c := range goldens {
		t.Run(c.file, func(t *testing.T) {
			t.Parallel()
			want := golden(t, c.file)
			for i := 0; i < max(c.runs, 1); i++ {
				if got, _ := mustRun(t, c.args...); got != want {
					t.Fatalf("run %d of paper %v differs from testdata/%s.golden; got:\n%s", i, c.args, c.file, got)
				}
			}
		})
	}
}

// TestAll pins `all` as the nineteen subcommands back to back, with
// the §5.2 waves run once for fig15b and table together.
func TestAll(t *testing.T) {
	t.Parallel()
	want := golden(t, "fig15a", "fig15b-small", "table-small", "consistency", "fig1", "cset", "baseline", "msgsize", "netinit", "topo-small", "workload",
		"churn-small", "selfheal", "partition", "byzantine", "flashcrowd-small", "massfail", "restart", "gray-small")
	got, stderr := mustRun(t, "all", "-small")
	if got != want {
		t.Errorf("`all -small` is not the concatenation of its subcommands' goldens; got:\n%s", got)
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
		t.Error("testdata/all.golden is not the concatenation of the per-subcommand goldens")
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

// TestFigure1 checks E6 against the paper: the golden prints node
// 21233's table at Figure 1's b=4, d=5, every (i,j)-entry holding a node
// whose rightmost i+1 digits are j followed by 21233's rightmost i, and
// reports Definition 3.8 satisfied.
func TestFigure1(t *testing.T) {
	out := golden(t, "fig1")
	const owner = "21233"
	_, tbl, ok := strings.Cut(out, "Neighbor table of node "+owner+" (b=4, d=5)\n")
	if !ok {
		t.Fatal("fig1 golden has no b=4, d=5 table of node 21233")
	}
	rows := strings.Split(tbl, "\n")[:4]
	for j, row := range rows {
		cells, label, _ := strings.Cut(row, "|")
		if want := fmt.Sprintf(" digit %d", j); label != want {
			t.Fatalf("row %d labelled %q, want %q", j, label, want)
		}
		for c, cell := range strings.Fields(cells) {
			level := len(owner) - 1 - c
			node, _, filled := strings.Cut(cell, "/")
			if want := fmt.Sprint(j) + owner[len(owner)-level:]; filled && !strings.HasSuffix(node, want) {
				t.Errorf("(%d,%d)-entry %s does not end in %s", level, j, node, want)
			}
		}
	}
	if !strings.Contains(out, "Definition 3.8: satisfied;") {
		t.Error("fig1 golden does not report Definition 3.8 satisfied")
	}
}

// TestExperimentsDoc keeps EXPERIMENTS.md's transcripts from drifting
// again: every fenced block there must be a run of lines of some
// golden, so a section gives its commands inline and fences output
// only. E14, E16, E19 and E20 quote other tools (cmd/trace,
// cmd/nemesis) or figures recorded before a removal, and the closing
// section quotes nothing; those stay outside the check.
func TestExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"fig15b", "table", "churn", "gray"} // full size: pinned by all.golden
	for _, c := range goldens {
		names = append(names, c.file)
	}
	pinned := golden(t, names...)
	unchecked := []string{"E14 ", "E16 ", "E19 ", "E20 ", "Additional measurements"}
	checked := 0
	for _, section := range strings.Split(string(doc), "\n## ")[1:] {
		title, _, _ := strings.Cut(section, "\n")
		if slices.ContainsFunc(unchecked, func(p string) bool { return strings.HasPrefix(title, p) }) {
			continue
		}
		blocks := strings.Split(section, "\n```\n")
		if len(blocks)%2 == 0 {
			t.Fatalf("EXPERIMENTS.md %q: unbalanced code fences", title)
		}
		for i := 1; i < len(blocks); i += 2 {
			checked++
			if !strings.Contains(pinned, blocks[i]+"\n") {
				t.Errorf("EXPERIMENTS.md %q: block is in no testdata/*.golden:\n%s", title, blocks[i])
			}
		}
	}
	if checked < 23 {
		t.Errorf("only %d blocks of EXPERIMENTS.md were checked: its sections or fences changed shape", checked)
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

// TestVerdicts holds the gates that make a scenario's zero exit status
// a result: each must trip on an outcome fabricated to breach it, and
// none on a clean one.
func TestVerdicts(t *testing.T) {
	if err := (outcome{}).verdict(); err != nil {
		t.Errorf("clean outcome: %v", err)
	}
	for want, o := range map[string]outcome{
		"1 Definition 3.8 violations": {violations: make([]netcheck.Violation, 1)},
		"2 table entries left unrep":  {unrepaired: 2},
		"3 live nodes declared":       {falseDecl: 3},
		"1 joins did not complete":    {stuck: []string{"beef in copying"}},
		"4 probers still in part":     {partitioned: 4},
		"fault model never engaged":   {inert: true},
	} {
		if err := o.verdict(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("outcome %+v judged %v, want an error mentioning %q", o, err, want)
		}
	}
	if err := (outcome{falseDecl: 1, partitioned: 2}).verdict(); err == nil || strings.Count(err.Error(), "\n") != 1 {
		t.Errorf("two tripped gates reported as %v, want both", err)
	}

	// E18 at n=64: the adaptive run clean, the baseline visibly worse.
	adaptive := grayRun{detected: 3, crashed: 3, meanDetect: 10 * time.Second, marked: 57, slowDelayed: 21565}
	fixed := grayRun{falsePos: 3, detected: 3, crashed: 3, meanDetect: 21 * time.Second}
	if err := grayVerdict(adaptive, fixed); err != nil {
		t.Errorf("clean gray pair: %v", err)
	}
	slower := fixed
	slower.falsePos = 0 // contrast by detection latency alone: 21 s > 1.2 × 10 s
	if err := grayVerdict(adaptive, slower); err != nil {
		t.Errorf("baseline 2.1x slower with no false declaration: %v", err)
	}
	for want, breach := range map[string]func(a, f *grayRun){
		"only 2 of 3 genuine crashes": func(a, _ *grayRun) { a.detected = 2 },
		"estimator never engaged":     func(a, _ *grayRun) { a.marked = 0 },
		"never delayed a message":     func(a, _ *grayRun) { a.slowDelayed = 0 },
		"baseline showed no contrast": func(_, f *grayRun) { f.falsePos, f.meanDetect = 0, 12*time.Second },
		"showed no contrast (0 false": func(a, f *grayRun) { f.falsePos, a.meanDetect = 0, 0 },
	} {
		a, f := adaptive, fixed
		breach(&a, &f)
		if err := grayVerdict(a, f); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("gray breach judged %v, want an error mentioning %q", err, want)
		}
	}
}

// TestScheduleFiles holds the committed E17/E18 schedules to the repro
// format `nemesis -replay` takes: each loads and records no findings.
func TestScheduleFiles(t *testing.T) {
	files, err := filepath.Glob("testdata/*.json")
	if err != nil || len(files) != 6 {
		t.Fatalf("testdata holds schedules %v (%v), want six", files, err)
	}
	for _, f := range files {
		r, err := nemesis.LoadRepro(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
		} else if len(r.Findings) != 0 {
			t.Errorf("%s records findings: %v", f, r.Findings)
		}
	}
}

// TestScenarioLeavesRepro feeds the scenario runner a schedule that must
// fail — a 30 s clock pause against the executor's 8 s declaration
// window — and replays the repro it leaves to an exact match.
func TestScenarioLeavesRepro(t *testing.T) {
	if testing.Short() {
		t.Skip("executes two simulations")
	}
	s := nemesis.Schedule{
		Seed: 5, B: 16, D: 4, Nodes: 16,
		Steps: []nemesis.Action{{Op: nemesis.OpPause, Count: 1, Dur: 30 * time.Second, Gap: 2 * time.Second}},
	}
	var out, errb bytes.Buffer
	x := &env{out: &out, log: &errb}
	if err := x.scenario("pause", s); err == nil || !strings.Contains(err.Error(), "oracle findings") {
		t.Fatalf("over-window pause judged %v, want oracle findings", err)
	}
	_, path, ok := strings.Cut(strings.TrimSpace(errb.String()), "go run ./cmd/nemesis -replay ")
	if !ok {
		t.Fatalf("no replay command on stderr: %q", errb.String())
	}
	defer os.Remove(path)
	r, err := nemesis.LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, match, err := nemesis.Replay(r, nemesis.Options{}); err != nil || !match {
		t.Fatalf("replay of %s: match %v, err %v; recorded %v, replayed %v", path, match, err, r.Findings, got)
	}
}

// TestTraceE19 pins what EXPERIMENTS.md E19 reads off its source run's
// trace, and that tracing changes nothing the run prints.
func TestTraceE19(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	traced, _ := mustRun(t, "flashcrowd", "-small", "-seed", "1", "-trace", path)
	if plain, _ := mustRun(t, "flashcrowd", "-small", "-seed", "1"); traced != plain {
		t.Errorf("-trace changed the run's output:\n%s\nuntraced:\n%s", traced, plain)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a := obs.NewAnalyzer("")
	if err := obs.ScanJSONL(f, a.Feed); err != nil {
		t.Fatal(err)
	}
	rep := a.Report()
	got := []int{rep.Events, rep.Traces, rep.JoinTrees.Attempted, rep.JoinTrees.Reconstructed}
	if want := []int{55940, 5309, 64, 64}; !slices.Equal(got, want) {
		t.Errorf("events/span trees/joins attempted/reconstructed = %v, want %v", got, want)
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
		{[]string{"graydegrade"}, 2, "usage: paper"},
		{[]string{"-flashcrowd"}, 2, "usage: paper"},
		{[]string{"massfail", "-small"}, 2, "does not take -small"},
		{[]string{"partition", "-with-byzantine"}, 2, "does not take -with-byzantine"},
		{[]string{"flashcrowd", "-fc-joins", "64"}, 2, "flag provided but not defined: -fc-joins"},
		{[]string{"all", "-trace", "x.jsonl"}, 2, "does not take -trace"},
		{[]string{"fig1", "-small"}, 2, "does not take -small"},
		{[]string{"netinit", "-wire"}, 2, "does not take -wire"},
		{[]string{"restart", "-trace", "/nonexistent/dir/x.jsonl"}, 1, "paper restart: obs: trace file"},
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
