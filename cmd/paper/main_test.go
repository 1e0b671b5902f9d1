package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/nemesis"
	"hypercube/internal/nemesis/oracle"
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
// longest scenarios (churn at n=1000, gray at n=64), which `go test`
// runs at -small (make experiments-check covers full size). The
// scenarios run five times each: they run on the nemesis executor,
// whose mid-split joiner rule ranges over the map of issued IDs, and
// E11 routes every ordered pair over a map of tables.
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
	{file: "workload", args: []string{"workload"}, runs: 5},
	{file: "churn-small", args: []string{"churn", "-small"}, runs: 5},
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

// TestAll pins `all` as the eighteen subcommands back to back, with
// the §5.2 waves run once for fig15b and table together.
func TestAll(t *testing.T) {
	t.Parallel()
	want := golden(t, "fig15a", "fig15b-small", "table-small", "consistency", "fig1", "cset", "baseline", "msgsize", "netinit", "topo-small", "workload",
		"churn-small", "partition", "byzantine", "flashcrowd-small", "massfail", "restart", "gray-small")
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
// golden — this command's, cmd/trace's for E14 and E19, or
// cmd/nemesis's sweep for E20 — so a section gives its commands inline
// and fences output only. The closing section quotes nothing and stays
// outside the check.
func TestExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"fig15b", "table", "churn", "gray"} // full size: pinned by all.golden
	for _, c := range goldens {
		names = append(names, c.file)
	}
	sweep, err := os.ReadFile("../nemesis/testdata/sweep.golden")
	if err != nil {
		t.Fatal(err)
	}
	pinned := golden(t, names...) + string(sweep)
	traces, err := filepath.Glob("../trace/testdata/*.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range traces {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		pinned += string(b)
	}
	unchecked := []string{"Additional measurements"}
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
	if checked < 26 {
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
	// E11: two crashes, both victims declared.
	e11 := func() (*nemesis.Result, *nemesis.Final, [][2]id.ID) {
		p := id.Params{B: 4, D: 4}
		fin := &nemesis.Final{Watch: oracle.NewDeclWatch()}
		for i, v := range []string{"0123", "3210"} {
			fin.Watch.MarkDeadAt(time.Duration(i)*time.Minute, id.MustParse(p, v))
			fin.Watch.Emit(obs.Event{Kind: obs.KindDeclared, Peer: id.MustParse(p, v), T: time.Duration(i)*time.Minute + 8*time.Second})
		}
		return &nemesis.Result{Crashed: 2}, fin, nil
	}
	if err := lifecycleVerdict(e11()); err != nil {
		t.Errorf("clean E11 run: %v", err)
	}
	for want, breach := range map[string]func(*nemesis.Result, *[][2]id.ID){
		"1 of 3 crash victims declared by no survivor": func(r *nemesis.Result, _ *[][2]id.ID) { r.Crashed = 3 },
		"2 ordered pairs unroutable":                   func(_ *nemesis.Result, u *[][2]id.ID) { *u = make([][2]id.ID, 2) },
	} {
		res, fin, unroutable := e11()
		breach(res, &unroutable)
		if err := lifecycleVerdict(res, fin, unroutable); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("E11 breach judged %v, want an error mentioning %q", err, want)
		}
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

// scriptOp is one operation of an E11 script: k members join, leave in
// one concurrent wave, or crash one after another; or k rounds of table
// optimization.
type scriptOp struct {
	op nemesis.Op
	k  int
}

// minMembers is the size below which no leave or crash of an E11 script
// takes a network.
const minMembers = 8

// e11Schedule converts an E11 script on n members into the schedule
// paper runs: transit-stub latencies; each operation one step, but each
// crash victim a step of its own followed by a 20 s window; and a
// quiesce step after every operation. A leave or crash is cut so that
// it leaves at least minMembers, and dropped if that leaves it nothing
// to do.
func e11Schedule(seed uint64, p id.Params, n int, script []scriptOp) nemesis.Schedule {
	s := nemesis.Schedule{Seed: seed, B: p.B, D: p.D, Nodes: n, Latency: nemesis.LatencyTransitStub}
	size := n
	for _, o := range script {
		k := o.k
		switch o.op {
		case nemesis.OpJoinWave:
			size += k
		case nemesis.OpLeave, nemesis.OpCrash:
			k = min(k, size-minMembers)
			size -= max(k, 0)
		}
		if k < 1 {
			continue
		}
		if o.op == nemesis.OpCrash {
			for range k {
				s.Steps = append(s.Steps, nemesis.Action{Op: nemesis.OpCrash, Count: 1, Gap: 20 * time.Second})
			}
		} else {
			s.Steps = append(s.Steps, nemesis.Action{Op: o.op, Count: k})
		}
		s.Steps = append(s.Steps, nemesis.Action{Op: nemesis.OpQuiesce})
	}
	return s
}

// randomScript draws workload's script: ops operations weighted 4:3:2:1
// join, leave, crash, optimize; a join or leave moves up to 20 members,
// a crash up to 3, an optimization is one round.
func randomScript(rng *rand.Rand, ops int) []scriptOp {
	script := make([]scriptOp, ops)
	for i := range script {
		switch r := rng.Intn(10); {
		case r < 4:
			script[i] = scriptOp{nemesis.OpJoinWave, 1 + rng.Intn(20)}
		case r < 7:
			script[i] = scriptOp{nemesis.OpLeave, 1 + rng.Intn(20)}
		case r < 9:
			script[i] = scriptOp{nemesis.OpCrash, 1 + rng.Intn(3)}
		default:
			script[i] = scriptOp{nemesis.OpOptimize, 1}
		}
	}
	return script
}

// e11Files are the committed E11 schedules and the scripts they are
// converted from: churn's §7 script at its two sizes, and workload's
// random script drawn from seed 31.
var e11Files = map[string]nemesis.Schedule{
	"churn": e11Schedule(1, id.Params{B: 16, D: 8}, 1000,
		[]scriptOp{{nemesis.OpLeave, 100}, {nemesis.OpCrash, 20}, {nemesis.OpOptimize, 2}}),
	"churn-small": e11Schedule(1, id.Params{B: 16, D: 8}, 200,
		[]scriptOp{{nemesis.OpLeave, 20}, {nemesis.OpCrash, 5}, {nemesis.OpOptimize, 2}}),
	"workload": e11Schedule(1, id.Params{B: 16, D: 6}, 200, randomScript(rand.New(rand.NewSource(31)), 60)),
}

// executeE11 runs an E11 schedule and holds it to E11's verdict: no
// oracle finding, every crash victim declared, every ordered pair
// routable.
func executeE11(t *testing.T, s nemesis.Schedule) (*nemesis.Result, *nemesis.Final) {
	t.Helper()
	res, fin, err := nemesis.Execute(s, nemesis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Errorf("%d oracle findings, first: %v", len(res.Findings), res.Findings[0])
	}
	unroutable := netcheck.CheckAllPairsReachability(fin.Net.Params(), fin.Net.Tables())
	if err := lifecycleVerdict(res, fin, unroutable); err != nil {
		t.Error(err)
	}
	return res, fin
}

// TestScriptedLifecycle runs a fixed script of all four ops as an E11
// schedule: each op but optimization sends §7 protocol messages, each
// applies its whole count, the network ends at the size the script
// implies, and the verdict finds no finding, no undeclared victim and
// no unroutable pair.
func TestScriptedLifecycle(t *testing.T) {
	t.Parallel()
	script := []scriptOp{{nemesis.OpJoinWave, 20}, {nemesis.OpLeave, 10}, {nemesis.OpCrash, 2}, {nemesis.OpOptimize, 1}, {nemesis.OpJoinWave, 5}, {nemesis.OpLeave, 8}}
	s := e11Schedule(7, id.Params{B: 16, D: 6}, 50, script)
	res, fin := executeE11(t, s)
	for i, st := range fin.Steps {
		a := s.Steps[i]
		applied := map[nemesis.Op]int{nemesis.OpJoinWave: st.Joined, nemesis.OpLeave: st.Left, nemesis.OpCrash: st.Crashed, nemesis.OpOptimize: st.Optimize.Rounds}
		if a.Op == nemesis.OpQuiesce {
			continue
		}
		if applied[a.Op] != a.Count {
			t.Errorf("step %d (%v): applied %d", i, a, applied[a.Op])
		}
		for _, m := range maintenance {
			st.Delivered[m] = 0
		}
		if a.Op != nemesis.OpOptimize && sum(st.Delivered[:]) == 0 {
			t.Errorf("step %d (%v): no protocol messages", i, a)
		}
	}
	if got, want := res.FinalSize, 50+20-10-2+5-8; got != want {
		t.Errorf("final size %d, want %d", got, want)
	}
}

// TestChurnScripts runs E11's random scripts on 60-member networks
// under four seeds: each must pass every gate. The floor subtest holds
// the conversion to its rule that no leave or crash takes a network
// below minMembers.
func TestChurnScripts(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			executeE11(t, e11Schedule(uint64(seed), id.Params{B: 16, D: 6}, 60, randomScript(rand.New(rand.NewSource(seed*100)), 60)))
		})
	}
	t.Run("floor", func(t *testing.T) {
		t.Parallel()
		s := e11Schedule(3, id.Params{B: 16, D: 6}, minMembers+2, []scriptOp{{nemesis.OpLeave, 5}, {nemesis.OpCrash, 3}})
		if want := []nemesis.Action{{Op: nemesis.OpLeave, Count: 2}, {Op: nemesis.OpQuiesce}}; !slices.Equal(s.Steps, want) {
			t.Fatalf("leave 5, crash 3 on %d members converted to %v, want %v", minMembers+2, s.Steps, want)
		}
		res, fin := executeE11(t, s)
		for i, st := range fin.Steps {
			if st.Size != minMembers {
				t.Errorf("step %d (%v): %d members left, want %d", i, s.Steps[i], st.Size, minMembers)
			}
		}
		if res.Left != 2 || res.FinalSize != minMembers {
			t.Errorf("%d left, %d members at the end; want 2 and %d", res.Left, res.FinalSize, minMembers)
		}
	})
}

// TestScheduleFiles holds the committed E11-E18 schedules to the repro
// format `nemesis -replay` takes: each loads and records no findings,
// and each E11 file is its script's conversion.
func TestScheduleFiles(t *testing.T) {
	files, err := filepath.Glob("testdata/*.json")
	if err != nil || len(files) != 11 {
		t.Fatalf("testdata holds schedules %v (%v), want eleven", files, err)
	}
	for _, f := range files {
		r, err := nemesis.LoadRepro(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
		} else if len(r.Findings) != 0 {
			t.Errorf("%s records findings: %v", f, r.Findings)
		}
		if want, ok := e11Files[strings.TrimSuffix(filepath.Base(f), ".json")]; ok && !reflect.DeepEqual(r.Schedule, want) {
			t.Errorf("%s is not its script's conversion:\n%+v\nwant\n%+v", f, r.Schedule, want)
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
// trace, and that tracing changes nothing the run prints. cmd/trace's
// TestReportE19 pins the whole report of the same run.
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
	if want := []int{20534, 3538, 64, 64}; !slices.Equal(got, want) {
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
		{[]string{"all", "-wire"}, 2, "does not take -wire"},
		{[]string{"selfheal"}, 2, "usage: paper"},
		{[]string{"workload", "-quiet"}, 2, "flag provided but not defined: -quiet"},
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
