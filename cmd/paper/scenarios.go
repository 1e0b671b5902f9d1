package main

import (
	"cmp"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/nemesis"
	"hypercube/internal/netcheck"
	"hypercube/internal/obs"
	"hypercube/internal/overlay"
)

// E11-E18 exercise what the paper's §7 leaves as future work — leave,
// failure recovery, table optimization — and the layers this repository
// stacks on them. Each is data: a committed schedule,
// testdata/<name>.json in the repro format `nemesis -replay` runs as
// is, executed by internal/nemesis on its stack and judged by its
// oracle.

// E11's schedules are two scripts of operations: churn's fixed §7
// script (E12 is its -small size) and workload's random one. Each
// operation is followed by a quiesce step, so Definition 3.8 is audited
// after every one, and each crash victim fails alone with a 20 s window
// before the next. E11 reports each step and the members not in system
// after each quiesce, and beyond the oracle every crash victim must be
// declared and every ordered pair of the members left must route.

// maintenance is the plane that runs whether or not a §7 protocol does:
// liveness probes and anti-entropy.
var maintenance = []msg.Type{msg.TPing, msg.TPong, msg.TSyncReq, msg.TSyncRly, msg.TSyncPush}

// lifecycle runs E11 schedule name and reports it step by step: what
// each step admitted, removed and delivered — the §7 protocols apart
// from the maintenance plane — and the rounds each quiesce took; then
// the messages of each operation by kind, the stretch around each
// optimization, and the scenario report.
func (x *env) lifecycle(name string) error {
	s, err := x.schedule(name)
	if err != nil {
		return err
	}
	res, fin, err := nemesis.Execute(s, nemesis.Options{Trace: x.sink})
	if err != nil {
		return err
	}
	// Each operation's members moved and §7 messages, in order of first
	// appearance.
	type total struct {
		op        nemesis.Op
		members   int
		delivered [msg.NumTypes + 1]uint64
	}
	var totals []total
	fmt.Fprintln(x.out)
	tw := tabwriter.NewWriter(x.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "step\taction\tjoined\tleft\tcrashed\tsettle rounds\tsize\tprotocol msgs\tmaintenance msgs")
	for i, st := range fin.Steps {
		a, settle := s.Steps[i], ""
		var upkeep uint64
		for _, t := range maintenance {
			upkeep += st.Delivered[t]
			st.Delivered[t] = 0
		}
		if a.Op == nemesis.OpQuiesce {
			settle = fmt.Sprint(st.SettleRounds)
		}
		fmt.Fprintf(tw, "%d\t%v\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n", i, a, st.Joined, st.Left, st.Crashed,
			settle, st.Size, sum(st.Delivered[:]), upkeep)
		if a.Op == nemesis.OpQuiesce {
			continue
		}
		k := slices.IndexFunc(totals, func(t total) bool { return t.op == a.Op })
		if k < 0 {
			k, totals = len(totals), append(totals, total{op: a.Op})
		}
		totals[k].members += st.Joined + st.Left + st.Crashed
		for t, n := range st.Delivered {
			totals[k].delivered[t] += n
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(x.out, "\n§7 protocol messages by operation:")
	for _, t := range totals {
		n := sum(t.delivered[:])
		fmt.Fprintf(x.out, "  %s: %d", t.op, n)
		if t.members > 0 {
			fmt.Fprintf(x.out, " (%.1f per member)", float64(n)/float64(t.members))
		}
		sep := ": "
		for _, mt := range msg.Types() {
			if t.delivered[mt] > 0 {
				fmt.Fprintf(x.out, "%s%d %v", sep, t.delivered[mt], mt)
				sep = ", "
			}
		}
		fmt.Fprintln(x.out)
	}
	for i, st := range fin.Steps {
		if s.Steps[i].Op == nemesis.OpOptimize {
			was, now := st.Stretch[0], st.Stretch[1]
			fmt.Fprintf(x.out, "optimization at step %d: %d/%d entries switched, stretch %.2f -> %.2f (p95 %.2f -> %.2f)\n",
				i, st.Optimize.Improved, st.Optimize.Considered, was.Mean, now.Mean, was.P95, now.P95)
		}
	}
	fmt.Fprintln(x.out)
	x.report(s, res, fin)
	var outside []string
	for i, st := range fin.Steps {
		if s.Steps[i].Op == nemesis.OpQuiesce && st.Outside > 0 {
			outside = append(outside, fmt.Sprintf("%d after step %d", st.Outside, i))
		}
	}
	fmt.Fprintf(x.out, "members not in system after a quiesce: %s\n", cmp.Or(strings.Join(outside, ", "), "none"))
	n, unroutable := fin.Net.Size(), netcheck.CheckAllPairsReachability(fin.Net.Params(), fin.Net.Tables())
	fmt.Fprintf(x.out, "%d of %d ordered pairs unroutable\n", len(unroutable), n*(n-1))
	if err := x.judge(name, res); err != nil {
		return err
	}
	return lifecycleVerdict(res, fin, unroutable)
}

func sum(counts []uint64) uint64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	return n
}

// gates collects the gates of a verdict that tripped.
type gates []error

func (g *gates) gate(tripped bool, format string, args ...any) {
	if tripped {
		*g = append(*g, fmt.Errorf(format, args...))
	}
}

// lifecycleVerdict judges an E11 execution on what the oracle does not
// cover: every crash victim declared by some survivor, and every
// ordered pair of the members left routable.
func lifecycleVerdict(res *nemesis.Result, fin *nemesis.Final, unroutable [][2]id.ID) error {
	var g gates
	detected := fin.Watch.Detected()
	g.gate(detected != res.Crashed, "%d of %d crash victims declared by no survivor", res.Crashed-detected, res.Crashed)
	g.gate(len(unroutable) != 0, "%d ordered pairs unroutable, first: %v", len(unroutable), unroutable[:min(1, len(unroutable))])
	return errors.Join(g...)
}

// final prints the line every scenario ends on.
func (x *env) final(net *overlay.Network) {
	state := "consistent"
	if v := net.CheckConsistency(); len(v) != 0 {
		state = fmt.Sprintf("%d violations", len(v))
	}
	gs := net.GuardStats()
	fmt.Fprintf(x.out, "\nfinal network: %d nodes, %s; guard: %d rejected, %d unknown dropped, %d quarantines (%d active), %d released, %d ingress-dropped, %d busy-deferred\n",
		net.Size(), state, gs.Rejected, gs.UnknownDropped,
		gs.Scorer.Quarantines, gs.Scorer.Quarantined, gs.Scorer.Releases,
		gs.IngressDropped, gs.BusyDeferred)
}

// -seed overrides a schedule's recorded seed, -small picks
// <name>-small.json where a scenario has one (`all -small` hands it to
// every scenario), and -with-byzantine prepends a step that marks
// byzFraction of the members hostile, E15's fault model.
const byzFraction = 0.10

//
//go:embed testdata/*.json
var schedules embed.FS

// schedule loads scenario name's committed schedule, applies the flags
// and prints its header: the report opens with what it runs.
func (x *env) schedule(name string) (nemesis.Schedule, error) {
	data, err := schedules.ReadFile("testdata/" + name + "-small.json")
	if !x.small || err != nil {
		data, err = schedules.ReadFile("testdata/" + name + ".json")
	}
	var r nemesis.Repro
	if err == nil {
		err = json.Unmarshal(data, &r)
	}
	if err != nil {
		return nemesis.Schedule{}, fmt.Errorf("schedule %s: %w", name, err)
	}
	s := r.Schedule
	if x.seedSet {
		s.Seed = uint64(x.seed)
	}
	if x.withByz {
		s.Steps = append([]nemesis.Action{{Op: nemesis.OpByzantine, Frac: byzFraction}}, s.Steps...)
	}
	fmt.Fprintf(x.out, "schedule: %d nodes (b=%d, d=%d), %s latency, seed %d\n", s.Nodes, s.B, s.D, s.Latency, s.Seed)
	return s, nil
}

// listSteps prints the steps of s, the rest of the report's opening.
func (x *env) listSteps(s nemesis.Schedule) {
	for i, a := range s.Steps {
		fmt.Fprintf(x.out, "  step %d: %v\n", i, a)
	}
	fmt.Fprintln(x.out)
}

// judge passes a run without findings. A run with findings fails, and
// leaves its schedule and findings behind in a temporary repro file
// that `nemesis -replay` re-executes to an exact match.
func (x *env) judge(name string, res *nemesis.Result) error {
	if !res.Failed() {
		return nil
	}
	f, err := os.CreateTemp("", "paper-"+name+"-*.json")
	if err != nil {
		return err
	}
	f.Close()
	if err := nemesis.WriteRepro(f.Name(), nemesis.Repro{Schedule: res.Schedule, Findings: res.Findings}); err != nil {
		return err
	}
	fmt.Fprintf(x.log, "paper %s: repro written to %s; replay it with\n\tgo run ./cmd/nemesis -replay %s\n", name, f.Name(), f.Name())
	return fmt.Errorf("%d oracle findings, first: %v", len(res.Findings), res.Findings[0])
}

// committed runs scenario name's committed schedule: E13's partition,
// E15's loss among hostile members, or one of E17's flash crowd, mass
// failure of whole stub domains, or every member restarted from its
// dump.
func (x *env) committed(name string) error {
	s, err := x.schedule(name)
	if err != nil {
		return err
	}
	x.listSteps(s)
	return x.scenario(name, s)
}

// scenario executes s and reports it. Beyond the oracle, a byzantine
// step must have mutated some envelope.
func (x *env) scenario(name string, s nemesis.Schedule) error {
	res, fin, err := nemesis.Execute(s, nemesis.Options{Trace: x.sink})
	if err != nil {
		return err
	}
	x.report(s, res, fin)
	if err := x.judge(name, res); err != nil {
		return err
	}
	if has(s, nemesis.OpByzantine) && fin.Net.ByzantineStats().Mutated == 0 {
		return errors.New("byzantine fault model never mutated an envelope: nothing was tested")
	}
	return nil
}

// report prints an execution of s from the executor's counters, the
// network it leaves and its declaration watcher, with a line for each
// kind of fault s holds open and for its quiesce steps.
func (x *env) report(s nemesis.Schedule, res *nemesis.Result, fin *nemesis.Final) {
	net, watch := fin.Net, fin.Watch
	ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	fmt.Fprintf(x.out, "executed: %d joined, %d crashed, %d restarted (%d from corrupt dumps); %v virtual\n",
		res.Joined, res.Crashed, res.Restarted, res.CorruptDumps, ms(res.VirtualEnd))
	if joins := net.Joins(); len(joins) > 0 {
		var sum time.Duration
		for _, r := range joins {
			sum += r.Ended - r.Started
		}
		fmt.Fprintf(x.out, "mean join latency %v over %d joins\n", ms(sum/time.Duration(len(joins))), len(joins))
	}
	fmt.Fprintf(x.out, "declarations: %d genuine, %d false", watch.Genuine(), watch.FalsePositives())
	if res.Crashed > 0 {
		fmt.Fprintf(x.out, "; %d/%d crashed members declared, mean detection %v", watch.Detected(), res.Crashed, ms(watch.MeanDetection()))
	}
	fmt.Fprintln(x.out)
	ls, bz := net.LivenessStats(), net.ByzantineStats()
	if has(s, nemesis.OpPartition) {
		fmt.Fprintf(x.out, "partition: %d messages cut, %d declarations held, partition mode entered %d / exited %d\n",
			net.PartitionDropped(), ls.DeclarationsHeld, ls.PartitionsEntered, ls.PartitionsExited)
	}
	if has(s, nemesis.OpLoss) {
		fmt.Fprintf(x.out, "loss: %d transmissions retried, %d dead-lettered; %d suspects, %d recovered\nhostile envelopes: %d mutated, %d withheld, %d replayed\n",
			net.Retransmits(), net.LostMessages(), ls.Suspects, ls.Recovered, bz.Mutated, bz.Withheld, bz.Replayed)
	}
	if has(s, nemesis.OpQuiesce) {
		fmt.Fprintf(x.out, "quiesce: consistent after %d sync rounds\n", res.SettleRounds)
	}
	x.final(net)
}

// has reports whether schedule s has a step of op.
func has(s nemesis.Schedule, op nemesis.Op) bool {
	return slices.ContainsFunc(s.Steps, func(a nemesis.Action) bool { return a.Op == op })
}

// grayRun is the outcome of one of E18's two arms.
type grayRun struct {
	falsePos    int
	detected    int           // distinct genuine crashes declared
	crashed     int           // genuine crashes injected
	meanDetect  time.Duration // mean crash-to-declaration latency
	marked      int           // degraded flags raised (adaptive only)
	latePongs   int
	deprio      int // anti-entropy rounds that skipped a degraded partner
	slowDelayed uint64
}

// gray runs E18's schedule twice, once with the adaptive per-peer RTT
// estimator and once with fixed timeouts, and prints the contrast. Only
// the adaptive arm is held to the oracle: the baseline is expected to
// misbehave, and its findings are part of the contrast.
func (x *env) gray() error {
	s, err := x.schedule("gray")
	if err != nil {
		return err
	}
	x.listSteps(s)
	adaptive, res, err := grayArm(s, x.sink)
	if err != nil {
		return err
	}
	// The baseline never gets the trace: its events would interleave
	// with the adaptive run's in one file.
	s.FixedTimeouts = true
	fixed, fixedRes, err := grayArm(s, nil)
	if err != nil {
		return err
	}

	ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	fmt.Fprintf(x.out, "%-28s %12s %12s\n", "", "adaptive", "fixed")
	fmt.Fprintf(x.out, "%-28s %12d %12d\n", "false declarations", adaptive.falsePos, fixed.falsePos)
	fmt.Fprintf(x.out, "%-28s %12s %12s\n", "genuine crashes declared",
		fmt.Sprintf("%d/%d", adaptive.detected, adaptive.crashed), fmt.Sprintf("%d/%d", fixed.detected, fixed.crashed))
	fmt.Fprintf(x.out, "%-28s %12v %12v\n", "mean crash detection", ms(adaptive.meanDetect), ms(fixed.meanDetect))
	fmt.Fprintf(x.out, "%-28s %12d %12d\n", "degraded flags raised", adaptive.marked, fixed.marked)
	fmt.Fprintf(x.out, "%-28s %12d %12d\n", "late pongs learned", adaptive.latePongs, fixed.latePongs)
	fmt.Fprintf(x.out, "%-28s %12d %12d\n", "sync partners deprioritized", adaptive.deprio, fixed.deprio)
	fmt.Fprintf(x.out, "%-28s %12d %12d\n", "slow-delayed messages", adaptive.slowDelayed, fixed.slowDelayed)
	fmt.Fprintf(x.out, "%-28s %12d %12d\n", "oracle findings", len(res.Findings), len(fixedRes.Findings))
	if err := x.judge("gray", res); err != nil {
		return err
	}
	if err := grayVerdict(adaptive, fixed); err != nil {
		return err
	}
	fmt.Fprintf(x.out, "\ncontrast holds: adaptive 0 false declarations; baseline %d false, detection %v vs %v\n",
		fixed.falsePos, ms(fixed.meanDetect), ms(adaptive.meanDetect))
	return nil
}

// grayVerdict judges the pair on what the adaptive arm's oracle does
// not cover (it already fails a false declaration or an inconsistent
// end): the adaptive run must catch every genuine crash and have
// engaged at all; and the baseline must visibly suffer, either by
// falsely declaring a slow-but-live node or by detecting the genuine
// crashes materially slower — otherwise fixed timeouts were already
// adequate and the scenario has no teeth.
func grayVerdict(adaptive, fixed grayRun) error {
	var g gates
	g.gate(adaptive.detected != adaptive.crashed, "adaptive run detected only %d of %d genuine crashes", adaptive.detected, adaptive.crashed)
	g.gate(adaptive.marked == 0, "no node was ever flagged degraded: the estimator never engaged")
	g.gate(adaptive.slowDelayed == 0, "slow-node model never delayed a message: nothing was tested")
	g.gate(fixed.falsePos == 0 && (adaptive.meanDetect <= 0 || float64(fixed.meanDetect) <= 1.2*float64(adaptive.meanDetect)),
		"baseline showed no contrast (0 false declarations, detection %v vs %v)", fixed.meanDetect, adaptive.meanDetect)
	return errors.Join(g...)
}

// grayArm executes one arm. Its error covers setup only; protocol
// outcomes — false declarations, missed crashes — are reported in
// grayRun for grayVerdict.
func grayArm(s nemesis.Schedule, trace obs.Sink) (grayRun, *nemesis.Result, error) {
	res, fin, err := nemesis.Execute(s, nemesis.Options{Trace: trace})
	if err != nil {
		return grayRun{}, nil, err
	}
	net, watch := fin.Net, fin.Watch
	ls, ae := net.LivenessStats(), net.AntiEntropyStats()
	return grayRun{
		falsePos:    watch.FalsePositives(),
		detected:    watch.Detected(),
		crashed:     res.Crashed,
		meanDetect:  watch.MeanDetection(),
		marked:      net.RTTStats().Marked,
		latePongs:   ls.LatePongs,
		deprio:      ae.Deprioritized,
		slowDelayed: net.SlowDelayed(),
	}, res, nil
}
