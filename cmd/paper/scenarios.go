package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"text/tabwriter"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/msg"
	"hypercube/internal/nemesis"
	"hypercube/internal/netcheck"
	"hypercube/internal/obs"
	"hypercube/internal/overlay"
	"hypercube/internal/table"
	"hypercube/internal/topology"
)

// E11-E18 exercise what the paper's §7 leaves as future work — leave,
// failure recovery, table optimization — and the layers this repository
// stacks on them. E11 is one applier of four operations below, driven by
// two scripts with their sizes as data beside them, at the values
// EXPERIMENTS.md documents: churn's fixed §7 script (E12 is its -small
// size) and workload's random one. E13-E18 are committed schedules (see
// schedules).

// The ID spaces of E11's two scripts.
var (
	scenarioParams = id.Params{B: 16, D: 8}
	workloadParams = id.Params{B: 16, D: 6}
)

// healWindow is the virtual time the survivors get to detect and repair
// each crash, which no one announces to them.
const healWindow = 20 * time.Second

// minMembers is the size below which no leave or crash takes a world.
const minMembers = 8

// selfHealing is the stack E11 runs on p: every node runs the failure
// detector and the clock-driven repair machinery.
func selfHealing(p id.Params) overlay.Config {
	return overlay.Config{
		Params:       p,
		Liveness:     &liveness.Config{},
		Opts:         core.Options{Timeouts: core.Timeouts{RetryAfter: 500 * time.Millisecond}},
		TickInterval: 100 * time.Millisecond,
	}
}

// world is what E11's scripts run on: a consistent network whose members
// sit on end hosts of the 248-router transit-stub topology. The order of
// draws from rng — member IDs, their hosts, BuildDirect, then what each
// operation draws — is part of every golden.
type world struct {
	rng   *rand.Rand
	net   *overlay.Network
	tl    *overlay.TopologyLatency
	taken map[id.ID]bool // every ID drawn, so no joiner reuses one
	live  []table.Ref    // the members, in the order leavers are drawn from
	outcome
}

// world builds n members in ID space p on the selfHealing stack. With
// -trace the events also go to the JSONL file, every operation causally
// traced: the file is the input of `trace report`'s span trees.
func (x *env) world(p id.Params, n int) (*world, error) {
	topo, err := topology.Generate(topology.Small(x.seed))
	if err != nil {
		return nil, err
	}
	w := &world{rng: rand.New(rand.NewSource(x.seed)), tl: overlay.NewTopologyLatency(topo), taken: make(map[id.ID]bool)}
	cfg := selfHealing(p)
	cfg.Latency = w.tl.Func()
	if x.sink != nil {
		cfg.Sink, cfg.TraceSample, cfg.TraceSeed = x.sink, 1, uint64(x.seed)
	}
	w.net = overlay.New(cfg)
	w.live = w.add(n)
	w.net.BuildDirect(w.live, w.rng)
	return w, nil
}

// add draws k fresh members and binds each to a host.
func (w *world) add(k int) []table.Ref {
	refs := overlay.RandomRefs(w.net.Params(), k, w.rng, w.taken)
	for i, h := range w.tl.Topo.AttachHosts(k, w.rng) {
		w.tl.Bind(refs[i].ID, h)
	}
	return refs
}

// opKind is one of E11's four operations.
type opKind uint8

const (
	opJoin opKind = iota
	opLeave
	opCrash
	opOptimize
)

func (k opKind) String() string { return [...]string{"join", "leave", "crash", "optimize"}[k] }

// op is one step of an E11 script: k members join, leave gracefully in
// one concurrent wave, or crash one after another; or k rounds of table
// optimization.
type op struct {
	kind opKind
	k    int
}

// step is what one op did.
type step struct {
	applied    int    // members that joined, left or crashed; optimization rounds
	declared   int    // crash victims some survivor declared
	messages   uint64 // delivered by the op itself, after a crash's warm-up
	violations int    // of Definition 3.8 after the op
	opt        overlay.OptimizeStats
}

// apply runs o and records in the world's outcome what breaks its
// gates. A leave or crash never takes the world below minMembers, and
// every op ends with every member in system: joins and leaves run to
// quiescence without the clock, so none may start while a node still
// waits on a timeout.
func (w *world) apply(o op) (step, error) {
	var s step
	net := w.net
	w.live = slices.DeleteFunc(w.live, func(r table.Ref) bool { _, ok := net.TableOf(r.ID); return !ok })
	before := net.Delivered()
	switch o.kind {
	case opJoin:
		joiners := w.add(o.k)
		for _, j := range joiners {
			net.ScheduleJoin(j, w.live[w.rng.Intn(len(w.live))], net.Engine().Now())
		}
		net.Run()
		w.live = append(w.live, joiners...)
		s.applied = len(joiners)
	case opLeave:
		s.applied = max(0, min(o.k, len(w.live)-minMembers))
		for _, i := range w.rng.Perm(len(w.live))[:s.applied] {
			if err := net.ScheduleLeave(w.live[i].ID, net.Engine().Now()); err != nil {
				return s, err
			}
		}
		net.Run()
		net.FinalizeLeaves()
	case opCrash:
		// A detector declares only a peer it has heard from: one it has
		// not is dropped as unreachable, with no gossip and no orphan
		// re-announcement. So every detector first gets a window to hear
		// from its peers, which the op is not charged for.
		net.RunFor(healWindow)
		before = net.Delivered()
		victims := net.Members()
		w.rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
		victims = victims[:max(0, min(o.k, len(victims)-minMembers))]
		for _, v := range victims {
			if err := net.InjectFailure(v.ID); err != nil {
				return s, err
			}
			net.RunFor(healWindow)
			if w.count(func(m *core.Machine) bool { return m.KnowsFailed(v.ID) }) > 0 {
				s.declared++
			} else {
				w.undeclared = append(w.undeclared, v.ID)
			}
		}
		// A survivor the crashes orphaned re-announces itself, and two
		// such rejoiners can wait on each other until an exchange times
		// out.
		for end := net.Engine().Now() + healWindow; w.count(outside) > 0 && net.Engine().Now() < end; {
			net.RunFor(time.Second)
		}
		s.applied = len(victims)
	case opOptimize:
		s.opt = net.OptimizeTables(o.k)
		s.applied = o.k
	}
	if n := w.count(outside); n > 0 {
		return s, fmt.Errorf("%d members not in system", n)
	}
	s.messages = net.Delivered() - before
	v := net.CheckConsistency()
	if len(w.violations) == 0 {
		w.violations = v
	}
	s.violations = len(v)
	return s, nil
}

// count is how many members' machines satisfy f. A machine records a
// crash (KnowsFailed) only after a declaration or its gossip: a holder
// that drops the victim as unreachable leaves no record.
func (w *world) count(f func(*core.Machine) bool) int {
	n := 0
	for _, r := range w.net.Members() {
		if m, _ := w.net.Machine(r.ID); f(m) {
			n++
		}
	}
	return n
}

// outside reports a machine not in system: joining, rejoining or leaving.
func outside(m *core.Machine) bool { return !m.IsSNode() }

// outcome is what E11's exit status is judged on. Every field's zero
// value is the good one.
type outcome struct {
	violations []netcheck.Violation // of Definition 3.8, after the first op that left any
	undeclared []id.ID              // crash victims no survivor declared within their window
	unroutable [][2]id.ID           // ordered pairs of members no route joins at the end
}

// gates collects the gates of a verdict that tripped.
type gates []error

func (g *gates) gate(tripped bool, format string, args ...any) {
	if tripped {
		*g = append(*g, fmt.Errorf(format, args...))
	}
}

// verdict makes a zero exit status a result: nil only if none of the
// gates above tripped.
func (o outcome) verdict() error {
	var g gates
	g.gate(len(o.violations) != 0, "an operation left %d Definition 3.8 violations, first: %v", len(o.violations), o.violations[:min(1, len(o.violations))])
	g.gate(len(o.undeclared) != 0, "%d crash victims declared by no survivor, first: %v", len(o.undeclared), o.undeclared[:min(1, len(o.undeclared))])
	g.gate(len(o.unroutable) != 0, "%d ordered pairs unroutable, first: %v", len(o.unroutable), o.unroutable[:min(1, len(o.unroutable))])
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

// churnSize is one size of churn's §7 script: n members, of which leaves
// depart gracefully in one concurrent wave and crashes fail one by one,
// then optimizeRounds of table optimization.
type churnSize struct{ n, leaves, crashes int }

var (
	churnFull  = churnSize{1000, 100, 20}
	churnSmall = churnSize{200, 20, 5} // E12
)

const (
	optimizeRounds = 2
	stretchPairs   = 1000
)

func (x *env) churn() error {
	if x.small {
		return x.phases(churnSmall)
	}
	return x.phases(churnFull)
}

// phases runs churn's script and reports each of the three §7
// protocols.
func (x *env) phases(sz churnSize) error {
	w, err := x.world(scenarioParams, sz.n)
	if err != nil {
		return err
	}
	net := w.net
	fmt.Fprintf(x.out, "initial consistent network: %d nodes (b=%d, d=%d)\n\n", net.Size(), scenarioParams.B, scenarioParams.D)
	tw := tabwriter.NewWriter(x.out, 2, 4, 2, ' ', 0)

	s, err := w.apply(op{opLeave, sz.leaves})
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "graceful leaves\tcompleted %d/%d\tmessages %d (%.1f/leave)\tviolations %d\n",
		s.applied, sz.leaves, s.messages, float64(s.messages)/float64(sz.leaves), s.violations)

	if s, err = w.apply(op{opCrash, sz.crashes}); err != nil {
		return err
	}
	fmt.Fprintf(tw, "crash recovery\t%d crashes\tmessages %d (%.1f/crash)\tviolations %d\t%d/%d victims declared\n",
		s.applied, s.messages, float64(s.messages)/float64(sz.crashes), s.violations, s.declared, s.applied)
	ls := net.LivenessStats()

	stretch := func() overlay.StretchStats {
		return net.MeasureStretch(stretchPairs, rand.New(rand.NewSource(x.seed+2)))
	}
	was := stretch()
	if s, err = w.apply(op{opOptimize, optimizeRounds}); err != nil {
		return err
	}
	now := stretch()
	fmt.Fprintf(tw, "optimization\t%d/%d entries switched\tstretch %.2f -> %.2f (p95 %.2f -> %.2f)\tviolations %d\n",
		s.opt.Improved, s.opt.Considered, was.Mean, now.Mean, was.P95, now.P95, s.violations)
	if err := tw.Flush(); err != nil {
		return err
	}

	// The leavers' machines are gone, so count receipts, not sends.
	traffic := net.AggregateTraffic()
	fmt.Fprintf(x.out, "\ncrash repairs by the survivors: %d probes, %d indirect, %d suspects, %d recovered, %d declared\n%d LeaveMsg received, %d FindMsg sent in total\n",
		ls.ProbesSent, ls.IndirectSent, ls.Suspects, ls.Recovered, ls.Declared,
		traffic.ReceivedOf(msg.TLeave), traffic.SentOf(msg.TFind))
	x.final(net)
	return w.verdict()
}

// workload's script: workloadOps operations drawn from their own seed,
// weighted 4:3:2:1 join, leave, crash, optimize; a join or leave moves
// up to 20 members, a crash up to 3, an optimization is one round. It
// runs on workloadInitial members and ends by routing every ordered pair.
const workloadInitial, workloadOps = 200, 60

func workloadScript(rng *rand.Rand) []op {
	script := make([]op, workloadOps)
	for i := range script {
		switch r := rng.Intn(10); {
		case r < 4:
			script[i] = op{opJoin, 1 + rng.Intn(20)}
		case r < 7:
			script[i] = op{opLeave, 1 + rng.Intn(20)}
		case r < 9:
			script[i] = op{opCrash, 1 + rng.Intn(3)}
		default:
			script[i] = op{opOptimize, 1}
		}
	}
	return script
}

func (x *env) workload() error {
	w, err := x.world(workloadParams, workloadInitial)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(x.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "#\top\tcount\tapplied\tsize\tmessages\tviolations")
	var applied [4]int
	var messages uint64
	declared := 0
	for i, o := range workloadScript(rand.New(rand.NewSource(x.seed * 31))) {
		s, err := w.apply(o)
		if err != nil {
			tw.Flush()
			return fmt.Errorf("op %d (%v): %w", i, o.kind, err)
		}
		applied[o.kind] += s.applied
		messages += s.messages
		declared += s.declared
		fmt.Fprintf(tw, "%d\t%v\t%d\t%d\t%d\t%d\t%d\n", i, o.kind, o.k, s.applied, w.net.Size(), s.messages, s.violations)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	w.unroutable = netcheck.CheckAllPairsReachability(workloadParams, w.net.Tables())
	n, state := w.net.Size(), "consistent after every operation"
	if len(w.violations) != 0 {
		state = "inconsistent after an operation"
	}
	fmt.Fprintf(x.out, "\n%d operations (%d joins, %d leaves, %d crashes, %d optimizations), %d messages; %d/%d crash victims declared\n",
		workloadOps, applied[opJoin], applied[opLeave], applied[opCrash], applied[opOptimize], messages, declared, applied[opCrash])
	fmt.Fprintf(x.out, "final network: %d nodes, %s, %d of %d ordered pairs unroutable\n", n, state, len(w.unroutable), n*(n-1))
	return w.verdict()
}

// E13-E18 are data: each scenario is a committed schedule,
// testdata/<name>.json in the repro format `nemesis -replay` runs as
// is, executed by internal/nemesis on its stack and judged by its
// oracle. -seed overrides the recorded seed, -small picks
// <name>-small.json where a scenario has one (`all -small` hands it to
// every scenario), and -with-byzantine prepends a step that marks
// byzFraction of the members hostile, E15's fault model.
const byzFraction = 0.10

//
//go:embed testdata/*.json
var schedules embed.FS

// schedule loads scenario name's committed schedule, applies the flags
// and prints the result: the report opens with what it runs.
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
	for i, a := range s.Steps {
		fmt.Fprintf(x.out, "  step %d: %v\n", i, a)
	}
	fmt.Fprintln(x.out)
	return s, nil
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
	return x.scenario(name, s)
}

// scenario executes s and reports it from the executor's counters, the
// network it leaves and its declaration watcher, with a line for each
// kind of fault s holds open and for its quiesce steps. Beyond the
// oracle, a byzantine step must have mutated some envelope.
func (x *env) scenario(name string, s nemesis.Schedule) error {
	res, fin, err := nemesis.Execute(s, nemesis.Options{Trace: x.sink})
	if err != nil {
		return err
	}
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
	if err := x.judge(name, res); err != nil {
		return err
	}
	if has(s, nemesis.OpByzantine) && bz.Mutated == 0 {
		return errors.New("byzantine fault model never mutated an envelope: nothing was tested")
	}
	return nil
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
