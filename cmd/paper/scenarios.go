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

	"hypercube/internal/antientropy"
	"hypercube/internal/core"
	"hypercube/internal/guard"
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
// stacks on them. E11-E13 and E15 are Go drivers below, each with its
// size, seed and windows as data beside it, at the values EXPERIMENTS.md
// documents; syncEvery is their anti-entropy interval and settle round.
// E17 and E18 are committed schedules (see schedules).
const syncEvery = time.Second

// The ID space of E11-E13.
var scenarioParams = id.Params{B: 16, D: 8}

// world is what every Go-driven scenario starts from: a consistent
// network whose members sit on end hosts of the 248-router transit-stub
// topology. The order of draws from rng — member IDs, their hosts,
// BuildDirect, then whatever the scenario draws — is part of every
// golden.
type world struct {
	rng   *rand.Rand
	topo  *topology.Topology
	tl    *overlay.TopologyLatency
	net   *overlay.Network
	taken map[id.ID]bool // every ID issued so far
	refs  []table.Ref    // the initial members
}

// world builds n members under cfg, whose Latency it supplies. With
// -trace the events also go to the JSONL file, every operation causally
// traced: the file is the input of `trace report`'s span trees.
func (x *env) world(cfg overlay.Config, n int, seed int64) (*world, error) {
	topo, err := topology.Generate(topology.Small(seed))
	if err != nil {
		return nil, err
	}
	w := &world{
		rng:   rand.New(rand.NewSource(seed)),
		topo:  topo,
		tl:    overlay.NewTopologyLatency(topo),
		taken: make(map[id.ID]bool),
	}
	cfg.Latency = w.tl.Func()
	if x.sink != nil {
		cfg.Sink, cfg.TraceSample, cfg.TraceSeed = obs.Tee(x.sink, cfg.Sink), 1, uint64(seed)
	}
	w.net = overlay.New(cfg)
	w.refs = overlay.RandomRefs(cfg.Params, n, w.rng, w.taken)
	w.bind(w.refs)
	w.net.BuildDirect(w.refs, w.rng)
	return w, nil
}

// bind attaches one fresh end host per ref.
func (w *world) bind(refs []table.Ref) {
	hosts := w.topo.AttachHosts(len(refs), w.rng)
	for i, r := range refs {
		w.tl.Bind(r.ID, hosts[i])
	}
}

// seedOr is the seed a scenario documents, unless -seed was given.
func (x *env) seedOr(documented int64) int64 {
	if x.seedSet {
		return x.seed
	}
	return documented
}

// outcome is what a scenario's exit status is judged on. Every field's
// zero value is the good one; a scenario fills those its run can move.
type outcome struct {
	violations  []netcheck.Violation // of Definition 3.8 in the final network
	unrepaired  int                  // table entries RecoverFailure gave up on
	falseDecl   int                  // failure declarations naming a live node
	stuck       []string             // joiners that are not S-nodes
	partitioned int                  // probers still in partition mode after the heal
	inert       bool                 // the fault model under test never fired
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
	g.gate(o.unrepaired != 0, "%d table entries left unrepaired", o.unrepaired)
	g.gate(o.falseDecl != 0, "%d live nodes declared failed", o.falseDecl)
	g.gate(len(o.stuck) != 0, "%d joins did not complete: %v", len(o.stuck), o.stuck)
	g.gate(o.partitioned != 0, "%d probers still in partition mode after the heal", o.partitioned)
	g.gate(o.inert, "fault model never engaged: nothing was tested")
	g.gate(len(o.violations) != 0, "final network has %d Definition 3.8 violations, first: %v", len(o.violations), o.violations[:min(1, len(o.violations))])
	return errors.Join(g...)
}

// final prints the line every scenario ends on and returns the
// violations of Definition 3.8 the network is left with.
func (x *env) final(net *overlay.Network) []netcheck.Violation {
	v := net.CheckConsistency()
	state := "consistent"
	if len(v) != 0 {
		state = fmt.Sprintf("%d violations", len(v))
	}
	gs := net.GuardStats()
	fmt.Fprintf(x.out, "\nfinal network: %d nodes, %s; guard: %d rejected, %d unknown dropped, %d quarantines (%d active), %d released, %d ingress-dropped, %d busy-deferred\n",
		net.Size(), state, gs.Rejected, gs.UnknownDropped,
		gs.Scorer.Quarantines, gs.Scorer.Quarantined, gs.Scorer.Releases,
		gs.IngressDropped, gs.BusyDeferred)
	return v
}

// honest is refs without the hostile members: joiners bootstrap through
// honest gateways, because trusting an adversarial one is the
// bootstrap-trust problem, out of scope here.
func honest(refs []table.Ref, hostile []id.ID) []table.Ref {
	return slices.DeleteFunc(slices.Clone(refs), func(r table.Ref) bool { return slices.Contains(hostile, r.ID) })
}

// stuck names the joiners that are not S-nodes.
func stuck(joiners []table.Ref, jms []*core.Machine) []string {
	var out []string
	for i, jm := range jms {
		if !jm.IsSNode() {
			out = append(out, fmt.Sprintf("%v in %v", joiners[i].ID, jm.Status()))
		}
	}
	return out
}

// churnSize is one size of the E11 phases: n members, of which leaves
// depart gracefully in one concurrent wave and crashes fail one by one.
type churnSize struct{ n, leaves, crashes int }

var (
	churnFull  = churnSize{1000, 100, 20}
	churnSmall = churnSize{200, 20, 5} // also E12's size
)

const (
	selfhealWindow = 20 * time.Second // virtual healing time per unannounced crash
	optimizeRounds = 2
	stretchPairs   = 1000
)

func (x *env) churn() error {
	if x.small {
		return x.phases(churnSmall, false)
	}
	return x.phases(churnFull, false)
}

func (x *env) selfheal() error { return x.phases(churnSmall, true) }

// phases runs the three §7 protocols in turn. Each crash is named to
// the batch recovery oracle, unless selfHealing: then every node runs a
// failure detector and the clock-driven repair machinery, crashes are
// announced to no one, and the survivors get selfhealWindow to notice.
func (x *env) phases(sz churnSize, selfHealing bool) error {
	cfg := overlay.Config{Params: scenarioParams}
	if selfHealing {
		cfg.Liveness = &liveness.Config{}
		cfg.Opts.Timeouts = core.Timeouts{RetryAfter: 500 * time.Millisecond}
		cfg.TickInterval = 100 * time.Millisecond
	}
	w, err := x.world(cfg, sz.n, x.seed)
	if err != nil {
		return err
	}
	net, rng := w.net, w.rng
	fmt.Fprintf(x.out, "initial consistent network: %d nodes (b=%d, d=%d)\n\n", net.Size(), scenarioParams.B, scenarioParams.D)
	tw := tabwriter.NewWriter(x.out, 2, 4, 2, ' ', 0)

	before := net.Delivered()
	for _, i := range rng.Perm(len(w.refs))[:sz.leaves] {
		if err := net.ScheduleLeave(w.refs[i].ID, 0); err != nil {
			return err
		}
	}
	net.Run()
	gone := net.FinalizeLeaves()
	msgs := net.Delivered() - before
	fmt.Fprintf(tw, "graceful leaves\tcompleted %d/%d\tmessages %d (%.1f/leave)\tviolations %d\n",
		len(gone), sz.leaves, msgs, float64(msgs)/float64(sz.leaves), len(net.CheckConsistency()))

	var total overlay.RecoveryStats
	survivors := net.Members()
	rng.Shuffle(len(survivors), func(i, j int) { survivors[i], survivors[j] = survivors[j], survivors[i] })
	before = net.Delivered()
	for _, dead := range survivors[:sz.crashes] {
		if err := net.InjectFailure(dead.ID); err != nil {
			return err
		}
		if selfHealing {
			net.RunFor(selfhealWindow)
			continue
		}
		st := net.RecoverFailure(dead.ID, rng, 0)
		total.LocalRepairs += st.LocalRepairs
		total.RoutedRepairs += st.RoutedRepairs
		total.Rejoined += st.Rejoined
		total.Emptied += st.Emptied
		total.Unrepaired += st.Unrepaired
	}
	msgs = net.Delivered() - before
	fmt.Fprintf(tw, "crash recovery\t%d crashes\tmessages %d (%.1f/crash)\tviolations %d\n",
		sz.crashes, msgs, float64(msgs)/float64(sz.crashes), len(net.CheckConsistency()))
	repairs := fmt.Sprintf("by oracle: %d local, %d routed, %d rejoins, %d emptied, %d unrepaired",
		total.LocalRepairs, total.RoutedRepairs, total.Rejoined, total.Emptied, total.Unrepaired)
	if selfHealing {
		ls := net.LivenessStats()
		repairs = fmt.Sprintf("by the survivors: %d probes, %d indirect, %d suspects, %d recovered, %d declared",
			ls.ProbesSent, ls.IndirectSent, ls.Suspects, ls.Recovered, ls.Declared)
	}

	stretch := func() overlay.StretchStats {
		return net.MeasureStretch(stretchPairs, rand.New(rand.NewSource(x.seed+2)))
	}
	was := stretch()
	opt := net.OptimizeTables(optimizeRounds)
	now := stretch()
	fmt.Fprintf(tw, "optimization\t%d/%d entries switched\tstretch %.2f -> %.2f (p95 %.2f -> %.2f)\tviolations %d\n",
		opt.Improved, opt.Considered, was.Mean, now.Mean, was.P95, now.P95, len(net.CheckConsistency()))
	if err := tw.Flush(); err != nil {
		return err
	}

	// The leavers' machines are gone, so count receipts, not sends.
	traffic := net.AggregateTraffic()
	fmt.Fprintf(x.out, "\ncrash repairs %s\n%d LeaveMsg received, %d FindMsg sent in total\n",
		repairs, traffic.ReceivedOf(msg.TLeave), traffic.SentOf(msg.TFind))
	return outcome{violations: x.final(net), unrepaired: total.Unrepaired}.verdict()
}

// E13 splits partitionN members into halves for partitionSplit, long
// enough for every failure detector to time out many times over, while
// partitionJoins nodes join through one side.
const (
	partitionN     = 32
	partitionJoins = 2
	partitionSplit = 15 * time.Second
)

func (x *env) partition() error {
	w, err := x.world(overlay.Config{
		Params: scenarioParams,
		Opts:   core.Options{Timeouts: core.Timeouts{RetryAfter: 500 * time.Millisecond}},
		Liveness: &liveness.Config{
			// Probe fast enough that every target accrues several misses
			// within the split even when the round-robin cycles through a
			// dozen-plus targets per prober.
			ProbeInterval:  100 * time.Millisecond,
			ProbeTimeout:   400 * time.Millisecond,
			SuspectAfter:   3,
			IndirectProbes: 2,
			ConfirmRounds:  3,
			// Halving the network puts ~50% of each node's targets out of
			// reach; 0.3 trips comfortably below that while staying above
			// any plausible crash fraction.
			PartitionThreshold: 0.3,
		},
		AntiEntropy:  &antientropy.Config{Interval: syncEvery},
		TickInterval: 100 * time.Millisecond,
	}, partitionN, x.seed)
	if err != nil {
		return err
	}
	net, refs := w.net, w.refs
	fmt.Fprintf(x.out, "partition experiment: %d nodes (b=%d, d=%d), split %v, sync every %v, %d mid-split joins\n\n",
		net.Size(), scenarioParams.B, scenarioParams.D, partitionSplit, syncEvery, partitionJoins)
	net.RunFor(2 * time.Second) // warm-up: probers acquire their targets

	// Joiners enter through a side-A gateway while the network is split:
	// side B cannot hear about them, so its tables diverge and only the
	// post-heal anti-entropy rounds can reconverge them. They are listed
	// in side A's group — an unlisted node would keep full connectivity
	// and defeat the experiment.
	var joiners []table.Ref
	for len(joiners) < partitionJoins {
		j, ok := partitionJoiner(scenarioParams, refs[0], w.taken, w.rng)
		if !ok {
			return fmt.Errorf("ID space under the gateway's digit exhausted after %d of %d joiners", len(joiners), partitionJoins)
		}
		joiners = append(joiners, j)
	}
	w.bind(joiners)
	half := len(refs) / 2
	sideA, sideB := refIDs(refs[:half]), refIDs(refs[half:])
	sideA = append(sideA, refIDs(joiners)...)
	net.Partition(sideA, sideB)
	var jms []*core.Machine
	for _, j := range joiners {
		jms = append(jms, net.ScheduleJoin(j, refs[0], 4*time.Second, refs[1], refs[2]))
	}
	net.RunFor(partitionSplit)
	st := net.LivenessStats()
	fmt.Fprintf(x.out, "split %v: %d/%d probers in partition mode, %d messages cut, %d declarations held, %d declared\n",
		partitionSplit, net.PartitionedCount(), net.Size(), net.PartitionDropped(), st.DeclarationsHeld, st.Declared)
	// A partitioned side must still admit nodes.
	o := outcome{stuck: stuck(joiners, jms)}

	net.Heal()
	diverged := len(net.CheckConsistency())
	rounds, _ := net.Settle(syncEvery, 50)
	ae := net.AntiEntropyStats()
	fmt.Fprintf(x.out, "heal: %d violations at heal time, reconverged after %d anti-entropy rounds (%v); pulled %d, purged %d\n",
		diverged, rounds, time.Duration(rounds)*syncEvery, ae.Pulled, ae.Purged)

	// Let the restored pongs clear the held suspicions, so that every
	// prober leaves partition mode before the final audit.
	net.RunFor(3 * time.Second)
	st = net.LivenessStats()
	fmt.Fprintf(x.out, "\n%d declared (want 0), partition mode entered %d / exited %d\n",
		st.Declared, st.PartitionsEntered, st.PartitionsExited)
	// Nothing crashed, so every declaration is a false one.
	o.falseDecl, o.partitioned, o.violations = st.Declared, net.PartitionedCount(), x.final(net)
	return o.verdict()
}

func refIDs(refs []table.Ref) []id.ID {
	ids := make([]id.ID, len(refs))
	for i, r := range refs {
		ids[i] = r.ID
	}
	return ids
}

// partitionJoiner constructs a fresh node ID whose rightmost digit
// matches the gateway's and whose two-digit suffix no current member
// shares. The first property makes a join routed through the gateway
// resolve its copy phase without crossing the partition (a deeper shared
// suffix could put the copy target on the unreachable side and stall the
// join forever); the second makes its deeper copy levels legally empty.
func partitionJoiner(p id.Params, gateway table.Ref, taken map[id.ID]bool, rng *rand.Rand) (table.Ref, bool) {
	const digits = "0123456789abcdef"
	y0 := gateway.ID.Digit(0)
	usedY1 := make(map[int]bool)
	for x := range taken {
		if x.Digit(0) == y0 {
			usedY1[x.Digit(1)] = true
		}
	}
	free := make([]int, 0, p.B)
	for y1 := 0; y1 < p.B; y1++ {
		if !usedY1[y1] {
			free = append(free, y1)
		}
	}
	for _, y1 := range rng.Perm(len(free)) {
		for attempt := 0; attempt < 64; attempt++ {
			s := make([]byte, p.D)
			for i := 2; i < p.D; i++ {
				s[p.D-1-i] = digits[rng.Intn(p.B)]
			}
			s[p.D-1] = digits[y0]
			s[p.D-2] = digits[free[y1]]
			x, err := id.Parse(p, string(s))
			if err != nil || taken[x] {
				continue
			}
			taken[x] = true
			return table.Ref{ID: x, Addr: "sim://" + string(s)}, true
		}
	}
	return table.Ref{}, false
}

// E15: byzFraction of the members corrupt byzCorrupt of their outgoing
// envelopes, on top of 10% loss, while byzantineJoins honest nodes join.
var byzantineParams = id.Params{B: 4, D: 4}

const (
	byzantineSeed   = 21
	byzantineN      = 28
	byzantineJoins  = 4
	byzantineWindow = 60 * time.Second
	byzFraction     = 0.1
	byzCorrupt      = 0.25
)

func (x *env) byzantine() error {
	seed := x.seedOr(byzantineSeed)
	w, err := x.world(overlay.Config{
		Params: byzantineParams,
		Opts: core.Options{
			Timeouts: core.Timeouts{RetryAfter: 500 * time.Millisecond, MaxAttempts: 4, RepairAfter: 600 * time.Millisecond},
			Guard:    &guard.Policy{},
		},
		Loss: &overlay.Loss{Rate: 0.10, Seed: seed},
		Liveness: &liveness.Config{
			// Topology latencies stack up over the four hops of an indirect
			// probe, and 10% symmetric loss eats confirmation rounds;
			// tolerate both, since nothing in this experiment ever crashes.
			ProbeInterval:  100 * time.Millisecond,
			ProbeTimeout:   time.Second,
			SuspectAfter:   4,
			IndirectProbes: 3,
			ConfirmRounds:  4,
		},
		AntiEntropy:  &antientropy.Config{Interval: syncEvery},
		TickInterval: 100 * time.Millisecond,
		Byzantine:    &overlay.Byzantine{Fraction: byzFraction, CorruptRate: byzCorrupt, Seed: seed},
	}, byzantineN, seed)
	if err != nil {
		return err
	}
	net := w.net
	hostile := net.SelectByzantine(w.refs)
	gws := honest(w.refs, hostile)
	fmt.Fprintf(x.out, "byzantine experiment: %d nodes (b=%d, d=%d), %d byzantine (%.0f%%), corrupt rate %.2f, 10%% loss, %d joins, %v window\n\n",
		net.Size(), byzantineParams.B, byzantineParams.D, len(hostile), 100*byzFraction, byzCorrupt, byzantineJoins, byzantineWindow)

	joiners := overlay.RandomRefs(byzantineParams, byzantineJoins, w.rng, w.taken)
	w.bind(joiners)
	var jms []*core.Machine
	for _, j := range joiners {
		g := gws[w.rng.Intn(len(gws))]
		jms = append(jms, net.ScheduleJoin(j, g, time.Second, gws[0], gws[1]))
	}
	net.RunFor(byzantineWindow)

	bz, st := net.ByzantineStats(), net.LivenessStats()
	fmt.Fprintf(x.out, "fault model: %d envelopes mutated, %d withheld, %d replayed\n", bz.Mutated, bz.Withheld, bz.Replayed)
	fmt.Fprintf(x.out, "liveness: %d declared (want 0), %d suspects, %d recovered\n", st.Declared, st.Suspects, st.Recovered)
	return outcome{
		stuck:      stuck(joiners, jms),
		falseDecl:  st.Declared,
		inert:      bz.Mutated == 0,
		violations: x.final(net),
	}.verdict()
}

// E17 and E18 are data: each scenario is a committed schedule,
// testdata/<name>.json in the repro format `nemesis -replay` runs as
// is, executed by internal/nemesis on its stack and judged by its
// oracle. -seed overrides the recorded seed, -small picks
// <name>-small.json where a scenario has one (`all -small` hands it to
// every scenario), and -with-byzantine prepends a step that marks
// byzFraction of the members hostile.
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

// e17 runs one of E17's schedules: a flash crowd, a mass failure of
// whole stub domains, or every member restarted from its dump.
func (x *env) e17(name string) error {
	s, err := x.schedule(name)
	if err != nil {
		return err
	}
	return x.scenario(name, s)
}

// scenario executes s and reports it from the executor's counters, the
// network it leaves and its declaration watcher.
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
	ss := net.SamplingStats()
	fmt.Fprintf(x.out, "\nsampling: %d rounds, %d pushes received, %d pulls answered, %d flood rounds absorbed, %d peers ejected\n",
		ss.Rounds, ss.PushesReceived, ss.PullsAnswered, ss.FloodsDetected, ss.Ejected)
	x.final(net)
	return x.judge(name, res)
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
