// Command churn exercises the §7 extension protocols (leave, failure
// recovery, table optimization) at scale and reports their cost and
// outcome: the paper proposes the conceptual foundation for these
// protocols as future work; this tool measures the implementation built
// on it.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"text/tabwriter"

	"time"

	"hypercube/internal/antientropy"
	"hypercube/internal/core"
	"hypercube/internal/guard"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/msg"
	"hypercube/internal/nemesis/oracle"
	"hypercube/internal/netcheck"
	"hypercube/internal/obs"
	"hypercube/internal/overlay"
	"hypercube/internal/table"
	"hypercube/internal/topology"
)

// traceSample is package-level because scenarioConfig (scenarios.go)
// reads it alongside the per-mode configs built here.
var traceSample = flag.Float64("trace-sample", 1, "causal-trace head-sampling rate in [0,1]; effective only with -trace (reconstruct with `trace report`)")

func main() {
	var (
		b      = flag.Int("b", 16, "digit base")
		d      = flag.Int("d", 8, "digits per ID")
		n      = flag.Int("n", 1000, "initial network size")
		leaves = flag.Int("leaves", 100, "graceful leaves (concurrent wave)")
		crash  = flag.Int("crashes", 20, "crash/recovery cycles")
		seed   = flag.Int64("seed", 1, "seed")
		auto   = flag.Bool("crash", false, "self-healing crash mode: nodes detect and repair crashes themselves (no recovery oracle)")
		heal   = flag.Duration("heal", 20*time.Second, "virtual healing window per crash in -crash mode")

		trace = flag.String("trace", "", "write every protocol event as JSONL to this file (analyze with `go run ./cmd/trace report`)")

		partition = flag.Bool("partition", false, "partition experiment: split the network into halves, verify declarations are held, heal, and measure anti-entropy reconvergence (replaces the churn phases)")
		split     = flag.Duration("split", 15*time.Second, "virtual duration of the partition in -partition mode")
		syncEvery = flag.Duration("sync-interval", time.Second, "anti-entropy round interval in -partition and -byzantine modes")
		joins     = flag.Int("joins", 2, "nodes joining mid-experiment in -partition and -byzantine modes")

		byzantine = flag.Bool("byzantine", false, "byzantine experiment: a fraction of members mutate, withhold, and replay their outgoing messages under 10% loss; the guard layer must absorb it and the network must stay consistent (replaces the churn phases)")
		byzFrac   = flag.Float64("byz-fraction", 0.1, "fraction of established members marked byzantine in -byzantine mode and under -with-byzantine")
		byzRate   = flag.Float64("byz-corrupt", 0.25, "per-envelope corruption probability of a byzantine sender in -byzantine mode and under -with-byzantine")
		byzWindow = flag.Duration("byz-window", 60*time.Second, "virtual run length of -byzantine mode")

		flashcrowd = flag.Bool("flashcrowd", false, "flash-crowd experiment: a wave of simultaneous joins funnels through a handful of gateways; every joiner must be admitted with zero false declarations (replaces the churn phases)")
		fcJoins    = flag.Int("fc-joins", 256, "simultaneous joiners in -flashcrowd mode")
		fcGateways = flag.Int("fc-gateways", 4, "distinct gateways admitting the -flashcrowd wave (1..4)")
		massfail   = flag.Bool("massfail", false, "mass-failure experiment: every member hosted in the chosen stub domains crashes at one instant; survivors must detect, repair, and reconverge with zero false declarations (replaces the churn phases)")
		mfStubs    = flag.Int("mf-stubs", 2, "stub domains killed in -massfail mode")
		rolling    = flag.Bool("rollingrestart", false, "rolling-restart experiment: every member restarts in waves, persisting its table and sampled peers to disk and rejoining from the dump; zero false declarations allowed (replaces the churn phases)")
		waveSize   = flag.Int("wave", 8, "restart wave size in -rollingrestart mode")
		withByz    = flag.Bool("with-byzantine", false, "compose the byzantine fault model (-byz-fraction, -byz-corrupt) into -flashcrowd, -massfail, -rollingrestart, or -graydegrade")

		gray       = flag.Bool("graydegrade", false, "gray-degradation experiment: a fraction of members turns slow-but-alive; the adaptive-timeout detector must hold every declaration while still catching genuine crashes, contrasted against the fixed-timeout baseline on the same seed (replaces the churn phases)")
		grayFrac   = flag.Float64("gray-fraction", 0.1, "fraction of members marked slow in -graydegrade mode")
		grayDelay  = flag.Duration("gray-delay", 600*time.Millisecond, "full per-side processing delay of a slow member in -graydegrade mode (a round trip through one slow endpoint inflates by twice this)")
		grayRamp   = flag.Duration("gray-ramp", 5*time.Second, "how long a slow member takes to ramp from zero to -gray-delay")
		grayWindow = flag.Duration("gray-window", 30*time.Second, "virtual degradation window of -graydegrade mode before the genuine crashes")
	)
	flag.Parse()
	p := id.Params{B: *b, D: *d}
	if err := p.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "churn: %v\n", err)
		os.Exit(1)
	}
	rng := rand.New(rand.NewSource(*seed))

	// exit flushes the trace (os.Exit skips defers) before terminating.
	var sink *obs.JSONL
	exit := func(code int) {
		if sink != nil {
			if err := sink.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "churn: trace: %v\n", err)
				code = 1
			}
		}
		os.Exit(code)
	}
	if *trace != "" {
		var err error
		if sink, err = obs.NewJSONLFile(*trace); err != nil {
			fmt.Fprintf(os.Stderr, "churn: %v\n", err)
			os.Exit(1)
		}
	}

	topo, err := topology.Generate(topology.Small(*seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "churn: %v\n", err)
		exit(1)
	}
	tl := overlay.NewTopologyLatency(topo)
	if *partition {
		exit(runPartition(p, *n, *joins, *seed, *split, *syncEvery, topo, tl, sink))
	}
	if *byzantine {
		exit(runByzantine(p, *n, *joins, *seed, *byzFrac, *byzRate, *byzWindow, *syncEvery, topo, tl, sink))
	}
	if *flashcrowd {
		exit(runFlashCrowd(p, *n, *fcJoins, *fcGateways, *seed, *syncEvery, *withByz, *byzFrac, *byzRate, topo, tl, sink))
	}
	if *massfail {
		exit(runMassFail(p, *n, *mfStubs, *seed, *syncEvery, *withByz, *byzFrac, *byzRate, topo, tl, sink))
	}
	if *rolling {
		exit(runRollingRestart(p, *n, *waveSize, *seed, *syncEvery, *withByz, *byzFrac, *byzRate, topo, tl, sink))
	}
	if *gray {
		exit(runGrayDegrade(p, *n, *seed, *grayFrac, *grayDelay, *grayRamp, *grayWindow, *syncEvery, *withByz, *byzFrac, *byzRate, topo, tl, sink))
	}
	cfg := overlay.Config{Params: p, Latency: tl.Func()}
	if sink != nil {
		// Assigning a nil *obs.JSONL directly would make cfg.Sink a
		// non-nil interface holding nil.
		cfg.Sink = sink
		cfg.TraceSample = *traceSample
		cfg.TraceSeed = uint64(*seed)
	}
	if *auto {
		// Self-healing mode: every node runs a failure detector and the
		// clock-driven repair machinery; crashes below are announced to
		// no one.
		cfg.Liveness = &liveness.Config{}
		cfg.Opts.Timeouts = core.Timeouts{RetryAfter: 500 * time.Millisecond}
		cfg.TickInterval = 100 * time.Millisecond
	}
	net := overlay.New(cfg)
	refs := overlay.RandomRefs(p, *n, rng, nil)
	hosts := topo.AttachHosts(len(refs), rng)
	for i, ref := range refs {
		tl.Bind(ref.ID, hosts[i])
	}
	net.BuildDirect(refs, rng)
	fmt.Printf("initial consistent network: %d nodes (b=%d, d=%d)\n\n", net.Size(), p.B, p.D)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)

	// Concurrent graceful leaves. Clamp to the network size so a small -n
	// with the default -leaves doesn't index past the member list.
	if *leaves > len(refs) {
		*leaves = len(refs)
	}
	before := net.Delivered()
	perm := rng.Perm(len(refs))
	for i := 0; i < *leaves; i++ {
		if err := net.ScheduleLeave(refs[perm[i]].ID, 0); err != nil {
			fmt.Fprintf(os.Stderr, "churn: %v\n", err)
			exit(1)
		}
	}
	net.Run()
	gone := net.FinalizeLeaves()
	leaveMsgs := net.Delivered() - before
	violations := len(net.CheckConsistency())
	fmt.Fprintf(w, "graceful leaves\tcompleted %d/%d\tmessages %d (%.1f/leave)\tviolations %d\n",
		len(gone), *leaves, leaveMsgs, float64(leaveMsgs)/float64(*leaves), violations)

	// Crash / recovery cycles: with -crash the survivors' own probe and
	// timeout machinery detects and repairs each crash during a healing
	// window of virtual time; the default path names the dead node to the
	// batch recovery oracle.
	var totalLocal, totalRouted, totalRejoin, totalEmptied, unrepaired int
	survivors := make([]id.ID, 0, net.Size())
	for _, ref := range net.Members() {
		survivors = append(survivors, ref.ID)
	}
	rng.Shuffle(len(survivors), func(i, j int) { survivors[i], survivors[j] = survivors[j], survivors[i] })
	before = net.Delivered()
	for i := 0; i < *crash && i < len(survivors); i++ {
		dead := survivors[i]
		if err := net.InjectFailure(dead); err != nil {
			fmt.Fprintf(os.Stderr, "churn: %v\n", err)
			exit(1)
		}
		if *auto {
			net.RunFor(*heal)
			continue
		}
		st := net.RecoverFailure(dead, rng, 0)
		totalLocal += st.LocalRepairs
		totalRouted += st.RoutedRepairs
		totalRejoin += st.Rejoined
		totalEmptied += st.Emptied
		unrepaired += st.Unrepaired
	}
	crashMsgs := net.Delivered() - before
	violations = len(net.CheckConsistency())
	fmt.Fprintf(w, "crash recovery\t%d crashes\tmessages %d (%.1f/crash)\tviolations %d\n",
		*crash, crashMsgs, float64(crashMsgs)/float64(*crash), violations)
	if *auto {
		ls := net.LivenessStats()
		fmt.Fprintf(w, "\tself-healing: %d probes, %d indirect, %d suspects, %d recovered, %d declared\t\t\n",
			ls.ProbesSent, ls.IndirectSent, ls.Suspects, ls.Recovered, ls.Declared)
	} else {
		fmt.Fprintf(w, "\trepairs: %d local, %d routed, %d rejoins, %d emptied, %d unrepaired\t\t\n",
			totalLocal, totalRouted, totalRejoin, totalEmptied, unrepaired)
	}

	// Table optimization.
	srng := rand.New(rand.NewSource(*seed + 1))
	beforeStretch := net.MeasureStretch(1000, rand.New(rand.NewSource(*seed+2)))
	opt := net.OptimizeTables(2)
	afterStretch := net.MeasureStretch(1000, rand.New(rand.NewSource(*seed+2)))
	_ = srng
	violations = len(net.CheckConsistency())
	fmt.Fprintf(w, "optimization\t%d/%d entries switched\tstretch %.2f -> %.2f (p95 %.2f -> %.2f)\tviolations %d\n",
		opt.Improved, opt.Considered, beforeStretch.Mean, afterStretch.Mean,
		beforeStretch.P95, afterStretch.P95, violations)
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "churn: %v\n", err)
		exit(1)
	}

	// Survivor-side counters (the leavers' machines are gone, so count
	// receipts rather than sends).
	traffic := net.AggregateTraffic()
	fmt.Printf("\n%d LeaveMsg received, %d FindMsg sent in total\n",
		traffic.ReceivedOf(msg.TLeave), traffic.SentOf(msg.TFind))
	if unrepaired != 0 {
		fmt.Fprintf(os.Stderr, "churn: %d table entries left unrepaired\n", unrepaired)
	}
	exit(reportFinal(net, unrepaired != 0))
}

// reportFinal routes every mode through the shared oracle report (node
// count, Definition 3.8 consistency, guard counters) so the exit
// semantics of plain churn runs and every scenario mode — here and in
// cmd/nemesis — stay identical.
func reportFinal(net *overlay.Network, earlierFailure bool) int {
	return oracle.ReportFinal(os.Stdout, os.Stderr, net, earlierFailure)
}

// partitionJoiner constructs a fresh node ID whose rightmost digit
// matches the gateway and whose two-digit suffix no current member
// shares. The first property makes a join routed through the gateway
// resolve its copy phase without crossing the partition (a deeper shared
// suffix could put the copy target on the unreachable side and stall the
// join forever); the second makes its deeper copy levels legally empty.
func partitionJoiner(p id.Params, refs []table.Ref, taken map[id.ID]bool, rng *rand.Rand) (table.Ref, bool) {
	const digits = "0123456789abcdef"
	y0 := refs[0].ID.Digit(0)
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

// printViolations lists every netcheck violation on stderr so a failing
// run names the broken entries instead of just exiting non-zero.
func printViolations(v []netcheck.Violation) {
	oracle.PrintViolations(os.Stderr, v)
}

// runPartition is the -partition experiment: build a consistent network,
// split it into halves for a window long enough that every failure
// detector times out many times over, verify that partition-aware
// liveness held all declarations, then heal and count the anti-entropy
// rounds until Definition 3.8 consistency returns. Exit status is
// non-zero if anything was falsely declared dead or the tables never
// reconverge.
func runPartition(p id.Params, n, joins int, seed int64, split, syncEvery time.Duration, topo *topology.Topology, tl *overlay.TopologyLatency, sink *obs.JSONL) int {
	rng := rand.New(rand.NewSource(seed))
	cfg := overlay.Config{
		Params:  p,
		Latency: tl.Func(),
		Opts:    core.Options{Timeouts: core.Timeouts{RetryAfter: 500 * time.Millisecond}},
		Liveness: &liveness.Config{
			// Probe fast enough that every target accrues several misses
			// within the split window even when the round-robin cycles
			// through a dozen-plus targets per prober.
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
	}
	if sink != nil {
		cfg.Sink = sink
		cfg.TraceSample = *traceSample
		cfg.TraceSeed = uint64(seed)
	}
	net := overlay.New(cfg)
	taken := make(map[id.ID]bool)
	refs := overlay.RandomRefs(p, n, rng, taken)
	hosts := topo.AttachHosts(len(refs), rng)
	for i, ref := range refs {
		tl.Bind(ref.ID, hosts[i])
	}
	net.BuildDirect(refs, rng)
	fmt.Printf("partition experiment: %d nodes (b=%d, d=%d), split %v, sync every %v, %d mid-split joins\n\n",
		net.Size(), p.B, p.D, split, syncEvery, joins)

	net.RunFor(2 * time.Second) // warm-up: probers acquire their targets
	if st := net.LivenessStats(); st.Declared != 0 {
		fmt.Fprintf(os.Stderr, "churn: %d declarations before the split\n", st.Declared)
		return 1
	}

	// Joiners enter through a side-A gateway while the network is split:
	// side B cannot hear about them, so its tables diverge and only the
	// post-heal anti-entropy rounds can reconverge them. Their IDs share
	// the gateway's rightmost digit so the join's copy phase resolves
	// inside side A (a random ID could legitimately need the unreachable
	// side and never finish joining), and they are listed in side A's
	// partition group — an unlisted node would keep full connectivity and
	// defeat the experiment.
	joiners := make([]table.Ref, 0, joins)
	for i := 0; i < joins; i++ {
		j, ok := partitionJoiner(p, refs, taken, rng)
		if !ok {
			// A truncated wave must fail loudly: continuing with fewer
			// joiners would silently run a different experiment than the
			// one the flags requested.
			fmt.Fprintf(os.Stderr, "churn: ID space under the gateway's digit exhausted after %d of %d joiners — rerun with -joins %d or fewer, or raise -b\n", i, joins, i)
			return 1
		}
		joiners = append(joiners, j)
	}
	jhosts := topo.AttachHosts(len(joiners), rng)
	sideA := make([]id.ID, 0, len(refs)/2+len(joiners))
	sideB := make([]id.ID, 0, len(refs)-len(refs)/2)
	for i, r := range refs {
		if i < len(refs)/2 {
			sideA = append(sideA, r.ID)
		} else {
			sideB = append(sideB, r.ID)
		}
	}
	jms := make([]*core.Machine, 0, len(joiners))
	for i, j := range joiners {
		tl.Bind(j.ID, jhosts[i])
		sideA = append(sideA, j.ID)
	}
	net.Partition(sideA, sideB)
	for _, j := range joiners {
		jms = append(jms, net.ScheduleJoin(j, refs[0], 4*time.Second, refs[1], refs[2]))
	}
	net.RunFor(split)
	st := net.LivenessStats()
	fmt.Printf("split %v: %d/%d probers in partition mode, %d messages cut, %d declarations held, %d declared\n",
		split, net.PartitionedCount(), net.Size(), net.PartitionDropped(), st.DeclarationsHeld, st.Declared)
	if st.Declared != 0 {
		fmt.Fprintf(os.Stderr, "churn: %d false-positive declarations during the partition\n", st.Declared)
		printViolations(net.CheckConsistency())
		return 1
	}
	for i, jm := range jms {
		if !jm.IsSNode() {
			fmt.Fprintf(os.Stderr, "churn: joiner %v stuck in %v — a partitioned side must still admit nodes\n",
				joiners[i].ID, jm.Status())
			return 1
		}
	}

	net.Heal()
	diverged := len(net.CheckConsistency())
	const maxRounds = 50
	rounds := 0
	for ; rounds < maxRounds && len(net.CheckConsistency()) != 0; rounds++ {
		net.RunFor(syncEvery)
	}
	ae := net.AntiEntropyStats()
	fmt.Printf("heal: %d violations at heal time, reconverged after %d anti-entropy rounds (%v); pulled %d, purged %d\n",
		diverged, rounds, time.Duration(rounds)*syncEvery, ae.Pulled, ae.Purged)

	// Settle: let the restored pongs clear the held suspicions so every
	// prober leaves partition mode before the final audit.
	net.RunFor(3 * time.Second)
	st = net.LivenessStats()
	fmt.Printf("\n%d declared (want 0), partition mode entered %d / exited %d\n",
		st.Declared, st.PartitionsEntered, st.PartitionsExited)
	if net.PartitionedCount() != 0 {
		fmt.Fprintf(os.Stderr, "churn: %d probers still in partition mode after heal\n", net.PartitionedCount())
	}
	return reportFinal(net, st.Declared != 0 || net.PartitionedCount() != 0)
}

// runByzantine is the -byzantine experiment: an established network in
// which a fraction of members corrupt their outgoing traffic (on top of
// 10% message loss) while honest nodes join through a wave. The guard
// layer must reject and charge every hostile envelope, the wave must
// complete, and the network must end Definition 3.8 consistent — all
// with zero false failure declarations.
func runByzantine(p id.Params, n, joins int, seed int64, frac, corrupt float64, window, syncEvery time.Duration, topo *topology.Topology, tl *overlay.TopologyLatency, sink *obs.JSONL) int {
	rng := rand.New(rand.NewSource(seed))
	cfg := overlay.Config{
		Params:  p,
		Latency: tl.Func(),
		Opts: core.Options{
			Timeouts: core.Timeouts{
				RetryAfter:  500 * time.Millisecond,
				MaxAttempts: 4,
				RepairAfter: 600 * time.Millisecond,
			},
			Guard: &guard.Policy{},
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
		Byzantine:    &overlay.Byzantine{Fraction: frac, CorruptRate: corrupt, Seed: seed},
	}
	if sink != nil {
		cfg.Sink = sink
		cfg.TraceSample = *traceSample
		cfg.TraceSeed = uint64(seed)
	}
	net := overlay.New(cfg)
	taken := make(map[id.ID]bool)
	refs := overlay.RandomRefs(p, n, rng, taken)
	hosts := topo.AttachHosts(len(refs), rng)
	for i, ref := range refs {
		tl.Bind(ref.ID, hosts[i])
	}
	net.BuildDirect(refs, rng)
	byz := net.SelectByzantine(refs)
	byzSet := make(map[id.ID]bool, len(byz))
	for _, x := range byz {
		byzSet[x] = true
	}
	// Joiners bootstrap through honest members: trusting an adversarial
	// gateway is the bootstrap-trust problem, out of scope here.
	honest := make([]table.Ref, 0, len(refs)-len(byz))
	for _, r := range refs {
		if !byzSet[r.ID] {
			honest = append(honest, r)
		}
	}
	fmt.Printf("byzantine experiment: %d nodes (b=%d, d=%d), %d byzantine (%.0f%%), corrupt rate %.2f, 10%% loss, %d joins, %v window\n\n",
		net.Size(), p.B, p.D, len(byz), 100*frac, corrupt, joins, window)

	joiners := overlay.RandomRefs(p, joins, rng, taken)
	jhosts := topo.AttachHosts(len(joiners), rng)
	jms := make([]*core.Machine, 0, len(joiners))
	for i, j := range joiners {
		tl.Bind(j.ID, jhosts[i])
		g := honest[rng.Intn(len(honest))]
		jms = append(jms, net.ScheduleJoin(j, g, time.Second, honest[0], honest[1]))
	}
	net.RunFor(window)

	stuck := 0
	for i, jm := range jms {
		if !jm.IsSNode() {
			fmt.Fprintf(os.Stderr, "churn: joiner %v stuck in %v under byzantine noise\n", joiners[i].ID, jm.Status())
			stuck++
		}
	}
	bz := net.ByzantineStats()
	st := net.LivenessStats()
	fmt.Printf("fault model: %d envelopes mutated, %d withheld, %d replayed\n", bz.Mutated, bz.Withheld, bz.Replayed)
	fmt.Printf("liveness: %d declared (want 0), %d suspects, %d recovered\n", st.Declared, st.Suspects, st.Recovered)
	if st.Declared != 0 {
		fmt.Fprintf(os.Stderr, "churn: %d live nodes declared failed under byzantine noise\n", st.Declared)
	}
	if bz.Mutated == 0 {
		fmt.Fprintf(os.Stderr, "churn: fault model never engaged — nothing was tested\n")
	}
	return reportFinal(net, stuck != 0 || st.Declared != 0 || bz.Mutated == 0)
}
