// Scenario suite: flash-crowd admission, correlated mass failure, and
// rolling restart with persistence. Each mode builds a consistent base
// network with the full robustness stack enabled (timeout handling,
// guard layer, failure detection, anti-entropy, gossip peer sampling),
// injects its fault pattern, and reports reconvergence rounds and
// false-declaration counts. The byzantine fault model composes into any
// of them via -with-byzantine.
package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hypercube/internal/antientropy"
	"hypercube/internal/core"
	"hypercube/internal/guard"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/nemesis/oracle"
	"hypercube/internal/obs"
	"hypercube/internal/overlay"
	"hypercube/internal/persist"
	"hypercube/internal/sampling"
	"hypercube/internal/table"
	"hypercube/internal/topology"
)

// scenarioConfig is the simulator configuration the scenario modes
// share: autonomous timeout handling, the guard layer, a
// latency-tolerant failure detector, anti-entropy repair, and the
// gossip peer-sampling layer feeding gateway selection, rejoin
// bootstrap, and sync-peer choice.
func scenarioConfig(p id.Params, seed int64, syncEvery time.Duration, tl *overlay.TopologyLatency, watch *oracle.DeclWatch, sink *obs.JSONL, byz bool, byzFrac, byzRate float64) overlay.Config {
	cfg := overlay.Config{
		Params:  p,
		Latency: tl.Func(),
		Opts: core.Options{
			Timeouts: core.Timeouts{
				RetryAfter:  500 * time.Millisecond,
				MaxAttempts: 6,
				RepairAfter: 600 * time.Millisecond,
			},
			Guard: &guard.Policy{},
		},
		Liveness: &liveness.Config{
			// Tolerant of stacked topology latencies and of churn-induced
			// load; every scenario treats a declaration of a live node as a
			// failure of the experiment.
			ProbeInterval:  250 * time.Millisecond,
			ProbeTimeout:   time.Second,
			SuspectAfter:   4,
			IndirectProbes: 3,
			ConfirmRounds:  4,
		},
		AntiEntropy:  &antientropy.Config{Interval: syncEvery},
		Sampling:     &sampling.Config{ViewSize: 16, Interval: syncEvery, Seed: seed},
		TickInterval: 100 * time.Millisecond,
	}
	if byz {
		cfg.Byzantine = &overlay.Byzantine{Fraction: byzFrac, CorruptRate: byzRate, Seed: seed}
	}
	var fwd obs.Sink
	if sink != nil {
		fwd = sink
		// A JSONL trace is the input of cross-node span reconstruction
		// (`trace report`), so tracing there means causal tracing too.
		cfg.TraceSample = *traceSample
		cfg.TraceSeed = uint64(seed)
	}
	cfg.Sink = obs.Tee(fwd, watch)
	return cfg
}

// buildScenarioBase installs a consistent n-member network with
// topology-bound latencies and returns the members plus each member's
// end-host index (for topology-correlated fault injection).
func buildScenarioBase(net *overlay.Network, p id.Params, n int, rng *rand.Rand, topo *topology.Topology, tl *overlay.TopologyLatency, taken map[id.ID]bool) ([]table.Ref, map[id.ID]int) {
	refs := overlay.RandomRefs(p, n, rng, taken)
	hosts := topo.AttachHosts(len(refs), rng)
	hostOf := make(map[id.ID]int, len(refs))
	for i, ref := range refs {
		tl.Bind(ref.ID, hosts[i])
		hostOf[ref.ID] = hosts[i]
	}
	net.BuildDirect(refs, rng)
	return refs, hostOf
}

// markScenarioByzantine applies the composable fault model: when the
// network was configured with one, a deterministic fraction of the base
// members starts corrupting its outgoing traffic. Returns the hostile
// set (empty when the model is off).
func markScenarioByzantine(net *overlay.Network, refs []table.Ref, enabled bool) map[id.ID]bool {
	set := make(map[id.ID]bool)
	if !enabled {
		return set
	}
	for _, x := range net.SelectByzantine(refs) {
		set[x] = true
	}
	return set
}

// reconverge advances the network in sync-interval rounds until
// Definition 3.8 consistency holds, up to maxRounds. Returns the rounds
// consumed and whether consistency was reached.
func reconverge(net *overlay.Network, syncEvery time.Duration, maxRounds int) (int, bool) {
	for r := 0; r < maxRounds; r++ {
		if len(net.CheckConsistency()) == 0 {
			return r, true
		}
		net.RunFor(syncEvery)
	}
	return maxRounds, len(net.CheckConsistency()) == 0
}

// checkIDCapacity fails loudly when a requested wave cannot fit: the
// random-ID generators retry until they find unused IDs, so asking for
// more than half the ID space degenerates into an endless search. This
// is the generalized form of the -partition gateway-digit exhaustion
// check.
func checkIDCapacity(p id.Params, want int) error {
	space := math.Pow(float64(p.B), float64(p.D))
	if float64(want) > space/2 {
		return fmt.Errorf("%d nodes would fill more than half of the %.0f-ID space (b=%d, d=%d) — shrink the wave or raise -b/-d", want, space, p.B, p.D)
	}
	return nil
}

// reportDeclarations prints the declaration audit every scenario shares
// and returns true when any live node was declared dead.
func reportDeclarations(w *oracle.DeclWatch) bool {
	fmt.Printf("declarations: %d genuine, %d false", w.Genuine(), w.FalsePositives())
	if w.FalsePositives() > 0 {
		fmt.Printf(" (e.g. %v)", w.Examples())
	}
	fmt.Println()
	return w.FalsePositives() != 0
}

// reportSampling prints the aggregate gossip peer-sampling counters.
func reportSampling(net *overlay.Network) {
	ss := net.SamplingStats()
	fmt.Printf("sampling: %d rounds, %d pushes received, %d pulls answered, %d flood rounds absorbed, %d peers ejected\n",
		ss.Rounds, ss.PushesReceived, ss.PullsAnswered, ss.FloodsDetected, ss.Ejected)
}

// runFlashCrowd is the -flashcrowd experiment: a wave of simultaneous
// joiners funnels through at most four gateways of an established
// network. The whole wave must be admitted, nothing may be falsely
// declared dead under the load, and the enlarged network must end
// Definition 3.8 consistent. The peer-sampling layer is what keeps the
// retry path alive: a joiner that exhausts its static gateways restarts
// through sampled peers instead of wedging.
func runFlashCrowd(p id.Params, n, joins, gateways int, seed int64, syncEvery time.Duration, byz bool, byzFrac, byzRate float64, topo *topology.Topology, tl *overlay.TopologyLatency, sink *obs.JSONL) int {
	if gateways < 1 || gateways > 4 {
		fmt.Fprintf(os.Stderr, "churn: -fc-gateways must be 1..4 (the experiment funnels the crowd through a handful of entry points), got %d\n", gateways)
		return 1
	}
	if err := checkIDCapacity(p, n+joins); err != nil {
		fmt.Fprintf(os.Stderr, "churn: %v\n", err)
		return 1
	}
	rng := rand.New(rand.NewSource(seed))
	watch := oracle.NewDeclWatch()
	net := overlay.New(scenarioConfig(p, seed, syncEvery, tl, watch, sink, byz, byzFrac, byzRate))
	taken := make(map[id.ID]bool)
	refs, _ := buildScenarioBase(net, p, n, rng, topo, tl, taken)
	byzSet := markScenarioByzantine(net, refs, byz)

	// Gateways must be honest: trusting an adversarial bootstrap is the
	// bootstrap-trust problem, out of scope as in -byzantine mode.
	gws := make([]table.Ref, 0, gateways)
	for _, r := range refs {
		if !byzSet[r.ID] {
			gws = append(gws, r)
			if len(gws) == gateways {
				break
			}
		}
	}
	if len(gws) < gateways {
		fmt.Fprintf(os.Stderr, "churn: only %d honest members for %d gateways\n", len(gws), gateways)
		return 1
	}
	fmt.Printf("flash crowd: %d nodes (b=%d, d=%d), %d simultaneous joins through %d gateways, %d byzantine, sync every %v\n\n",
		net.Size(), p.B, p.D, joins, gateways, len(byzSet), syncEvery)

	net.RunFor(2 * time.Second) // warm-up: probers acquire targets, views fill
	if watch.Total() != 0 {
		fmt.Fprintf(os.Stderr, "churn: %d declarations before the crowd arrived\n", watch.Total())
		return 1
	}

	joiners := overlay.RandomRefs(p, joins, rng, taken)
	jhosts := topo.AttachHosts(len(joiners), rng)
	start := net.Engine().Now() + 100*time.Millisecond
	jms := make([]*core.Machine, 0, len(joiners))
	for i, j := range joiners {
		tl.Bind(j.ID, jhosts[i])
		g := gws[i%len(gws)]
		fb1 := gws[(i+1)%len(gws)]
		fb2 := gws[(i+2)%len(gws)]
		jms = append(jms, net.ScheduleJoin(j, g, start, fb1, fb2))
	}

	// Admit the crowd: advance in sync rounds until every joiner is an
	// S-node. The scheduled joins only fire once time passes start, so
	// each round runs before the count is consulted.
	const maxAdmitRounds = 600
	notAdmitted := func() int {
		c := 0
		for _, jm := range jms {
			if !jm.IsSNode() {
				c++
			}
		}
		return c
	}
	admitRounds := 1
	for net.RunFor(syncEvery); admitRounds < maxAdmitRounds && notAdmitted() > 0; admitRounds++ {
		net.RunFor(syncEvery)
	}
	stuck := notAdmitted()
	shown := 0
	for i, jm := range jms {
		if jm.IsSNode() || shown >= 5 {
			continue
		}
		fmt.Fprintf(os.Stderr, "churn: joiner %v stuck in %v\n", joiners[i].ID, jm.Status())
		shown++
	}
	var meanJoin time.Duration
	if recs := net.JoinsSince(start); len(recs) > 0 {
		var sum time.Duration
		for _, r := range recs {
			sum += r.Ended - r.Started
		}
		meanJoin = sum / time.Duration(len(recs))
	}
	rounds, converged := reconverge(net, syncEvery, 100)
	fmt.Printf("admission: %d/%d joined after %d rounds (%v), mean join latency %v, %d stuck\n",
		len(joiners)-stuck, len(joiners), admitRounds, time.Duration(admitRounds)*syncEvery, meanJoin, stuck)
	fmt.Printf("reconvergence: consistent after %d further rounds\n", rounds)
	falseDecl := reportDeclarations(watch)
	reportSampling(net)
	if !converged {
		fmt.Fprintf(os.Stderr, "churn: network still inconsistent after %d rounds\n", rounds)
	}
	return reportFinal(net, stuck != 0 || falseDecl || !converged)
}

// runMassFail is the -massfail experiment: every member hosted in a
// handful of stub domains crashes at the same instant — the correlated
// loss pattern of a datacenter or access-network outage. Survivors must
// detect the deaths themselves, repair or provably empty the affected
// entries, and reconverge, without ever declaring a live node dead.
func runMassFail(p id.Params, n, stubsToKill int, seed int64, syncEvery time.Duration, byz bool, byzFrac, byzRate float64, topo *topology.Topology, tl *overlay.TopologyLatency, sink *obs.JSONL) int {
	if stubsToKill < 1 || stubsToKill >= topo.StubCount() {
		fmt.Fprintf(os.Stderr, "churn: -mf-stubs must be 1..%d (the topology has %d stub domains and at least one must survive), got %d\n",
			topo.StubCount()-1, topo.StubCount(), stubsToKill)
		return 1
	}
	rng := rand.New(rand.NewSource(seed))
	watch := oracle.NewDeclWatch()
	net := overlay.New(scenarioConfig(p, seed, syncEvery, tl, watch, sink, byz, byzFrac, byzRate))
	refs, hostOf := buildScenarioBase(net, p, n, rng, topo, tl, make(map[id.ID]bool))
	byzSet := markScenarioByzantine(net, refs, byz)

	chosen := make(map[int]bool, stubsToKill)
	for _, s := range rng.Perm(topo.StubCount())[:stubsToKill] {
		chosen[s] = true
	}
	var kill []id.ID
	for _, r := range refs {
		if chosen[topo.StubOf(topo.HostRouter(hostOf[r.ID]))] {
			kill = append(kill, r.ID)
		}
	}
	if len(kill) == 0 {
		fmt.Fprintf(os.Stderr, "churn: the chosen stub domains host no members — rerun with more members or a different seed\n")
		return 1
	}
	if len(kill) >= len(refs) {
		fmt.Fprintf(os.Stderr, "churn: the chosen stub domains host every member (%d/%d) — nothing would survive\n", len(kill), len(refs))
		return 1
	}
	fmt.Printf("mass failure: %d nodes (b=%d, d=%d), killing %d stub domains hosting %d members, %d byzantine, sync every %v\n\n",
		net.Size(), p.B, p.D, stubsToKill, len(kill), len(byzSet), syncEvery)

	net.RunFor(2 * time.Second) // warm-up
	if watch.Total() != 0 {
		fmt.Fprintf(os.Stderr, "churn: %d declarations before the outage\n", watch.Total())
		return 1
	}

	watch.MarkDead(kill...)
	for _, x := range kill {
		if err := net.InjectFailure(x); err != nil {
			fmt.Fprintf(os.Stderr, "churn: %v\n", err)
			return 1
		}
	}
	rounds, converged := reconverge(net, syncEvery, 300)
	fmt.Printf("outage: %d members gone; reconverged after %d rounds (%v)\n",
		len(kill), rounds, time.Duration(rounds)*syncEvery)
	falseDecl := reportDeclarations(watch)
	reportSampling(net)
	if !converged {
		fmt.Fprintf(os.Stderr, "churn: network still inconsistent %d rounds after the outage\n", rounds)
	}
	return reportFinal(net, falseDecl || !converged)
}

// runRollingRestart is the -rollingrestart experiment: every member of
// the network restarts, one wave at a time. A restarting node persists
// its table and its sampled peer set to disk, crashes, restarts from
// the dump as an established node, re-primes its sampler from the
// persisted peers, and re-announces itself with a rejoin bootstrapped
// through a persisted sampled peer. The restart is immediate in virtual
// time, so any failure declaration at all is a false positive.
func runRollingRestart(p id.Params, n, wave int, seed int64, syncEvery time.Duration, byz bool, byzFrac, byzRate float64, topo *topology.Topology, tl *overlay.TopologyLatency, sink *obs.JSONL) int {
	if wave < 1 {
		fmt.Fprintf(os.Stderr, "churn: -wave must be at least 1, got %d\n", wave)
		return 1
	}
	rng := rand.New(rand.NewSource(seed))
	watch := oracle.NewDeclWatch()
	net := overlay.New(scenarioConfig(p, seed, syncEvery, tl, watch, sink, byz, byzFrac, byzRate))
	refs, _ := buildScenarioBase(net, p, n, rng, topo, tl, make(map[id.ID]bool))
	byzSet := markScenarioByzantine(net, refs, byz)
	dir, err := os.MkdirTemp("", "churn-rolling-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "churn: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	waves := (len(refs) + wave - 1) / wave
	fmt.Printf("rolling restart: %d nodes (b=%d, d=%d), %d waves of %d, %d byzantine, sync every %v\n\n",
		net.Size(), p.B, p.D, waves, wave, len(byzSet), syncEvery)

	net.RunFor(2 * time.Second) // warm-up: sampler views fill before the first dump

	restarts, sampledBoots := 0, 0
	for w0 := 0; w0 < len(refs); w0 += wave {
		group := refs[w0:min(w0+wave, len(refs))]
		// Persist and crash the whole wave at one instant.
		for _, r := range group {
			tbl, ok := net.TableOf(r.ID)
			if !ok {
				fmt.Fprintf(os.Stderr, "churn: member %v has no table\n", r.ID)
				return 1
			}
			var sampled []table.Ref
			if s, ok := net.Sampler(r.ID); ok {
				sampled = s.View()
			}
			path := filepath.Join(dir, r.ID.String()+".json")
			if err := persist.SaveFileState(path, tbl.Snapshot(), sampled); err != nil {
				fmt.Fprintf(os.Stderr, "churn: %v\n", err)
				return 1
			}
			if err := net.InjectFailure(r.ID); err != nil {
				fmt.Fprintf(os.Stderr, "churn: %v\n", err)
				return 1
			}
		}
		// Restart each member from its dump. Rejoins are transmitted one
		// at a time (draining between them): concurrently rejoining
		// members already appear in each other's tables and could park
		// each other in join-wait forever.
		for _, r := range group {
			path := filepath.Join(dir, r.ID.String()+".json")
			snap, sampled, err := persist.LoadFileState(path, p)
			if err != nil {
				if !persist.IsCorrupt(err) {
					fmt.Fprintf(os.Stderr, "churn: %v\n", err)
					return 1
				}
				// A corrupt dump must not kill the restart: the node
				// comes back with no state and performs a fresh join.
				fmt.Fprintf(os.Stderr, "churn: %v — member %v restarting with a fresh join\n", err, r.ID)
				helper, _ := rejoinHelper(net, r, nil)
				if helper.IsZero() {
					fmt.Fprintf(os.Stderr, "churn: no live helper for restarting member %v\n", r.ID)
					return 1
				}
				net.ScheduleJoin(r, helper, net.Engine().Now())
				net.Run()
				restarts++
				continue
			}
			m := net.AddEstablished(r, persist.Restore(snap))
			if s, ok := net.Sampler(r.ID); ok && len(sampled) > 0 {
				s.SeedPeers(sampled...)
			}
			helper, viaSample := rejoinHelper(net, r, sampled)
			if helper.IsZero() {
				fmt.Fprintf(os.Stderr, "churn: no live helper for restarting member %v\n", r.ID)
				return 1
			}
			if viaSample {
				sampledBoots++
			}
			out, err := m.StartRejoin(helper)
			if err != nil {
				fmt.Fprintf(os.Stderr, "churn: rejoin of %v: %v\n", r.ID, err)
				return 1
			}
			net.Transmit(out)
			net.Run()
			restarts++
		}
		net.RunFor(syncEvery) // settle before the next wave
	}
	rounds, converged := reconverge(net, syncEvery, 100)
	fmt.Printf("restarts: %d/%d completed, %d bootstrapped through persisted sampled peers\n",
		restarts, len(refs), sampledBoots)
	fmt.Printf("reconvergence: consistent after %d rounds past the last wave\n", rounds)
	falseDecl := reportDeclarations(watch)
	reportSampling(net)
	if !converged {
		fmt.Fprintf(os.Stderr, "churn: network still inconsistent after the rolling restart\n")
	}
	return reportFinal(net, falseDecl || !converged || restarts != len(refs))
}

// rejoinHelper picks the bootstrap for a restarting member: the first
// persisted sampled peer that is currently alive (exercising the
// sampling layer's rejoin-bootstrap role), falling back to the lowest
// live member ID for determinism. Reports whether a sampled peer won.
func rejoinHelper(net *overlay.Network, self table.Ref, sampled []table.Ref) (table.Ref, bool) {
	for _, r := range sampled {
		if r.ID == self.ID {
			continue
		}
		if _, ok := net.Machine(r.ID); ok {
			return r, true
		}
	}
	members := net.Members()
	sort.Slice(members, func(i, j int) bool { return members[i].ID.Less(members[j].ID) })
	for _, r := range members {
		if r.ID != self.ID {
			return r, false
		}
	}
	return table.Ref{}, false
}
