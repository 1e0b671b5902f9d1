package nemesis

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/nemesis/oracle"
	"hypercube/internal/node"
	"hypercube/internal/obs"
	"hypercube/internal/overlay"
	"hypercube/internal/table"
	"hypercube/internal/topology"
)

// Options tunes an execution without affecting its verdicts. The zero
// value is usable.
type Options struct {
	// Log, when non-nil, receives one progress line per executed step.
	Log io.Writer
	// Trace, when non-nil, receives every protocol event, every
	// operation causally traced: the input of `trace report`.
	Trace obs.Sink
}

// An execution is a function of its Schedule alone — a Repro records
// nothing else — so the stack is node.Shipped, the settle round is that
// profile's anti-entropy interval, and the audit size (sampled ordered
// pairs routed via Definition 3.7) and the delay of a slow step without
// one are constants.
const (
	reachPairs   = 16
	slowDelay    = 400 * time.Millisecond
	stretchPairs = 1000 // ordered pairs an optimize step measures stretch over
)

// Result is the outcome of executing one schedule. With an identical
// Schedule, every field is identical across runs — findings included —
// which is what lets a replay compare itself against a recording.
type Result struct {
	Schedule Schedule         `json:"schedule"`
	Findings []oracle.Finding `json:"findings,omitempty"`
	// Counters summarizing what the schedule actually did.
	Joined       int `json:"joined"`
	Left         int `json:"left"`
	Crashed      int `json:"crashed"`
	Restarted    int `json:"restarted"`
	CorruptDumps int `json:"corruptDumps"`
	Paused       int `json:"paused"`
	// SettleRounds sums the sync rounds the quiesce steps took to reach
	// Definition 3.8 consistency: the reconvergence time after a heal.
	SettleRounds int `json:"settleRounds"`
	// Final virtual clock and network size, cheap cross-run checksums of
	// the whole execution.
	VirtualEnd time.Duration `json:"virtualEnd"`
	FinalSize  int           `json:"finalSize"`
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Findings) != 0 }

// Final is what an execution leaves behind besides its Result: the
// settled network, the watcher that classified its declarations and
// what each step did. Result stays a comparable value; a report reads
// these.
type Final struct {
	Net   *overlay.Network
	Watch *oracle.DeclWatch
	Steps []Step
}

// Step is what one step of a schedule did, its Gap included: the
// change of Result's counters over it, the members at its end and how
// many of them were not in system (rejoining or leaving), the
// messages delivered during it by type, and for an optimize step the
// optimizer's statistics and the route stretch before and after it,
// over the same sampled pairs.
type Step struct {
	Joined, Left, Crashed int
	SettleRounds          int
	Size, Outside         int
	Delivered             [msg.NumTypes + 1]uint64
	Optimize              overlay.OptimizeStats
	Stretch               [2]overlay.StretchStats
}

// Execute runs one schedule against a freshly built network and returns
// its findings. The error return covers infrastructure problems (bad
// schedule, filesystem) only; protocol misbehavior is reported through
// Result.Findings, never through the error.
func Execute(s Schedule, opt Options) (*Result, *Final, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp("", "nemesis-")
	if err != nil {
		return nil, nil, fmt.Errorf("nemesis: %w", err)
	}
	defer os.RemoveAll(dir)

	e := &executor{s: s, opt: opt, dir: dir, res: &Result{Schedule: s}}
	if err := e.build(); err != nil {
		return nil, nil, err
	}
	for i, a := range s.Steps {
		e.step(i, a)
	}
	e.finish()
	e.res.VirtualEnd = e.net.Engine().Now()
	e.res.FinalSize = e.net.Size()
	e.res.Findings = e.findings
	return e.res, &Final{Net: e.net, Watch: e.watch, Steps: e.steps}, nil
}

// executor holds the mutable state of one schedule run. All bookkeeping
// uses sorted slices or is keyed per (seed, step) — map iteration never
// decides anything, so runs are bit-reproducible.
type executor struct {
	s   Schedule
	opt Options
	dir string
	res *Result

	net   *overlay.Network
	watch *oracle.DeclWatch
	p     id.Params
	// round is one settle round: the stack's anti-entropy interval.
	round time.Duration

	// Under the transit-stub latency model: the topology, the host
	// binding every issued ref gets, and each ref's stub domain.
	topo *topology.Topology
	tl   *overlay.TopologyLatency
	stub map[id.ID]int

	members []table.Ref    // established members, sorted by ID
	taken   map[id.ID]bool // every ID ever issued
	byz     map[id.ID]bool // hostile members
	slow    map[id.ID]bool // gray members
	pending []pendingJoin  // scheduled joiners not yet admitted
	leaves  map[id.ID]int  // scheduled graceful leaves -> step

	byzEver  bool
	lossEver bool
	findings []oracle.Finding
	steps    []Step
}

type pendingJoin struct {
	ref  table.Ref
	m    *core.Machine
	step int
}

// build configures the stack every schedule — generated or one of
// cmd/paper's E13-E18 scenarios — runs on: node.Shipped, the profile
// cmd/hypercubed deploys, without its RTT estimator when the schedule
// asks for fixed timeouts. On top come only simulation settings: every
// injector armed (loss at rate 0, slow and byzantine models with
// executor-driven selection), the clock pump and the trace sink.
// Latency is a constant 10 ms unless the schedule names the
// transit-stub model.
func (e *executor) build() error {
	e.p = id.Params{B: e.s.B, D: e.s.D}
	e.watch = oracle.NewDeclWatch()
	seed := int64(e.s.Seed)
	opts, parts := node.Shipped()
	e.round = parts.AntiEntropy.Interval
	cfg := overlay.Config{
		Params:       e.p,
		Latency:      overlay.ConstantLatency(10 * time.Millisecond),
		Opts:         opts,
		Liveness:     parts.Liveness,
		RTT:          parts.RTT,
		AntiEntropy:  parts.AntiEntropy,
		Byzantine:    &overlay.Byzantine{Seed: seed},
		Loss:         &overlay.Loss{Rate: 0, Seed: seed},
		TickInterval: 100 * time.Millisecond,
		Sink:         obs.Tee(e.opt.Trace, e.watch),
	}
	if e.s.FixedTimeouts {
		cfg.RTT = nil
	}
	if e.opt.Trace != nil {
		cfg.TraceSample, cfg.TraceSeed = 1, e.s.Seed
	}
	if e.s.Latency == LatencyTransitStub {
		topo, err := topology.Generate(topology.Small(seed))
		if err != nil {
			return fmt.Errorf("nemesis: %w", err)
		}
		e.topo, e.tl, e.stub = topo, overlay.NewTopologyLatency(topo), make(map[id.ID]int)
		cfg.Latency = e.tl.Func()
	}
	e.net = overlay.New(cfg)

	e.taken = make(map[id.ID]bool)
	e.byz = make(map[id.ID]bool)
	e.slow = make(map[id.ID]bool)
	e.leaves = make(map[id.ID]int)
	rng := rand.New(rand.NewSource(int64(e.s.Seed)))
	refs := overlay.RandomRefs(e.p, e.s.Nodes, rng, e.taken)
	e.bind(refs, rng)
	e.net.BuildDirect(refs, rng)
	e.members = append(e.members, refs...)
	e.sortMembers()
	e.net.RunFor(3 * time.Second) // warm-up: probers acquire, views fill
	return nil
}

// bind attaches each ref to a fresh end host of the topology, drawing
// from rng; under constant latency it draws nothing.
func (e *executor) bind(refs []table.Ref, rng *rand.Rand) {
	if e.topo == nil {
		return
	}
	for i, h := range e.topo.AttachHosts(len(refs), rng) {
		e.tl.Bind(refs[i].ID, h)
		e.stub[refs[i].ID] = e.topo.StubOf(e.topo.HostRouter(h))
	}
}

func (e *executor) sortMembers() {
	sort.Slice(e.members, func(i, j int) bool { return e.members[i].ID.Less(e.members[j].ID) })
}

func (e *executor) logf(format string, args ...any) {
	if e.opt.Log != nil {
		fmt.Fprintf(e.opt.Log, format+"\n", args...)
	}
}

func (e *executor) fail(check string, step int, format string, args ...any) {
	e.findings = append(e.findings, oracle.Finding{
		Check: check, Step: step, Detail: fmt.Sprintf(format, args...),
	})
}

// pick removes up to n eligible members from the candidate pool by a
// deterministic partial Fisher–Yates over the sorted member list.
func (e *executor) pick(r *rng, n int, eligible func(table.Ref) bool) []table.Ref {
	var cand []table.Ref
	for _, m := range e.members {
		if eligible == nil || eligible(m) {
			cand = append(cand, m)
		}
	}
	out := make([]table.Ref, 0, n)
	for i := 0; i < n && len(cand) > 0; i++ {
		j := r.Intn(len(cand))
		out = append(out, cand[j])
		cand = append(cand[:j], cand[j+1:]...)
	}
	return out
}

func (e *executor) honest(m table.Ref) bool { return !e.byz[m.ID] }
func (e *executor) fastHonest(m table.Ref) bool {
	return !e.byz[m.ID] && !e.slow[m.ID] && !e.leaving(m.ID)
}

func (e *executor) leaving(x id.ID) bool        { _, ok := e.leaves[x]; return ok }
func (e *executor) notLeaving(m table.Ref) bool { return !e.leaving(m.ID) }

func (e *executor) dropMember(x id.ID) {
	for i, m := range e.members {
		if m.ID == x {
			e.members = append(e.members[:i], e.members[i+1:]...)
			return
		}
	}
}

func (e *executor) step(i int, a Action) {
	e.logf("step %2d: %v", i, a)
	r := newRNG(e.s.Seed, uint64(i))
	was, delivered := *e.res, e.net.DeliveredByType()
	var st Step
	switch a.Op {
	case OpJoinWave:
		e.joinWave(i, a, r)
	case OpLeave:
		e.leave(i, a, r)
	case OpCrash:
		e.crash(e.pick(r, a.Count, e.notLeaving))
	case OpCrashStubs:
		e.crash(e.inStubs(r, a.Count))
	case OpPartition:
		e.partition(i, a, r)
	case OpSlow:
		for _, m := range e.pick(r, a.Count, e.fastHonest) {
			e.slow[m.ID] = true
			e.net.MarkSlow(cmp.Or(a.Dur, slowDelay), m.ID)
		}
	case OpByzantine:
		n := int(a.Frac * float64(len(e.members)))
		if n == 0 {
			n = 1
		}
		for _, m := range e.pick(r, n, e.fastHonest) {
			e.byz[m.ID] = true
			e.net.MarkByzantine(m.ID)
			e.byzEver = true
		}
	case OpLoss:
		e.lossEver = true
		if err := e.net.SetLossRate(a.Rate); err != nil {
			e.fail(oracle.CheckDeadLetter, i, "SetLossRate: %v", err)
			break
		}
		if a.Count > 0 {
			e.admit(i, a.Count, r, e.fastHonest, e.randomJoiner)
		}
		e.net.RunFor(a.Dur)
		_ = e.net.SetLossRate(0)
		e.closeJoins(i, a)
	case OpPause:
		for _, m := range e.pick(r, a.Count, e.honest) {
			if err := e.net.PauseNode(m.ID, a.Dur); err == nil {
				e.res.Paused++
			}
		}
		// Run past the pause so no node is still stalled when the next
		// action selects its targets.
		e.net.RunFor(a.Dur)
	case OpRestart:
		e.restart(i, a, r)
	case OpQuiesce:
		e.quiesce(i)
	case OpOptimize:
		seed := int64(r.Next())
		stretch := func() overlay.StretchStats {
			return e.net.MeasureStretch(stretchPairs, rand.New(rand.NewSource(seed)))
		}
		st.Stretch[0] = stretch()
		st.Optimize = e.net.OptimizeTables(a.Count)
		st.Stretch[1] = stretch()
	}
	e.net.RunFor(a.Gap)
	st.Joined, st.Left, st.Crashed = e.res.Joined-was.Joined, e.res.Left-was.Left, e.res.Crashed-was.Crashed
	st.SettleRounds, st.Size = e.res.SettleRounds-was.SettleRounds, e.net.Size()
	for _, m := range e.members {
		if mach, ok := e.net.Machine(m.ID); ok && !mach.IsSNode() {
			st.Outside++
		}
	}
	st.Delivered = e.net.DeliveredByType()
	for t, n := range delivered {
		st.Delivered[t] -= n
	}
	e.steps = append(e.steps, st)
}

// joinWave admits Count fresh joiners through up to three fast honest
// gateways and waits (bounded) for the whole wave to reach S-node.
// Joiners that miss the bound stay tracked and are judged at the final
// audit — a join may legitimately still be retrying here.
func (e *executor) joinWave(i int, a Action, r *rng) {
	e.admit(i, a.Count, r, e.fastHonest, e.randomJoiner)
	e.settleJoins(200)
}

// admit schedules count fresh joiners, each through one of up to three
// gateways drawn from the eligible members, with the others as its
// fallbacks, and tracks them as step i's pending joins. fresh issues
// each joiner's ref given its gateway. It returns the joiners.
func (e *executor) admit(i, count int, r *rng, eligible func(table.Ref) bool,
	fresh func(gw table.Ref, rng *rand.Rand) (table.Ref, bool)) []table.Ref {
	gws := e.pick(r, 3, eligible)
	if len(gws) == 0 {
		e.fail(oracle.CheckStuckJoin, i, "no eligible gateway for a %d-joiner wave", count)
		return nil
	}
	jrng := rand.New(rand.NewSource(int64(r.Next())))
	var joiners []table.Ref
	for k := 0; k < count; k++ {
		j, ok := fresh(gws[k%len(gws)], jrng)
		if !ok {
			e.fail(oracle.CheckStuckJoin, i, "no fresh ID fits joiner %d of %d under gateway %v", k+1, count, gws[k%len(gws)].ID)
			break
		}
		joiners = append(joiners, j)
	}
	e.bind(joiners, jrng)
	start := e.net.Engine().Now() + 100*time.Millisecond
	for k, j := range joiners {
		g := gws[k%len(gws)]
		fb1 := gws[(k+1)%len(gws)]
		fb2 := gws[(k+2)%len(gws)]
		m := e.net.ScheduleJoin(j, g, start, fb1, fb2)
		e.pending = append(e.pending, pendingJoin{ref: j, m: m, step: i})
	}
	return joiners
}

// randomJoiner issues a uniformly random fresh ID.
func (e *executor) randomJoiner(_ table.Ref, rng *rand.Rand) (table.Ref, bool) {
	return overlay.RandomRefs(e.p, 1, rng, e.taken)[0], true
}

// joinerUnder issues a fresh ID whose rightmost digit is the gateway's
// and whose two-digit suffix no issued ID shares. The first makes a
// join through the gateway resolve its copy phase without leaving the
// gateway's side of a cut (a deeper shared suffix could put the copy
// target across it); the second makes its deeper copy levels legally
// empty. It fails when every two-digit suffix under the gateway's digit
// is taken, or IDs have a single digit.
func (e *executor) joinerUnder(gw table.Ref, rng *rand.Rand) (table.Ref, bool) {
	if e.p.D < 2 {
		return table.Ref{}, false
	}
	y0 := gw.ID.Digit(0)
	used := make([]bool, e.p.B)
	for x := range e.taken {
		if x.Digit(0) == y0 {
			used[x.Digit(1)] = true
		}
	}
	var free []int
	for y1, u := range used {
		if !u {
			free = append(free, y1)
		}
	}
	if len(free) == 0 {
		return table.Ref{}, false
	}
	x := id.Random(e.p, rng).WithDigit(0, y0).WithDigit(1, free[rng.Intn(len(free))])
	e.taken[x] = true
	return table.Ref{ID: x, Addr: "sim://" + x.String()}, true
}

// closeJoins ends the window in which a partition or loss step held its
// Count joiners: each of step i's joiners that is not an S-node now is
// stuck at that step, and the admitted become members.
func (e *executor) closeJoins(i int, a Action) {
	if a.Count == 0 {
		return
	}
	for _, pj := range e.pending {
		if pj.step == i && !pj.m.IsSNode() {
			e.fail(oracle.CheckStuckJoin, i, "joiner %v not admitted when the fault closed (status %v)", pj.ref.ID, pj.m.Status())
		}
	}
	e.settleJoins(0)
}

// settleJoins advances sync rounds until every pending joiner is
// admitted or the round budget runs out, then promotes the admitted.
func (e *executor) settleJoins(maxRounds int) {
	for rounds := 0; rounds < maxRounds; rounds++ {
		stuck := false
		for _, pj := range e.pending {
			if !pj.m.IsSNode() {
				stuck = true
				break
			}
		}
		if !stuck {
			break
		}
		e.net.RunFor(e.round)
	}
	var still []pendingJoin
	for _, pj := range e.pending {
		if pj.m.IsSNode() {
			e.members = append(e.members, pj.ref)
			e.res.Joined++
		} else {
			still = append(still, pj)
		}
	}
	e.pending = still
	e.sortMembers()
}

func (e *executor) leave(i int, a Action, r *rng) {
	targets := e.pick(r, a.Count, e.fastHonest)
	now := e.net.Engine().Now()
	for _, m := range targets {
		if err := e.net.ScheduleLeave(m.ID, now+50*time.Millisecond); err != nil {
			e.fail(oracle.CheckStuckLeave, i, "%v", err)
			continue
		}
		// A departed node is genuinely gone: a peer that misses the
		// goodbye and declares it afterwards is behaving correctly, so
		// leavers never count as false positives.
		e.watch.MarkDead(m.ID)
		e.leaves[m.ID] = i
	}
	e.settleLeaves()
}

// settleLeaves waits, bounded, for the scheduled departures to
// finalize; stragglers are judged at the final audit.
func (e *executor) settleLeaves() {
	for rounds := 0; rounds < 100 && len(e.leaves) > 0; rounds++ {
		e.net.RunFor(e.round)
		for _, x := range e.net.FinalizeLeaves() {
			delete(e.leaves, x)
			e.dropMember(x)
			e.res.Left++
		}
	}
}

// crash kills the targets at one instant; the survivors must detect the
// deaths and repair on their own.
func (e *executor) crash(targets []table.Ref) {
	now := e.net.Engine().Now()
	for _, m := range targets {
		e.watch.MarkDeadAt(now, m.ID)
		if err := e.net.InjectFailure(m.ID); err != nil {
			continue
		}
		e.dropMember(m.ID)
		e.res.Crashed++
	}
}

// inStubs returns every member (not leaving) hosted in one of k stub
// domains drawn at random.
func (e *executor) inStubs(r *rng, k int) []table.Ref {
	perm := rand.New(rand.NewSource(int64(r.Next()))).Perm(e.topo.StubCount())
	stubs := perm[:min(k, len(perm))]
	var out []table.Ref
	for _, m := range e.members {
		if e.notLeaving(m) && slices.Contains(stubs, e.stub[m.ID]) {
			out = append(out, m)
		}
	}
	return out
}

// partition cuts a Frac minority away, holds the cut for Dur, heals, and
// lets the Gap absorb the reconciliation. Both sides must freeze
// declarations (partition mode); any declaration during the cut names a
// live node and surfaces as a false-positive finding. With Count > 0,
// Count fresh joiners enter through fast honest majority gateways as
// the cut starts, listed on the majority side, each under its
// gateway's rightmost digit (joinerUnder).
func (e *executor) partition(i int, a Action, r *rng) {
	k := int(a.Frac * float64(len(e.members)))
	if k < 1 {
		k = 1
	}
	minority := e.pick(r, k, nil)
	inMinority := make(map[id.ID]bool, len(minority))
	var minIDs []id.ID
	for _, m := range minority {
		inMinority[m.ID] = true
		minIDs = append(minIDs, m.ID)
	}
	var majIDs []id.ID
	for _, m := range e.members {
		if !inMinority[m.ID] {
			majIDs = append(majIDs, m.ID)
		}
	}
	if a.Count > 0 {
		majority := func(m table.Ref) bool { return !inMinority[m.ID] && e.fastHonest(m) }
		for _, j := range e.admit(i, a.Count, r, majority, e.joinerUnder) {
			majIDs = append(majIDs, j.ID)
		}
	}
	e.net.Partition(minIDs, majIDs)
	e.net.RunFor(a.Dur)
	e.closeJoins(i, a)
	e.net.Heal()
}

// restart persists each target, crashes it, and immediately brings it
// back: from the dump via rejoin when the dump is intact, via a fresh
// join when the dump was (deliberately) corrupted. Restarts are
// serialized — concurrently rejoining members already appear in each
// other's tables and could park each other in join-wait forever.
func (e *executor) restart(i int, a Action, r *rng) {
	targets := e.pick(r, a.Count, e.fastHonest)
	for _, m := range targets {
		path := filepath.Join(e.dir, m.ID.String()+".json")
		if err := e.net.Persist(m.ID, path); err != nil {
			e.fail(oracle.CheckPersist, i, "save: %v", err)
			continue
		}
		if a.Corrupt {
			e.flipByte(path, r)
		}
		if err := e.net.InjectFailure(m.ID); err != nil {
			continue
		}
		e.dropMember(m.ID)

		helper := e.pickHelper(r, m.ID)
		if helper.IsZero() {
			e.fail(oracle.CheckStuckJoin, i, "no live helper for restarting %v", m.ID)
			continue
		}
		mach, restored, err := e.net.Restart(m, path, helper)
		if err != nil {
			e.fail(oracle.CheckPersist, i, "restart of %v: %v", m.ID, err)
			continue
		}
		e.res.Restarted++
		if !restored {
			// Detected corruption: no state, fresh join.
			e.res.CorruptDumps++
			e.pending = append(e.pending, pendingJoin{ref: m, m: mach, step: i})
			e.settleJoins(200)
			continue
		}
		if a.Corrupt {
			// The dump was bit-flipped and load did not notice: the
			// checksum layer failed. This is exactly the class of bug the
			// corrupt flag exists to catch.
			e.fail(oracle.CheckPersist, i, "corrupted dump of %v loaded without error", m.ID)
		}
		e.members = append(e.members, m)
	}
	e.sortMembers()
}

// flipByte XORs one deterministic bit of the dump's owner value,
// modeling silent disk corruption. The flip targets a value byte, not
// whitespace: the checksum is over the canonical (re-encoded) form, so
// indentation damage is legitimately invisible to it and flipping there
// would under-test the detection layer.
func (e *executor) flipByte(path string, r *rng) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return
	}
	marker := []byte(`"owner": "`)
	off := bytes.Index(data, marker)
	if off >= 0 {
		off += len(marker)
	} else {
		off = len(data) / 2
	}
	data[off] ^= 1 << uint(r.Intn(4))
	_ = os.WriteFile(path, data, 0o644)
}

// pickHelper returns a fast honest live member other than self.
func (e *executor) pickHelper(r *rng, self id.ID) table.Ref {
	c := e.pick(r, 1, func(m table.Ref) bool { return m.ID != self && e.fastHonest(m) })
	if len(c) == 0 {
		return table.Ref{}
	}
	return c[0]
}

// quiesce settles to Definition 3.8 consistency (bounded) and runs the
// invariant oracle, stamping the step into any findings.
func (e *executor) quiesce(step int) {
	e.settleJoins(50)
	rounds, ok := e.net.Settle(e.round, 60)
	e.res.SettleRounds += rounds
	if !ok {
		e.fail(oracle.CheckConverge, step, "still inconsistent after 60 settle rounds")
	}
	e.findings = append(e.findings, oracle.Audit(e.net, reachPairs, e.s.Seed, step)...)
	e.findings = append(e.findings, oracle.AuditDeclarations(e.watch, step)...)
}

// finish restores a fault-free network (heal, full speed, no loss),
// settles, and runs the complete end-of-run oracle: consistency,
// reachability, declarations, stuck joiners and leavers, probers left
// in partition mode, guard honesty, and dead letters.
func (e *executor) finish() {
	e.net.Heal()
	_ = e.net.SetLossRate(0)
	var slowIDs []id.ID
	for _, m := range e.members {
		if e.slow[m.ID] {
			slowIDs = append(slowIDs, m.ID)
		}
	}
	e.net.UnmarkSlow(slowIDs...)
	e.net.RunFor(2 * time.Second)
	e.settleJoins(100)
	e.settleLeaves()
	if _, ok := e.net.Settle(e.round, 100); !ok {
		e.fail(oracle.CheckConverge, -1, "still inconsistent after 100 final settle rounds")
	}

	for _, pj := range e.pending {
		e.fail(oracle.CheckStuckJoin, -1, "joiner %v from step %d never admitted (status %v)",
			pj.ref.ID, pj.step, pj.m.Status())
	}
	var stuckLeaves []id.ID
	for x := range e.leaves {
		stuckLeaves = append(stuckLeaves, x)
	}
	sort.Slice(stuckLeaves, func(i, j int) bool { return stuckLeaves[i].Less(stuckLeaves[j]) })
	for _, x := range stuckLeaves {
		e.fail(oracle.CheckStuckLeave, -1, "leave of %v from step %d never completed", x, e.leaves[x])
	}

	if n := e.net.PartitionedCount(); n > 0 {
		e.fail(oracle.CheckPartitionMode, -1, "%d probers still in partition mode after the final settle", n)
	}

	e.findings = append(e.findings, oracle.Audit(e.net, reachPairs, e.s.Seed, -1)...)
	e.findings = append(e.findings, oracle.AuditDeclarations(e.watch, -1)...)

	if !e.byzEver {
		// Individual rejections are expected noise under churn (stale
		// envelopes referencing crashed nodes fail semantic validation),
		// but an all-honest run must never escalate to quarantining a
		// peer — that would let ordinary churn partition honest nodes.
		if gs := e.net.GuardStats(); gs.Scorer.Quarantines > 0 {
			e.fail(oracle.CheckGuardHonest, -1, "%d honest peers quarantined with no adversary marked", gs.Scorer.Quarantines)
		}
	}
	if !e.lossEver {
		if lost := e.net.LostMessages(); lost > 0 {
			e.fail(oracle.CheckDeadLetter, -1, "%d messages dead-lettered with loss never raised", lost)
		}
	}
}
