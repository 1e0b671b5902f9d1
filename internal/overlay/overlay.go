// Package overlay is the simulation harness: it drives composed nodes
// (internal/node) from the discrete-event engine (internal/sim) through
// a pluggable latency model and fault models, builds initial consistent
// networks, schedules join waves, and verifies the results.
//
// This is the layer that reproduces the paper's simulation methodology:
// an initial consistent network of n nodes, m nodes joining concurrently
// at t=0, end-host latencies drawn from a transit-stub topology, and
// per-join message statistics.
// Run delivers a lookahead window of arrivals at a time on every core,
// and the run stays the single-event one (window.go).
package overlay

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"hypercube/internal/antientropy"
	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/msg"
	"hypercube/internal/netcheck"
	"hypercube/internal/node"
	"hypercube/internal/obs"
	"hypercube/internal/rtt"
	"hypercube/internal/sampling"
	"hypercube/internal/sim"
	"hypercube/internal/table"
	"hypercube/internal/topology"
	"hypercube/internal/trace"
)

// LatencyFunc is a one-way delivery latency model: the delay between two
// nodes, and its floor (nil reads 0, unknown), the width of Run's
// windows. The floor is a function because a topology's moves as nodes
// are bound to hosts.
type LatencyFunc struct {
	Between func(from, to table.Ref) time.Duration
	floor   func() time.Duration
}

// lowest returns the floor now.
func (l LatencyFunc) lowest() time.Duration {
	if l.floor == nil {
		return 0
	}
	return l.floor()
}

// fixed returns a floor that is always d.
func fixed(d time.Duration) func() time.Duration { return func() time.Duration { return d } }

// ConstantLatency returns a LatencyFunc with a fixed delay, its floor.
func ConstantLatency(d time.Duration) LatencyFunc {
	return LatencyFunc{Between: func(_, _ table.Ref) time.Duration { return d }, floor: fixed(d)}
}

// HashedUniformLatency returns a deterministic, symmetric LatencyFunc
// drawing each pair's latency uniformly from [min,max) by hashing the
// pair (plus seed), with floor min. Useful without a router topology.
func HashedUniformLatency(min, max time.Duration, seed int64) LatencyFunc {
	if max < min {
		panic(fmt.Sprintf("overlay: latency range [%v,%v) inverted", min, max))
	}
	span := int64(max - min)
	return LatencyFunc{floor: fixed(min), Between: func(from, to table.Ref) time.Duration {
		if span == 0 {
			return min
		}
		sum, _ := pairHash(seed, from.ID, to.ID)
		return min + time.Duration(int64(sum%uint64(span)))
	}}
}

// pairHash hashes the unordered pair {from,to} with seed: FNV-1a-64 over
// "<seed>|<low>|<high>", the two IDs in printed form with the
// lexicographically lower first. fromLow reports whether from was that
// lower one. The key is built in stack buffers (IDs of up to 48 digits),
// so the per-message latency and loss lookups do not allocate.
func pairHash(seed int64, from, to id.ID) (sum uint64, fromLow bool) {
	var fromBuf, toBuf [48]byte
	var keyBuf [128]byte
	lo, hi := from.AppendString(fromBuf[:0]), to.AppendString(toBuf[:0])
	fromLow = string(lo) <= string(hi)
	if !fromLow {
		lo, hi = hi, lo
	}
	key := strconv.AppendInt(keyBuf[:0], seed, 10)
	key = append(key, '|')
	key = append(key, lo...)
	key = append(key, '|')
	key = append(key, hi...)
	const offset64, prime64 = 14695981039346656037, 1099511628211 // FNV-1a, 64 bit
	sum = offset64
	for _, c := range key {
		sum ^= uint64(c)
		sum *= prime64
	}
	return sum, fromLow
}

// TopologyLatency maps node IDs to attached hosts of a transit-stub
// topology. Nodes must be bound with Bind before use.
type TopologyLatency struct {
	Topo  *topology.Topology
	hosts map[id.ID]int
	// owner is the first ID bound to each host. floor is a lower bound
	// on the latency between any two bound IDs: twice the smallest
	// access latency bound so far, as a path between two hosts crosses
	// both their access links, or 0 for good once two IDs share a host.
	owner map[int]id.ID
	floor time.Duration
}

// NewTopologyLatency creates an empty mapping over topo.
func NewTopologyLatency(topo *topology.Topology) *TopologyLatency {
	return &TopologyLatency{Topo: topo, hosts: make(map[id.ID]int), owner: make(map[int]id.ID), floor: -1}
}

// Bind assigns node x to host h.
func (tl *TopologyLatency) Bind(x id.ID, host int) {
	tl.hosts[x] = host
	if o, ok := tl.owner[host]; ok && o != x {
		tl.floor = 0
	} else if !ok {
		tl.owner[host] = x
	}
	if a := 2 * tl.Topo.AccessLatency(host); tl.floor < 0 || a < tl.floor {
		tl.floor = a
	}
}

// Func returns the LatencyFunc backed by the topology. Its floor is the
// one Bind keeps, read at each use, so it stays exact as nodes are
// bound after the network is built.
func (tl *TopologyLatency) Func() LatencyFunc {
	return LatencyFunc{Between: func(from, to table.Ref) time.Duration {
		ha, okA := tl.hosts[from.ID]
		hb, okB := tl.hosts[to.ID]
		if !okA || !okB {
			panic(fmt.Sprintf("overlay: unbound node in latency query (%v->%v)", from.ID, to.ID))
		}
		return tl.Topo.Latency(ha, hb)
	}, floor: func() time.Duration { return max(tl.floor, 0) }}
}

// Loss injects message loss with sender retransmission into the
// simulated delivery path — the discrete-event analogue of
// tcptransport's reliable-delivery layer. Each transmission is lost
// with probability Rate; a lost transmission is retried after an
// exponentially growing timeout (lossRetryDelay, doubling) until
// lossMaxAttempts transmissions are spent, at which point the message
// is dead-lettered. It lets join waves and the
// §7 churn scenarios run over an unreliable network while preserving
// seeded determinism.
type Loss struct {
	// Rate is the per-transmission loss probability in [0,1].
	Rate float64
	// Seed feeds the deterministic loss stream.
	Seed int64
	// OneWay restricts loss to a single direction per node pair (picked
	// by hashing the pair), modeling asymmetric path failures — the
	// scenario indirect probes exist for. The reverse direction delivers
	// reliably.
	OneWay bool
}

const (
	// lossRetryDelay is the first retransmission timeout of Loss; it
	// doubles per further attempt.
	lossRetryDelay = 50 * time.Millisecond
	// lossMaxAttempts is the total transmissions per message under Loss.
	lossMaxAttempts = 5
)

// Config parameterizes a simulated network.
type Config struct {
	Params id.Params
	Opts   core.Options
	// Latency models message delivery delay; zero means 10ms constant.
	Latency LatencyFunc
	// Loss optionally subjects deliveries to message loss with
	// retransmission; nil means the reliable network of the paper.
	Loss *Loss
	// Liveness attaches a failure detector (internal/liveness) to every
	// machine; nil disables autonomous failure detection.
	Liveness *liveness.Config
	// AntiEntropy attaches a table-audit engine (internal/antientropy)
	// to every machine, scheduled off the same virtual-clock pump as the
	// probers; nil disables anti-entropy rounds.
	AntiEntropy *antientropy.Config
	// Sampling attaches a gossip peer-sampling engine
	// (internal/sampling) to every machine, scheduled off the clock pump.
	// The machine's gateway selection, the anti-entropy engine's peer
	// choice, and restart bootstrap all gain the sampled-peer fallback;
	// nil disables the sampling layer.
	Sampling *sampling.Config
	// TickInterval is the cadence of the clock pump driving probers and
	// Machine.Tick during RunFor. Default 50ms.
	TickInterval time.Duration
	// Byzantine enables the adversarial fault model: members marked via
	// MarkByzantine have their outgoing protocol traffic
	// randomly mutated, withheld, or replayed (see Byzantine). Nil keeps
	// every member honest.
	Byzantine *Byzantine
	// RTT attaches a per-peer round-trip estimator (internal/rtt) to
	// every node, shared by its prober (adaptive probe deadlines, accrual
	// suspicion, late-pong learning) and its machine (per-peer seeded
	// exchange backoff); anti-entropy partner choice and the sampling
	// validator deprioritize peers the estimator flags degraded. Nil
	// keeps the fixed timeouts — and, because every adaptive path is
	// gated on the estimator, bit-identical legacy behavior.
	RTT *rtt.Config
	// Sink, when non-nil, receives every protocol event from every
	// machine, prober, and anti-entropy engine, stamped with the virtual
	// clock — the same trace schema live TCP runs produce, so
	// `trace report` works on either.
	Sink obs.Sink
	// TraceSample enables causal tracing: protocol-operation roots
	// (joins, probe round trips, sync and gossip rounds) are
	// head-sampled at this rate (0 = off, 1 = every operation), their
	// messages carry trace contexts on the wire, and events arrive at
	// the Sink span-stamped. Span IDs come from a deterministic
	// per-(TraceSeed, node) splitmix64 stream, so the same run always
	// traces identically.
	TraceSample float64
	// TraceSeed varies the deterministic span-ID streams between runs;
	// the zero seed is fine for single runs.
	TraceSeed uint64
}

// JoinRecord captures one node's completed join.
type JoinRecord struct {
	Ref     table.Ref
	Started time.Duration
	Ended   time.Duration
	// JoinNotiSent et al. snapshot the §5.2 cost metrics at completion.
	JoinNotiSent int
	CpRstSent    int
	JoinWaitSent int
	SpeNotiSent  int
	BytesSent    int
}

// Network is a simulated overlay network.
type Network struct {
	cfg    Config
	engine *sim.Engine
	// nodes holds every live member: its machine plus the optional parts
	// Config attaches, which every member gets alike (see internal/node).
	nodes map[id.ID]*node.Node
	// sorted caches sortedIDs; nil after any change of membership.
	sorted []id.ID
	parts  node.Config
	// joinersInFlight tracks joining machines not yet in system.
	joinersInFlight map[id.ID]time.Duration // start time
	// leaveOnReturn holds members whose scheduled leave found them
	// rejoining; the first pump round that finds one in system starts
	// its leave.
	leaveOnReturn map[id.ID]bool
	joins         []JoinRecord
	// delivered counts the messages delivered so far, by type.
	delivered [msg.NumTypes + 1]uint64
	// inFlight is the slab of transmissions between post and arrive, and
	// freeSlots its free list: an arrival event carries only a slot index,
	// so a transmission costs no closure (see arrivals).
	inFlight  []transmission
	freeSlots []int
	// removed marks nodes that left or failed; messages to them drop.
	removed map[id.ID]bool
	dropped uint64
	// lossRng drives Config.Loss; retransmits/lost tally its effects.
	lossRng     *rand.Rand
	retransmits uint64
	lost        uint64
	// partition maps nodes to their partition group; messages between
	// different groups drop in flight (Partition/Heal fault injection).
	partition        map[id.ID]int
	partitionDropped uint64
	// slow maps gray-marked nodes to their mark (MarkSlow); slowDelayed
	// counts transmissions the model delayed.
	slow        map[id.ID]slowMark
	slowDelayed uint64
	// byz marks byzantine members (Config.Byzantine); byzHistory is the
	// bounded replay ring of recently sent honest envelopes.
	byz            map[id.ID]bool
	byzRng         *rand.Rand
	byzHistory     []msg.Envelope
	byzHistoryNext int
	byzMutated     uint64
	byzWithheld    uint64
	byzReplayed    uint64
	// paused maps clock-paused nodes to their resume time (PauseNode);
	// pauseDeferred counts deliveries deferred into resume bursts.
	paused        map[id.ID]time.Duration
	pauseDeferred uint64
	// livenessUntil bounds tick-pump rescheduling so Run() can quiesce.
	livenessUntil time.Duration
	tickPending   bool
	// sink is Config.Sink wrapped with the virtual clock (nil when off).
	sink obs.Sink
	win  windows // the delivery window being prepared (window.go)
}

// New creates an empty network.
func New(cfg Config) *Network {
	if err := cfg.Params.Validate(); err != nil {
		panic(fmt.Sprintf("overlay: invalid params: %v", err))
	}
	if cfg.Latency.Between == nil {
		cfg.Latency = ConstantLatency(10 * time.Millisecond)
	}
	n := &Network{
		cfg:             cfg,
		engine:          sim.NewEngine(),
		nodes:           make(map[id.ID]*node.Node),
		joinersInFlight: make(map[id.ID]time.Duration),
		leaveOnReturn:   make(map[id.ID]bool),
		removed:         make(map[id.ID]bool),
		paused:          make(map[id.ID]time.Duration),
		slow:            make(map[id.ID]slowMark),
	}
	if cfg.Loss != nil {
		n.lossRng = rand.New(rand.NewSource(cfg.Loss.Seed))
	}
	if cfg.Byzantine != nil {
		n.byz = make(map[id.ID]bool)
		n.byzRng = rand.New(rand.NewSource(cfg.Byzantine.Seed))
	}
	n.sink = obs.Clocked(cfg.Sink, n.engine.Now)
	n.parts = node.Config{
		Liveness:    cfg.Liveness,
		AntiEntropy: cfg.AntiEntropy,
		Sampling:    cfg.Sampling,
		RTT:         cfg.RTT,
		Sink:        n.sink,
	}
	return n
}

// traceGenSeed folds a node's ID digits into the run's trace seed so
// each node draws a distinct — but per-(seed, node) deterministic —
// span-ID stream.
func traceGenSeed(seed uint64, x id.ID) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for i := 0; i < x.Len(); i++ {
		h = h*0x100000001b3 + uint64(x.Digit(i)) + 1
	}
	return h
}

// Engine exposes the underlying event engine (e.g. for custom schedules).
func (n *Network) Engine() *sim.Engine { return n.engine }

// Params returns the ID-space parameters.
func (n *Network) Params() id.Params { return n.cfg.Params }

// Size returns the number of nodes (machines) in the network.
func (n *Network) Size() int { return len(n.nodes) }

// AddSeed installs the first node of a network (§6.1).
func (n *Network) AddSeed(ref table.Ref) *core.Machine {
	m := core.NewSeed(n.cfg.Params, ref, n.cfg.Opts)
	n.addMachine(m)
	return m
}

// addMachine composes m into a node (Config's optional parts, the
// virtual-clock sink, a deterministic per-node tracer) and registers it.
func (n *Network) addMachine(m *core.Machine) *node.Node {
	x := m.Self().ID
	if _, dup := n.nodes[x]; dup {
		panic(fmt.Sprintf("overlay: duplicate node %v", x))
	}
	parts := n.parts
	if n.cfg.TraceSample > 0 {
		parts.Tracer = trace.NewTracer(trace.NewDeterministicGen(traceGenSeed(n.cfg.TraceSeed, x)), n.cfg.TraceSample)
	}
	nd := node.New(m, parts)
	nd.Advance(n.engine.Now())
	n.nodes[x] = nd
	n.sorted = nil
	return nd
}

// BuildDirect installs a consistent network over the given members using
// global knowledge (each entry gets a random qualifying member). This
// realizes the paper's premise of an existing consistent network without
// paying for n sequential joins; BuildByJoins is the protocol-driven
// alternative.
func (n *Network) BuildDirect(members []table.Ref, rng *rand.Rand) {
	machines := make([]*core.Machine, len(members))
	var held []int32                        // the members each table holds, table after table
	heldAt := make([]int32, len(members)+1) // table k's are held[heldAt[k]:heldAt[k+1]]
	netcheck.BuildConsistent(n.cfg.Params, members, rng, func(k int, tbl *table.Table, picks []int32) {
		machines[k] = n.addMachine(core.NewEstablished(n.cfg.Params, members[k], tbl, n.cfg.Opts)).Machine()
		held = append(held, picks...)
		heldAt[k+1] = int32(len(held))
	})
	// Register reverse neighbors with global knowledge: these tables never
	// exchanged RvNghNotiMsg, but the leave protocol requires every node
	// to know its holders. Holders are grouped per stored node first, in
	// ID order, so each reverse set is filled in one go by appends.
	start := make([]int32, len(members)+1) // u's holders are holders[start[u]:start[u+1]]
	for _, u := range held {
		start[u+1]++
	}
	for u := range members {
		start[u+1] += start[u]
	}
	byID := make([]int32, len(members))
	for x := range byID {
		byID[x] = int32(x)
	}
	slices.SortFunc(byID, func(x, y int32) int { return members[x].ID.Compare(members[y].ID) })
	holders, next := make([]int32, len(held)), slices.Clone(start)
	for _, x := range byID {
		for _, u := range held[heldAt[x]:heldAt[x+1]] {
			holders[next[u]] = x
			next[u]++
		}
	}
	for u, m := range machines {
		for _, x := range holders[start[u]:start[u+1]] {
			m.AddReverseNeighbor(members[x])
		}
	}
}

// BuildByJoins constructs the network via the join protocol itself
// (§6.1): the first member seeds the network and the rest join
// sequentially, each bootstrapping from a random established member.
func (n *Network) BuildByJoins(members []table.Ref, rng *rand.Rand) error {
	if len(members) == 0 {
		return fmt.Errorf("overlay: no members")
	}
	n.AddSeed(members[0])
	established := []table.Ref{members[0]}
	for _, ref := range members[1:] {
		g0 := established[rng.Intn(len(established))]
		m := n.ScheduleJoin(ref, g0, n.engine.Now())
		n.Run()
		if !m.IsSNode() {
			return fmt.Errorf("overlay: node %v failed to join (status %v)", ref.ID, m.Status())
		}
		established = append(established, ref)
	}
	return nil
}

// ScheduleJoin creates a joiner machine and schedules its StartJoin at
// the given virtual time. Optional fallback refs are registered as
// restart gateways: if the bootstrap crashes mid-join, the machine's
// timeout handling re-runs the join through one of them.
func (n *Network) ScheduleJoin(ref table.Ref, g0 table.Ref, at time.Duration, fallbacks ...table.Ref) *core.Machine {
	m := core.NewJoiner(n.cfg.Params, ref, n.cfg.Opts)
	m.AddGateways(fallbacks...)
	nd := n.addMachine(m)
	n.engine.ScheduleAt(at, func() {
		n.joinersInFlight[ref.ID] = n.engine.Now()
		nd.Advance(n.engine.Now())
		out, err := m.StartJoin(g0)
		if err != nil {
			panic(fmt.Sprintf("overlay: scheduled join of %v: %v", ref.ID, err))
		}
		n.transmit(out)
	})
	return m
}

// transmit schedules delivery of each envelope after its pair latency.
// Envelopes leaving a byzantine member pass through the fault model
// first (see byzantine.go); honest traffic feeds the replay history.
func (n *Network) transmit(envs []msg.Envelope) {
	for _, env := range envs {
		if n.cfg.Byzantine != nil && n.byz[env.From.ID] {
			for _, e := range n.corruptOutgoing(env) {
				n.post(e, 1)
			}
			continue
		}
		n.recordHistory(env)
		n.post(env, 1)
	}
}

// post schedules one transmission attempt of env. Under Config.Loss a
// transmission may be lost in flight; the sender then retransmits
// after an exponential timeout, and gives up (dead-letter) after
// MaxAttempts transmissions. Probes (Ping/Pong) are never retransmitted:
// detecting their loss is the failure detector's whole job, and a
// reliable probe channel would mask exactly the signal it measures.
func (n *Network) post(env msg.Envelope, attempt int32) {
	delay := n.cfg.Latency.Between(env.From, env.To)
	if attempt > 1 {
		delay += lossRetryDelay << (attempt - 2)
	}
	if len(n.slow) > 0 {
		// Gray nodes are slow on both sides: sending late and processing
		// received traffic late. Both legs of a round trip through a slow
		// node inflate, which is what its peers' estimators must learn.
		now := n.engine.Now()
		if extra := n.slowDelay(env.From.ID, now) + n.slowDelay(env.To.ID, now); extra > 0 {
			delay += extra
			n.slowDelayed++
		}
	}
	slot := len(n.inFlight)
	if k := len(n.freeSlots); k > 0 {
		slot, n.freeSlots = n.freeSlots[k-1], n.freeSlots[:k-1]
	} else {
		n.inFlight = append(n.inFlight, transmission{})
	}
	n.inFlight[slot] = transmission{env: env, attempt: attempt}
	n.engine.ScheduleHandler(delay, (*arrivals)(n), slot)
}

// transmission is one attempt to carry env, parked in Network.inFlight
// while its arrival is queued; ahead is its window position+1, if any.
type transmission struct {
	env            msg.Envelope
	attempt, ahead int32
}

// arrivals is the Network as the sim.Windowed handler of its transmissions.
type arrivals Network

func (a *arrivals) Handle(slot int)            { (*Network)(a).arrive(slot) }
func (a *arrivals) Width() time.Duration       { return (*Network)(a).width() }
func (a *arrivals) Prepare(window []sim.Event) { (*Network)(a).prepare(window) }

// arrive ends the transmission parked in slot: the message is cut by a
// partition, lost (and retransmitted or dead-lettered), or delivered.
func (n *Network) arrive(slot int) {
	env, attempt, ahead := n.inFlight[slot].env, n.inFlight[slot].attempt, n.inFlight[slot].ahead
	n.inFlight[slot] = transmission{} // let the message be collected
	n.freeSlots = append(n.freeSlots, slot)
	// Partition cut: checked at delivery time so a Heal() scheduled
	// mid-flight takes effect immediately. The drop is final — no
	// retransmission reaches across a partition; the senders'
	// exchange timeouts and the failure detector see the silence.
	if n.partitionCut(env.From.ID, env.To.ID) {
		n.partitionDropped++
		return
	}
	if n.cfg.Loss != nil && n.lossDrop(env) {
		t := env.Msg.Type()
		if t == msg.TPing || t == msg.TPong || attempt >= lossMaxAttempts {
			n.lost++
			return
		}
		n.retransmits++
		n.post(env, attempt+1)
		return
	}
	n.deliver(env, ahead)
}

// Partition splits the network into disconnected groups: every message
// between nodes of different groups is dropped in flight until Heal.
// Nodes not listed in any group keep connectivity to everyone (they
// model nodes outside the failure domain). Calling Partition again
// replaces the current grouping.
func (n *Network) Partition(groups ...[]id.ID) {
	n.partition = make(map[id.ID]int)
	for gi, g := range groups {
		for _, x := range g {
			n.partition[x] = gi
		}
	}
}

// Heal removes the partition: all pending and future messages deliver
// normally again.
func (n *Network) Heal() { n.partition = nil }

// SetLossRate changes the per-transmission loss probability mid-run —
// the "loss-rate change" fault action. The network must have been
// configured with a Loss model (possibly Rate 0); retry and seed
// parameters are unchanged, so a run that ramps loss up and back down
// stays deterministic.
func (n *Network) SetLossRate(rate float64) error {
	if n.cfg.Loss == nil {
		return fmt.Errorf("overlay: SetLossRate without Config.Loss")
	}
	if rate < 0 || rate >= 1 {
		return fmt.Errorf("overlay: loss rate %v outside [0,1)", rate)
	}
	n.cfg.Loss.Rate = rate
	return nil
}

// PartitionDropped returns how many messages the partition cut so far.
func (n *Network) PartitionDropped() uint64 { return n.partitionDropped }

// partitionCut reports whether a message from -> to crosses the current
// partition boundary.
func (n *Network) partitionCut(from, to id.ID) bool {
	if len(n.partition) == 0 {
		return false
	}
	gf, okf := n.partition[from]
	gt, okt := n.partition[to]
	return okf && okt && gf != gt
}

// lossDrop decides whether this transmission is lost. Under Loss.OneWay
// only the pair's hash-chosen lossy direction ever drops.
func (n *Network) lossDrop(env msg.Envelope) bool {
	l := n.cfg.Loss
	if l.OneWay && !n.lossyDirection(env.From.ID, env.To.ID) {
		return false
	}
	return n.lossRng.Float64() < l.Rate
}

// lossyDirection reports whether from->to is the lossy direction of the
// unordered pair {from,to}, chosen deterministically from the seed.
func (n *Network) lossyDirection(from, to id.ID) bool {
	sum, fromLow := pairHash(n.cfg.Loss.Seed, from, to)
	lowToHigh := sum&1 == 0
	return lowToHigh == fromLow
}

// deliver runs env's node-local half, unless a window did (ahead > 0), then the network half.
func (n *Network) deliver(env msg.Envelope, ahead int32) {
	nd, ok := n.nodes[env.To.ID]
	if !ok {
		if n.removed[env.To.ID] {
			n.dropped++ // late message to a departed node
			return
		}
		panic(fmt.Sprintf("overlay: envelope for unknown node %v: %v", env.To.ID, env))
	}
	if n.pausedNow(env.To.ID, n.engine.Now()) {
		// Clock-pause fault: the recipient is stalled, so the message
		// waits in its (virtual) socket buffer and bursts at resume.
		n.pauseDeferred++
		n.engine.ScheduleAt(n.paused[env.To.ID], func() { n.deliver(env, 0) })
		return
	}
	n.delivered[env.Msg.Type()]++
	var h handover
	if ahead > 0 {
		h = n.win.ahead[ahead-1]
	} else {
		h = n.handOver(nd, env, n.engine.Now())
	}
	if h.joined {
		if _, joining := n.joinersInFlight[env.To.ID]; joining { // else a window told it twice
			n.joins = append(n.joins, h.rec)
			delete(n.joinersInFlight, env.To.ID)
		}
	}
	n.transmit(h.out)
}

// maxEvents bounds the event count per Run: a run that reaches it has
// livelocked, and the engine panics.
const maxEvents = 500_000_000

// Run drains the event queue and returns the number of events processed,
// delivering arrivals a window at a time (window.go).
func (n *Network) Run() uint64 {
	return n.engine.RunWindowed((*arrivals)(n), math.MaxInt64, maxEvents)
}

func (n *Network) tickInterval() time.Duration {
	if n.cfg.TickInterval > 0 {
		return n.cfg.TickInterval
	}
	return 50 * time.Millisecond
}

// RunFor advances the network by d of virtual time with the clock pump
// running: every TickInterval each prober probes and each machine's
// Tick fires (timeout resends, repair queries, rejoins). After the
// deadline the pump stops rescheduling and remaining in-flight messages
// drain, so the network quiesces like Run. Returns events processed.
func (n *Network) RunFor(d time.Duration) uint64 {
	deadline := n.engine.Now() + d
	if deadline > n.livenessUntil {
		n.livenessUntil = deadline
	}
	n.scheduleTick()
	ev := n.engine.RunUntil((*arrivals)(n), deadline)
	return ev + n.Run()
}

// scheduleTick arms the recurring clock pump. It reschedules itself only
// while before livenessUntil, so plain Run() calls still quiesce.
func (n *Network) scheduleTick() {
	if n.tickPending {
		return
	}
	if n.parts.TickEvery(n.cfg.Opts.Timeouts) == 0 {
		return // nothing is clock-driven
	}
	n.tickPending = true
	n.engine.Schedule(n.tickInterval(), func() {
		n.tickPending = false
		n.tick()
		if n.engine.Now() < n.livenessUntil {
			n.scheduleTick()
		}
	})
}

// tick runs one clock-pump round over all nodes in sorted order
// (determinism: declarations and repairs must replay identically).
func (n *Network) tick() {
	now := n.engine.Now()
	for _, x := range n.sortedIDs() {
		if n.pausedNow(x, now) {
			// Clock-pause fault: the node's local timers stall; it will
			// catch up on the first pump round after its resume.
			continue
		}
		n.transmit(n.nodes[x].Tick(now))
		if n.leaveOnReturn[x] && n.nodes[x].Machine().Status() == core.StatusInSystem {
			delete(n.leaveOnReturn, x)
			n.startLeave(n.nodes[x])
		}
	}
}

// sortedIDs returns the live members' IDs in ascending order.
func (n *Network) sortedIDs() []id.ID {
	if n.sorted == nil {
		n.sorted = make([]id.ID, 0, len(n.nodes))
		for x := range n.nodes {
			n.sorted = append(n.sorted, x)
		}
		slices.SortFunc(n.sorted, id.ID.Compare)
	}
	return n.sorted
}

// stats sums every part's counters over all live nodes.
func (n *Network) stats() node.Stats {
	var total, s node.Stats
	for _, nd := range n.nodes {
		s = nd.Stats()
		obs.AddStruct(&total, &s)
	}
	return total
}

// LivenessStats aggregates detector counters over all live nodes.
func (n *Network) LivenessStats() liveness.Stats { return n.stats().Liveness }

// PartitionedCount returns how many probers are currently in
// partitioned mode.
func (n *Network) PartitionedCount() int {
	c := 0
	for _, nd := range n.nodes {
		if p := nd.Prober(); p != nil && p.Partitioned() {
			c++
		}
	}
	return c
}

// GuardStats aggregates the machines' hostile-input counters over all
// live nodes: rejections, quarantine activity, budget deferrals.
func (n *Network) GuardStats() core.GuardStats { return n.stats().Guard }

// AntiEntropyStats aggregates anti-entropy counters over all live nodes.
func (n *Network) AntiEntropyStats() antientropy.Stats { return n.stats().AntiEntropy }

// SamplingStats aggregates peer-sampling counters over all live nodes.
func (n *Network) SamplingStats() sampling.Stats { return n.stats().Sampling }

// AddEstablished installs an in_system machine wrapping a pre-built
// table — e.g. one restored from a persisted snapshot — and clears any
// removed mark for the node, modeling a crashed node restarting from
// disk. The table is adopted, not copied. The caller re-announces the
// node via core's StartRejoin so survivors relearn it; Restart is the
// whole sequence from a dump on disk.
func (n *Network) AddEstablished(ref table.Ref, tbl *table.Table) *core.Machine {
	delete(n.removed, ref.ID)
	m := core.NewEstablished(n.cfg.Params, ref, tbl, n.cfg.Opts)
	n.addMachine(m)
	return m
}

// Delivered returns the total number of messages delivered so far.
func (n *Network) Delivered() uint64 {
	var sum uint64
	for _, c := range n.delivered {
		sum += c
	}
	return sum
}

// DeliveredByType returns the number of messages delivered so far,
// indexed by msg.Type. It counts receipts, so a departed member's
// traffic stays in it.
func (n *Network) DeliveredByType() [msg.NumTypes + 1]uint64 { return n.delivered }

// Dropped returns the number of messages dropped because their recipient
// had left or failed.
func (n *Network) Dropped() uint64 { return n.dropped }

// Retransmits returns how many lost transmissions were retried under
// Config.Loss.
func (n *Network) Retransmits() uint64 { return n.retransmits }

// LostMessages returns how many messages were dead-lettered after
// exhausting their transmissions under Config.Loss.
func (n *Network) LostMessages() uint64 { return n.lost }

// Joins returns the completed join records. Records for joins completed
// during BuildByJoins are included; callers measuring a specific wave
// should slice by Started time.
func (n *Network) Joins() []JoinRecord {
	out := make([]JoinRecord, len(n.joins))
	copy(out, n.joins)
	return out
}

// PendingJoins returns how many scheduled joins have not completed.
func (n *Network) PendingJoins() int { return len(n.joinersInFlight) }

// Machine returns the machine for node x with the node's clock brought
// up to the engine's, so an entry point called on it directly
// (StartLeave, StartRejoin, repairs) stamps what it sends with the
// current virtual time.
func (n *Network) Machine(x id.ID) (*core.Machine, bool) {
	nd, ok := n.nodes[x]
	if !ok {
		return nil, false
	}
	nd.Advance(n.engine.Now())
	return nd.Machine(), true
}

// TableOf implements core.TableResolver.
func (n *Network) TableOf(x id.ID) (*table.Table, bool) {
	nd, ok := n.nodes[x]
	if !ok {
		return nil, false
	}
	return nd.Table(), true
}

// Tables returns all nodes' tables keyed by ID (live references, not
// copies; do not mutate).
func (n *Network) Tables() map[id.ID]*table.Table {
	out := make(map[id.ID]*table.Table, len(n.nodes))
	for x, nd := range n.nodes {
		out[x] = nd.Machine().Table()
	}
	return out
}

// Members returns all node refs sorted by ID.
func (n *Network) Members() []table.Ref {
	out := make([]table.Ref, 0, len(n.nodes))
	for _, nd := range n.nodes {
		out = append(out, nd.Machine().Self())
	}
	slices.SortFunc(out, func(a, b table.Ref) int { return a.ID.Compare(b.ID) })
	return out
}

// CheckConsistency verifies Definition 3.8 over the whole network.
func (n *Network) CheckConsistency() []netcheck.Violation {
	return netcheck.CheckConsistency(n.cfg.Params, n.Tables())
}

// AggregateTraffic sums message counters over all nodes.
func (n *Network) AggregateTraffic() msg.Counters {
	var total msg.Counters
	for _, nd := range n.nodes {
		total.Add(nd.Machine().Counters())
	}
	return total
}

// RandomRefs draws n distinct random IDs and wraps them as refs with
// synthetic addresses. Existing IDs in taken are avoided and the new IDs
// are added to it (pass nil for a fresh namespace).
func RandomRefs(p id.Params, count int, rng *rand.Rand, taken map[id.ID]bool) []table.Ref {
	if taken == nil {
		taken = make(map[id.ID]bool, count)
	}
	if float64(count+len(taken)) > p.Size() {
		panic(fmt.Sprintf("overlay: cannot draw %d distinct IDs from space of %.0f", count, p.Size()))
	}
	out := make([]table.Ref, 0, count)
	for len(out) < count {
		x := id.Random(p, rng)
		if taken[x] {
			continue
		}
		taken[x] = true
		out = append(out, table.Ref{ID: x, Addr: "sim://" + x.String()})
	}
	return out
}
