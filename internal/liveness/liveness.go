// Package liveness implements autonomous failure detection for protocol
// nodes: a probe scheduler that cycles through a node's neighbor table
// and reverse-neighbor set, and a suspicion state machine that separates
// transient loss from real crashes.
//
// The detector is deliberately transport-agnostic and clock-driven, like
// core.Machine: Tick(now) consumes virtual or real time and returns the
// probe messages to transmit plus any declared failures. The overlay
// simulator drives it from the discrete-event clock (deterministic
// tests); tcptransport drives it from a timer goroutine.
//
// Suspicion protocol (SWIM-flavored, adapted to the hypercube tables):
//
//   - alive: the target is probed when its turn comes in the round-robin
//     cycle. A probe unanswered within ProbeTimeout is a miss, and a miss
//     re-probes the target at once instead of waiting for its next turn,
//     so detection takes phase + (SuspectAfter + ConfirmRounds) ×
//     ProbeTimeout however many targets share the cycle. Pongs and any
//     other traffic from the target (Observe) reset the miss count.
//   - suspect: after SuspectAfter consecutive misses. Each confirmation
//     round sends one direct probe plus indirectProbes relayed probes
//     through distinct other neighbors, so one-way loss on the direct
//     path cannot produce a false declaration.
//   - declared: after ConfirmRounds confirmation rounds with no answer
//     at all. The target is tombstoned (it can never be re-adopted from
//     a stale table) and reported to the caller, which invokes the
//     table-repair machinery (core.Machine.DeclareFailed).
//
// A target that exhausts its confirm rounds without EVER having answered
// from here is not declared but dropped as unreachable: there is no
// evidence it was ever alive, so the silence may equally be a broken
// path or our own side of a partition. Unreachable targets are forgotten
// locally (core.Machine.DropUnreachable) with no tombstone and no
// gossip, and are re-adopted if they later turn up reachable — e.g.
// delivered by an anti-entropy round after a partition heals. This is
// what keeps a node that joined during a partition, whose table is
// mostly one-sided, from poisoning the whole network with false
// FailedNoti gossip about the side it has never met.
//
// Adaptive timeouts (gray failures): with a per-peer RTT estimator
// attached (SetRTT), each target's probe deadline derives
// from its own measured round-trips instead of the fixed ProbeTimeout,
// misses accrue as a confidence-weighted suspicion score instead of a
// flat count (a miss against a known-slow peer weighs less than one),
// and pongs arriving after their probe expired still feed the estimator
// and count as liveness — the feedback loop that lets the deadline chase
// a peer whose latency is ramping up. Invariant: adaptivity can only
// extend the declaration window, never shrink it. Only a target's first
// miss may come before ProbeTimeout (every later probe of a distressed
// target waits at least that long) and no miss charges more than one,
// so a declaration comes no sooner than ProbeTimeout × (SuspectAfter −
// 1 + ConfirmRounds) after the first miss. Without an estimator the
// detector behaves exactly as documented above, bit for bit.
//
// Partition awareness: a network partition is indistinguishable from a
// mass crash to a per-target detector — every cross-partition peer times
// out at once. Declaring (and tombstoning) them all would be wrong twice
// over: the declarations are false positives, and the tombstones would
// prevent re-adoption after the partition heals. When the fraction of
// simultaneously-distressed targets (suspect, or accruing misses toward
// suspicion) reaches PartitionThreshold the prober therefore enters a
// partitioned mode that freezes declarations (confirm rounds keep
// running, so reconnection is noticed promptly) and exits once enough
// targets recover. Held suspects that are genuinely dead are declared
// through the normal path after the mode exits.
package liveness

import (
	"cmp"
	"math"
	"slices"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/obs"
	"hypercube/internal/rtt"
	"hypercube/internal/table"
	"hypercube/internal/trace"
)

// Config tunes the failure detector. The zero value is usable: every
// field falls back to the default documented on it.
type Config struct {
	// ProbeInterval is the gap between successive routine probes (one
	// target per interval, round-robin). Default 250ms.
	ProbeInterval time.Duration
	// ProbeTimeout is how long a probe may stay unanswered before it
	// counts as a miss. Default 1s.
	//
	// Invariant (see the pending==0 guard in Tick): a target never has
	// two direct probes in flight at once, so the default ProbeTimeout
	// (1s) exceeding the default ProbeInterval (250ms) does NOT make
	// successive probes to a silent peer overlap. The round-robin skips
	// a target with an outstanding probe, and a miss re-probes its
	// target at once, so a silent peer accrues misses at one per
	// ProbeTimeout — not one per ProbeInterval, and not one per cycle
	// of |targets| × ProbeInterval — and suspicion takes SuspectAfter ×
	// ProbeTimeout after its first probe whatever the table size. Only
	// confirmation rounds put several probes (direct + indirect) in
	// flight for one target at once, and those launch strictly after
	// the previous round fully expired. A per-peer RTT estimator
	// (SetRTT) may shorten a target's first probe only: once it has
	// missed, its budget is floored at ProbeTimeout (probeBudget).
	ProbeTimeout time.Duration
	// SuspectAfter is the number of consecutive missed routine probes
	// that turns an alive target into a suspect. Default 3.
	SuspectAfter int
	// ConfirmRounds is the number of fully unanswered confirmation
	// rounds needed to declare a suspect failed. Default 2.
	ConfirmRounds int
	// PartitionThreshold is the fraction of monitored targets that must
	// be simultaneously distressed (suspect or accruing misses) for the
	// prober to enter partitioned mode (declarations frozen, probing
	// continues). The mode exits when the fraction falls to half the
	// threshold or below. Default 0.5; set above 1 to disable partition
	// detection entirely.
	PartitionThreshold float64
}

const (
	// indirectProbes is the number of relayed probes (via distinct other
	// neighbors) added to the direct probe in each confirmation round, so
	// that one-way loss on the direct path cannot condemn a live node.
	indirectProbes = 3
	// partitionMinTargets is the minimum number of monitored targets for
	// partition detection to apply: with very few targets the suspect
	// fraction is too noisy to distinguish a partition from a crash.
	partitionMinTargets = 4
)

// WithDefaults returns c with every unset field at its documented
// default: the values a Prober built from c runs with.
func (c Config) WithDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	if c.ConfirmRounds <= 0 {
		c.ConfirmRounds = 2
	}
	if c.PartitionThreshold <= 0 {
		c.PartitionThreshold = 0.5
	}
	return c
}

// Stats counts the detector's activity, for admin endpoints and tests.
type Stats struct {
	// ProbesSent counts direct probes; IndirectSent relayed ones.
	ProbesSent   int `json:"probesSent"`
	IndirectSent int `json:"indirectSent"`
	// PongsReceived counts answers attributable to an outstanding probe.
	PongsReceived int `json:"pongsReceived"`
	// Suspects counts alive -> suspect transitions. Its JSON key is
	// "suspected": an admin surface's "suspects" is how many targets are
	// under suspicion right now (Prober.SuspectCount), a different number.
	Suspects int `json:"suspected"`
	// Recovered counts suspect -> alive transitions (false alarms caught
	// by the confirmation round).
	Recovered int `json:"recovered"`
	// Declared counts suspect -> declared-failed transitions.
	Declared int `json:"declared"`
	// PartitionsEntered / PartitionsExited count transitions in and out
	// of partitioned mode.
	PartitionsEntered int `json:"partitionsEntered"`
	PartitionsExited  int `json:"partitionsExited"`
	// DeclarationsHeld counts declarations suppressed because the prober
	// was in partitioned mode when the suspect's confirm rounds ran out.
	DeclarationsHeld int `json:"declarationsHeld"`
	// Unreachable counts targets dropped without a failure declaration
	// because they never once answered from here: with no evidence they
	// were ever alive, their silence may equally be our own partition, so
	// they are forgotten locally instead of tombstoned and gossiped.
	Unreachable int `json:"unreachable"`
	// Adaptive-timeout (gray failure) counters; all stay zero unless a
	// per-peer RTT estimator is attached (SetRTT). AdaptiveDeadlines
	// counts probes whose deadline came from the estimator rather than
	// the fixed ProbeTimeout; LatePongs answers that arrived after
	// their probe expired (still fed to the estimator and counted as
	// liveness); DegradedMarked / DegradedCleared the estimator's
	// degraded-flag transitions observed through probe samples.
	AdaptiveDeadlines int `json:"adaptiveDeadlines"`
	LatePongs         int `json:"latePongs"`
	DegradedMarked    int `json:"degradedMarked"`
	DegradedCleared   int `json:"degradedCleared"`
	// Retargets counts rebuilds of the monitored set (SetTargets calls).
	Retargets int `json:"retargets"`
}

type targetState uint8

const (
	stateAlive targetState = iota + 1
	stateSuspect
)

type target struct {
	ref      table.Ref
	state    targetState
	missed   int     // consecutive routine-probe misses while alive
	susp     float64 // accrued suspicion; equals missed without an estimator
	rounds   int     // completed confirmation rounds while suspect
	pending  int     // outstanding probes (any kind) for this target
	answered bool    // ever seen alive from here (pong or observed traffic)
	stamp    int     // Stats.Retargets of the last SetTargets that listed it
	// seqs lists this target's probes still in flight; those of a target
	// no longer monitored stay in flight as strays.
	seqs []uint64
}

// distressed reports whether t is suspect or partway there (at least one
// missed probe). The partition signal is computed over distressed targets
// rather than confirmed suspects because suspicion spreads across one
// round-robin cycle: with many targets, the first suspects of a cut
// cohort would finish their confirm rounds and be declared before enough
// of the cohort turned fully suspect to cross the threshold. Misses are
// reset the moment a target answers anything (markAlive), so the broader
// signal still collapses promptly once contact resumes.
func (t *target) distressed() bool { return t.state == stateSuspect || t.missed > 0 }

type expiry struct {
	seq uint64
	pr  probe
}

// probe is one in-flight probe: which target it checks, when it was
// sent (for RTT sampling), when it expires, and whether it was relayed
// (indirect probes measure the relay path, not the peer, so they are
// never sampled).
type probe struct {
	target   id.ID
	owner    *target // the target the probe was sent for, monitored or gone
	sentAt   time.Duration
	deadline time.Duration
	indirect bool
	// ctx is the probe's trace context (zero when unsampled): one span
	// covers the whole round trip — probe, the responder's recv/send
	// pair, and probe_ack all carry it, which is what lets an analyzer
	// recover both the RTT and the responder's clock skew.
	ctx trace.Context
}

// Prober is one node's failure detector. It is not safe for concurrent
// use; drive it from one goroutine or under an external lock (the same
// discipline as core.Machine).
type Prober struct {
	cfg  Config
	self table.Ref

	targets map[id.ID]*target
	tombs   map[id.ID]bool // declared-failed; never re-adopted
	cycle   []id.ID        // round-robin order (sorted, rebuilt on change)
	cycleAt int
	nextDue time.Duration // next routine probe time
	started bool

	seq      uint64
	inflight map[uint64]probe
	helperAt int // rotates indirect-probe helper choice
	// earliest is a lower bound on the in-flight deadlines: Tick looks for
	// expiries only once it has passed. strays counts in-flight probes of
	// gone targets, distressed the distressed targets, targetGen the
	// targets the prober dropped itself (declared or unreachable).
	earliest   time.Duration
	strays     int
	distressed int
	targetGen  uint64
	expired    []expiry // Tick's scratch

	// Adaptive-timeout state (nil/unused without SetRTT). recent holds
	// expired probes for a grace window so a late pong can still feed
	// the estimator and clear suspicion; recentQ bounds it FIFO.
	est     *rtt.Estimator
	recent  map[uint64]probe
	recentQ []uint64

	partitioned bool
	onRecover   func(id.ID)

	// Observability (nil when tracing is off; see SetSink). tracer,
	// when non-nil, roots one span per probe round trip (see SetTracer).
	sink     obs.Sink
	selfName string
	tracer   *trace.Tracer

	stats Stats
	out   []msg.Envelope
	// pings is the batch sendProbe hands Pings out of, one slot per
	// probe. A full batch is left to the messages still pointing into it
	// and replaced, never reused, so a sent Ping never changes.
	pings []msg.Ping
}

// pingBatch is how many Pings a prober allocates at once, so a probe
// costs 1/pingBatch of an allocation instead of one. 64 raised peak RSS
// on the crash-repair benchmark and KiB allocated per join on the TCP
// fleet, whose members send few probes; 16 raised neither.
const pingBatch = 16

// SetSink installs the protocol-event sink; nil or obs.Nop turns tracing
// off (the default). Wrap with obs.Clocked so the driving runtime stamps
// Event.T.
func (p *Prober) SetSink(s obs.Sink) {
	if obs.IsNop(s) {
		p.sink = nil
		return
	}
	p.sink = s
	p.selfName = p.self.ID.String()
}

// SetTracer installs the span-context source for causal tracing; nil
// turns it off (the default). Each (sampled) probe is a traced
// operation: ping and pong share one root span end to end, and a
// responding prober echoes an inbound ping's context verbatim — it
// needs no generator of its own to keep the chain intact.
func (p *Prober) SetTracer(t *trace.Tracer) { p.tracer = t }

// SetRTT attaches a per-peer RTT estimator: probe deadlines derive
// from each target's measured round-trips (falling back to
// ProbeTimeout until samples exist), direct-probe pongs feed samples
// back, and misses accrue as confidence-weighted suspicion. The
// estimator is typically shared with core.Machine so exchange
// round-trips and probe RTTs pool into one estimate per peer.
func (p *Prober) SetRTT(est *rtt.Estimator) {
	p.est = est
	if est != nil && p.recent == nil {
		p.recent = make(map[uint64]probe)
	}
}

// RTT returns the attached estimator (nil without SetRTT), for admin
// endpoints and scenario reports.
func (p *Prober) RTT() *rtt.Estimator { return p.est }

// NewProber creates a detector for the node self.
func NewProber(cfg Config, self table.Ref) *Prober {
	return &Prober{
		cfg:      cfg.WithDefaults(),
		self:     self,
		targets:  make(map[id.ID]*target),
		tombs:    make(map[id.ID]bool),
		inflight: make(map[uint64]probe),
		earliest: math.MaxInt64,
	}
}

// Stats returns a copy of the activity counters.
func (p *Prober) Stats() Stats { return p.stats }

// SuspectCount returns how many targets are currently suspects.
func (p *Prober) SuspectCount() int {
	n := 0
	for _, t := range p.targets {
		if t.state == stateSuspect {
			n++
		}
	}
	return n
}

// TargetCount returns how many targets are currently monitored.
func (p *Prober) TargetCount() int { return len(p.targets) }

// Partitioned reports whether the prober is currently in partitioned
// mode (declarations frozen because too many targets are suspect at
// once).
func (p *Prober) Partitioned() bool { return p.partitioned }

// TargetGen moves whenever the prober drops a target itself, so that the
// set last handed to SetTargets is no longer what is monitored.
func (p *Prober) TargetGen() uint64 { return p.targetGen }

// forget stops monitoring t; its probes still in flight become strays.
func (p *Prober) forget(t *target) {
	delete(p.targets, t.ref.ID)
	if t.distressed() {
		p.distressed--
	}
	p.strays += len(t.seqs)
}

// drop removes one probe from the in-flight set.
func (p *Prober) drop(seq uint64, pr probe) {
	delete(p.inflight, seq)
	t := pr.owner
	if i := slices.Index(t.seqs, seq); i >= 0 {
		t.seqs = slices.Delete(t.seqs, i, i+1)
	}
	if p.strays > 0 && p.targets[pr.target] != t {
		p.strays--
	}
}

// orphan removes every in-flight probe for t's ID, so their expiry is
// ignored: t's own, and the strays of a gone target t has replaced.
func (p *Prober) orphan(t *target) {
	for _, seq := range t.seqs {
		delete(p.inflight, seq)
	}
	t.seqs = t.seqs[:0]
	if p.strays == 0 {
		return
	}
	for seq, pr := range p.inflight {
		if pr.target == t.ref.ID {
			p.drop(seq, pr)
		}
	}
}

// updatePartitionMode re-evaluates the partitioned flag against the
// current distressed-target fraction, with hysteresis: enter at
// PartitionThreshold, exit below half of it (or when the target set
// shrinks under partitionMinTargets). On exit it restarts every held
// suspect's confirmation rounds at time now.
func (p *Prober) updatePartitionMode(now time.Duration) {
	n := len(p.targets)
	frac := 0.0
	if n > 0 {
		frac = float64(p.distressed) / float64(n)
	}
	if !p.partitioned {
		if n >= partitionMinTargets && frac >= p.cfg.PartitionThreshold {
			p.partitioned = true
			p.stats.PartitionsEntered++
			if p.sink != nil {
				p.sink.Emit(obs.Event{Node: p.selfName, Kind: obs.KindPartitionEnter, N: p.distressed})
			}
		}
		return
	}
	// Exit at half the entry threshold, inclusive: a residue of exactly
	// threshold/2 distressed targets (say one dead node out of four) is a
	// crash picture, not a partition, and must not latch the mode.
	if n < partitionMinTargets || frac <= p.cfg.PartitionThreshold/2 {
		p.partitioned = false
		p.stats.PartitionsExited++
		if p.sink != nil {
			p.sink.Emit(obs.Event{Node: p.selfName, Kind: obs.KindPartitionExit, N: p.distressed})
		}
		// Evidence gathered while partitioned is tainted: a confirm probe
		// cut by the split says nothing about its target. Every held
		// suspect therefore restarts its confirmation rounds against the
		// healed network — old probes are orphaned and a fresh round is
		// launched immediately (routine probing skips suspects, so nothing
		// else would ever probe them again). A declaration now requires
		// ConfirmRounds of fresh silence: a genuinely dead suspect still
		// falls, just a few rounds later. Iterate in cycle order so probe
		// sequence numbers stay deterministic.
		for _, x := range p.cycle {
			t, ok := p.targets[x]
			if !ok || t.state != stateSuspect {
				continue
			}
			t.rounds = 0
			t.pending = 0
			p.orphan(t)
			p.confirmRound(t, now)
		}
	}
}

// SetTargets replaces the monitored set with refs (typically the union
// of the node's table entries and reverse neighbors). Existing state for
// retained targets survives; vanished targets are forgotten; tombstoned
// (declared) targets are never re-adopted.
func (p *Prober) SetTargets(refs []table.Ref) {
	p.stats.Retargets++
	stamp := p.stats.Retargets
	changed := false
	for _, r := range refs {
		if r.ID == p.self.ID || p.tombs[r.ID] {
			continue
		}
		t, ok := p.targets[r.ID]
		switch {
		case !ok:
			t = &target{ref: r, state: stateAlive}
			p.targets[r.ID] = t
			changed = true
		case t.stamp == stamp:
			continue // a duplicate: the first occurrence wins
		default:
			t.ref = r // refresh address
		}
		t.stamp = stamp
	}
	for _, t := range p.targets {
		if t.stamp != stamp {
			p.forget(t)
			changed = true
		}
	}
	if changed {
		p.rebuildCycle()
	}
}

func (p *Prober) rebuildCycle() {
	p.cycle = p.cycle[:0]
	for x := range p.targets {
		p.cycle = append(p.cycle, x)
	}
	slices.SortFunc(p.cycle, id.ID.Compare)
	if p.cycleAt >= len(p.cycle) {
		p.cycleAt = 0
	}
}

// Observe notes non-probe traffic from a peer as evidence of liveness,
// clearing any miss count or suspicion. Runtimes call it for every
// delivered protocol message.
func (p *Prober) Observe(from id.ID) {
	if t, ok := p.targets[from]; ok {
		p.markAlive(t)
	}
}

// SetOnRecover installs f, called with each suspect that answers
// again; nil (the default) calls nothing.
func (p *Prober) SetOnRecover(f func(id.ID)) { p.onRecover = f }

func (p *Prober) markAlive(t *target) {
	if t.state == stateSuspect {
		p.stats.Recovered++
		if p.sink != nil {
			p.sink.Emit(obs.Event{Node: p.selfName, Kind: obs.KindRecovered, Peer: t.ref.ID})
		}
		if p.onRecover != nil {
			p.onRecover(t.ref.ID)
		}
	}
	if t.distressed() {
		p.distressed--
	}
	t.answered = true
	t.state = stateAlive
	t.missed = 0
	t.susp = 0
	t.rounds = 0
	t.pending = 0
	p.orphan(t)
}

// HandleMessage consumes a Ping or Pong addressed to this node, arrived
// at time now (on the clock Tick reads), and returns any messages to
// transmit in response (a Pong, or the relayed Ping of an indirect
// probe) in the prober's own buffer, valid until its next HandleMessage
// or Tick. A Pong's arrival time measures its probe's round trip.
// Messages of other types are ignored.
func (p *Prober) HandleMessage(env msg.Envelope, now time.Duration) []msg.Envelope {
	p.out = p.out[:0]
	switch pm := env.Msg.(type) {
	case *msg.Ping:
		p.out = RespondPing(p.out, p.self, env.From, pm)
		// Echo a sampled inbound context verbatim: the pong (or relayed
		// ping) shares the probe's span, so the four timestamps — probe,
		// recv, send, probe_ack — pair up across the two nodes' clocks.
		// A tracerless prober drops the context (opaque hop).
		if p.tracer != nil && env.Trace.Sampled() {
			if p.sink != nil {
				p.sink.Emit(obs.Event{Node: p.selfName, Kind: obs.KindRecv, Peer: env.From.ID, Msg: env.Msg.Type().String()}.Stamped(env.Trace, trace.SpanID{}))
			}
			for i := range p.out {
				p.out[i].Trace = env.Trace
				if p.sink != nil {
					p.sink.Emit(obs.Event{Node: p.selfName, Kind: obs.KindSend, Peer: p.out[i].To.ID, Msg: p.out[i].Msg.Type().String()}.Stamped(env.Trace, trace.SpanID{}))
				}
			}
		}
	case msg.Pong:
		pr, ok := p.inflight[pm.Seq]
		if !ok {
			// Late answer for an already-expired probe. Without an
			// estimator it is simply dropped (the miss was already
			// charged and any retained state would change declared
			// replay). With one, the late pong is exactly the signal
			// that matters: it carries the peer's true (slow) RTT, so
			// the estimator learns the new latency and the next probe
			// waits long enough — and a peer that answered, however
			// late, is alive.
			if p.est == nil {
				break
			}
			pr, ok = p.recent[pm.Seq]
			if !ok {
				break
			}
			delete(p.recent, pm.Seq)
			p.stats.LatePongs++
			took := p.sampleRTT(pr, now)
			if p.sink != nil {
				p.sink.Emit(obs.Event{Node: p.selfName, Kind: obs.KindProbeAck, Peer: pr.target, Seq: pm.Seq, Detail: "late", RTT: took}.Stamped(pr.ctx, trace.SpanID{}))
			}
			if t, ok := p.targets[pr.target]; ok {
				p.markAlive(t)
			}
			break
		}
		p.drop(pm.Seq, pr)
		p.stats.PongsReceived++
		took := p.sampleRTT(pr, now)
		if p.sink != nil {
			p.sink.Emit(obs.Event{Node: p.selfName, Kind: obs.KindProbeAck, Peer: pr.target, Seq: pm.Seq, RTT: took}.Stamped(pr.ctx, trace.SpanID{}))
		}
		if t, ok := p.targets[pr.target]; ok {
			p.markAlive(t)
		}
	}
	return p.out
}

// RespondPing implements the receiving side of the probe protocol for
// node self: it appends to dst the answer to pm — a Pong to the origin
// of a direct ping, the ping itself relayed to the target of an
// indirect one — and returns the extended slice. It is a free function
// so nodes without a detector of their own can still be good probe
// citizens.
func RespondPing(dst []msg.Envelope, self, from table.Ref, pm *msg.Ping) []msg.Envelope {
	origin := pm.Origin
	if origin.IsZero() {
		origin = from
	}
	if !pm.Target.IsZero() && pm.Target.ID != self.ID {
		// Indirect probe: relay unchanged; the target answers the origin.
		return append(dst, msg.Envelope{From: self, To: pm.Target, Msg: pm})
	}
	if origin.ID == self.ID {
		return dst // degenerate self-probe
	}
	return append(dst, msg.Envelope{From: self, To: origin, Msg: msg.Pong{Seq: pm.Seq}})
}

// Tick advances the detector to virtual (or real) time now. It returns
// the probes to transmit, the targets newly declared failed, and the
// targets dropped as unreachable (never once seen alive from here). The
// caller feeds declarations to core.Machine.DeclareFailed, unreachable
// drops to core.Machine.DropUnreachable, and transmits all outputs. out
// is the prober's own buffer, valid until its next Tick or HandleMessage.
func (p *Prober) Tick(now time.Duration) (out []msg.Envelope, declared, unreachable []table.Ref) {
	p.out = p.out[:0]

	// Recoveries since the last tick (Observe, pongs) may have lowered
	// the suspect fraction enough to exit partitioned mode.
	p.updatePartitionMode(now)

	// Expire in-flight probes, collecting misses per target. Each entry
	// is re-checked against inflight at processing time: a partition-mode
	// exit mid-sweep orphans held suspects' old probes and launches fresh
	// rounds, and the orphaned expiries must not be charged against those
	// fresh rounds.
	expired := p.expired[:0]
	if p.earliest <= now {
		p.earliest = math.MaxInt64
		for seq, pr := range p.inflight {
			if pr.deadline <= now {
				expired = append(expired, expiry{seq, pr})
			} else if pr.deadline < p.earliest {
				p.earliest = pr.deadline
			}
		}
		slices.SortFunc(expired, func(a, b expiry) int {
			if c := a.pr.target.Compare(b.pr.target); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
	}
	p.expired = expired
	for _, e := range expired {
		if _, ok := p.inflight[e.seq]; !ok {
			continue // orphaned mid-sweep by a partition-mode exit
		}
		p.drop(e.seq, e.pr)
		p.remember(e.seq, e.pr)
		t, ok := p.targets[e.pr.target]
		if !ok {
			continue
		}
		t.pending--
		if p.sink != nil {
			p.sink.Emit(obs.Event{Node: p.selfName, Kind: obs.KindProbeMiss, Peer: e.pr.target, Seq: e.seq}.Stamped(e.pr.ctx, trace.SpanID{}))
		}
		switch t.state {
		case stateAlive:
			if t.missed == 0 {
				p.distressed++
			}
			t.missed++
			t.susp += p.missCharge(t)
			if t.susp < float64(p.cfg.SuspectAfter) {
				// Re-probe at once rather than at the target's next turn
				// in the cycle: misses accrue one per ProbeTimeout.
				p.sendProbe(t, table.Ref{}, now)
				continue
			}
			t.state = stateSuspect
			t.rounds = 0
			p.stats.Suspects++
			if p.sink != nil {
				p.sink.Emit(obs.Event{Node: p.selfName, Kind: obs.KindSuspect, Peer: t.ref.ID, N: t.missed})
			}
			p.confirmRound(t, now)
		case stateSuspect:
			if t.pending > 0 {
				continue // round still has probes in flight
			}
			t.rounds++
			if t.rounds >= p.cfg.ConfirmRounds {
				// Suspicions raised earlier in this loop count too: a
				// partition times out a whole cohort within one expiry
				// sweep, and the first of them must already be held.
				p.updatePartitionMode(now)
				if p.partitioned {
					// Partitioned mode: hold the declaration. The target
					// stays a suspect and keeps getting confirm rounds so
					// the first answer after the heal clears it; if it is
					// genuinely dead it is declared once the mode exits.
					p.stats.DeclarationsHeld++
					p.confirmRound(t, now)
					continue
				}
				if t.rounds < p.cfg.ConfirmRounds {
					// The call above just exited partitioned mode: it wiped
					// this suspect's partition-tainted evidence and already
					// relaunched its confirm rounds, so declaring now would
					// use exactly the evidence the wipe discarded.
					continue
				}
				if !t.answered {
					// Never seen alive from here: a node adopted from
					// someone else's table that we could not reach even
					// once. Silence proves nothing about it — the path,
					// or our own side of a partition, may be the problem —
					// so it is forgotten locally (no tombstone, no gossip)
					// and welcome back the moment it answers.
					p.forget(t)
					p.targetGen++
					if p.est != nil {
						p.est.Forget(t.ref.ID)
					}
					p.stats.Unreachable++
					if p.sink != nil {
						p.sink.Emit(obs.Event{Node: p.selfName, Kind: obs.KindUnreachable, Peer: t.ref.ID})
					}
					unreachable = append(unreachable, t.ref)
					p.rebuildCycle()
					continue
				}
				p.forget(t)
				p.targetGen++
				if p.est != nil {
					p.est.Forget(t.ref.ID)
				}
				p.tombs[t.ref.ID] = true
				p.stats.Declared++
				if p.sink != nil {
					p.sink.Emit(obs.Event{Node: p.selfName, Kind: obs.KindDeclared, Peer: t.ref.ID, N: t.rounds})
				}
				declared = append(declared, t.ref)
				p.rebuildCycle()
				continue
			}
			p.confirmRound(t, now)
		}
	}

	// Age out parked expired probes whose late-pong grace, the largest
	// RTO past their deadline, has lapsed.
	if p.est != nil && len(p.recentQ) > 0 {
		keep := p.recentQ[:0]
		for _, seq := range p.recentQ {
			pr, ok := p.recent[seq]
			if !ok {
				continue // already consumed by a late pong
			}
			if pr.deadline+rtt.MaxRTO <= now {
				delete(p.recent, seq)
				continue
			}
			keep = append(keep, seq)
		}
		p.recentQ = keep
	}

	// Routine round-robin probing of alive targets.
	if !p.started {
		p.started = true
		p.nextDue = now
	}
	for p.nextDue <= now {
		p.nextDue += p.cfg.ProbeInterval
		t := p.nextAlive()
		if t == nil {
			break
		}
		// One routine probe per target at a time: a slow target must not
		// accumulate overlapping probes that all expire as misses.
		if t.pending == 0 {
			p.sendProbe(t, table.Ref{}, now)
		}
	}

	return p.out, declared, unreachable
}

// nextAlive advances the round-robin cursor to the next alive target.
func (p *Prober) nextAlive() *target {
	for range p.cycle {
		if len(p.cycle) == 0 {
			return nil
		}
		x := p.cycle[p.cycleAt%len(p.cycle)]
		p.cycleAt = (p.cycleAt + 1) % len(p.cycle)
		if t, ok := p.targets[x]; ok && t.state == stateAlive {
			return t
		}
	}
	return nil
}

// confirmRound launches one confirmation round for a suspect: a direct
// probe plus indirectProbes relayed probes via distinct other targets.
func (p *Prober) confirmRound(t *target, now time.Duration) {
	p.sendProbe(t, table.Ref{}, now)
	helpers := p.pickHelpers(t.ref.ID, indirectProbes)
	for _, h := range helpers {
		p.sendProbe(t, h, now)
	}
}

// probeBudget derives the wait for one probe. Without an estimator it
// is the fixed ProbeTimeout. With one, a direct probe waits the
// target's per-peer RTO; an indirect probe crosses two round-trips
// (origin→relay ping, relay→target probe) so it waits the sum of the
// relay's and the target's RTOs. Any leg without samples yet falls
// back to the fixed default for the whole probe — a half-adaptive
// budget would be neither calibrated nor comparable.
//
// Once a target has missed (the re-probes and confirmation rounds of a
// distressed target) the budget is additionally floored at the fixed
// ProbeTimeout: those probes decide declarations, and a peer that was
// fast and just turned gray would otherwise burn through its re-probes
// and confirm rounds in a few small RTOs — before its first late pong
// can teach the estimator the new latency. Only the first miss may come
// early. Adaptivity may extend the declaration window for known-slow
// peers, never shrink it.
func (p *Prober) probeBudget(t *target, via table.Ref) time.Duration {
	if p.est == nil {
		return p.cfg.ProbeTimeout
	}
	budget := time.Duration(0)
	if via.IsZero() {
		rto, ok := p.est.RTO(t.ref.ID)
		if !ok {
			return p.cfg.ProbeTimeout
		}
		budget = rto
	} else {
		rtoT, okT := p.est.RTO(t.ref.ID)
		rtoV, okV := p.est.RTO(via.ID)
		if !okT || !okV {
			return p.cfg.ProbeTimeout
		}
		budget = rtoT + rtoV
	}
	if t.distressed() && budget < p.cfg.ProbeTimeout {
		budget = p.cfg.ProbeTimeout
	}
	p.stats.AdaptiveDeadlines++
	return budget
}

// missCharge converts one expired probe into suspicion. Without an
// estimator — or before this peer has samples — a miss charges exactly
// 1.0, keeping the accrual score numerically identical to the legacy
// missed counter (small-integer float arithmetic is exact, so the
// suspect threshold fires on the same tick). With samples, the charge
// is ProbeTimeout/RTO clamped to [0.5, 1.0]: a miss against a known-slow
// peer weighs as little as half, one against a fast peer never more
// than a plain miss — a cap above 1 would let adaptivity shrink the
// declaration window, and the immediate re-probe in Tick already keeps
// detection of a dead fast peer short.
func (p *Prober) missCharge(t *target) float64 {
	if p.est == nil {
		return 1
	}
	rto, ok := p.est.RTO(t.ref.ID)
	if !ok || rto <= 0 {
		return 1
	}
	return min(max(float64(p.cfg.ProbeTimeout)/float64(rto), 0.5), 1)
}

// sampleRTT returns the round trip of one probe answered at now, feeds
// it into the estimator, if any, and emits degraded-flag transition
// events. This is the one place a probe's round trip is measured: the
// probe_ack event carries it, and traces and metrics read it from there.
// Karn's rule, adapted: an indirect probe is never measured (0), as its
// round trip is the relay's path as much as the target's.
func (p *Prober) sampleRTT(pr probe, now time.Duration) time.Duration {
	if pr.indirect {
		return 0
	}
	took := now - pr.sentAt
	if p.est == nil {
		return took
	}
	if u := p.est.Observe(pr.target, took); u.Changed {
		kind := obs.KindDegraded
		if u.Degraded {
			p.stats.DegradedMarked++
		} else {
			p.stats.DegradedCleared++
			kind = obs.KindDegradedClear
		}
		if p.sink != nil {
			p.sink.Emit(obs.Event{Node: p.selfName, Kind: kind, Peer: pr.target})
		}
	}
	return took
}

// remember parks an expired direct probe so a late pong can still feed
// the estimator and revive the target (adaptive mode only — without an
// estimator late pongs are dropped as before, keeping declared replay
// unchanged). Bounded two ways: a FIFO cap here and the grace sweep in
// Tick.
const recentCap = 1024

func (p *Prober) remember(seq uint64, pr probe) {
	if p.est == nil || pr.indirect {
		return
	}
	p.recent[seq] = pr
	p.recentQ = append(p.recentQ, seq)
	for len(p.recentQ) > recentCap {
		s := p.recentQ[0]
		p.recentQ = p.recentQ[1:]
		delete(p.recent, s)
	}
}

// pickHelpers returns up to n other non-suspect targets, rotating the
// starting point so consecutive rounds try different relays.
func (p *Prober) pickHelpers(suspect id.ID, n int) []table.Ref {
	if n <= 0 || len(p.cycle) == 0 {
		return nil
	}
	var out []table.Ref
	start := p.helperAt
	p.helperAt++
	for i := 0; i < len(p.cycle) && len(out) < n; i++ {
		x := p.cycle[(start+i)%len(p.cycle)]
		t, ok := p.targets[x]
		if !ok || x == suspect || t.state != stateAlive {
			continue
		}
		out = append(out, t.ref)
	}
	return out
}

// sendProbe emits one probe for target t: direct when via is zero,
// relayed through via otherwise.
func (p *Prober) sendProbe(t *target, via table.Ref, now time.Duration) {
	p.seq++
	if len(p.pings) == cap(p.pings) {
		p.pings = make([]msg.Ping, 0, pingBatch)
	}
	p.pings = p.pings[:len(p.pings)+1]
	ping := &p.pings[len(p.pings)-1]
	*ping = msg.Ping{Seq: p.seq, Origin: p.self}
	to := t.ref
	if !via.IsZero() {
		ping.Target = t.ref
		to = via
		p.stats.IndirectSent++
	} else {
		p.stats.ProbesSent++
	}
	var ctx trace.Context
	if p.tracer != nil {
		ctx = p.tracer.Root()
	}
	deadline := now + p.probeBudget(t, via)
	p.inflight[p.seq] = probe{
		target:   t.ref.ID,
		owner:    t,
		sentAt:   now,
		deadline: deadline,
		indirect: !via.IsZero(),
		ctx:      ctx,
	}
	t.seqs = append(t.seqs, p.seq)
	if deadline < p.earliest {
		p.earliest = deadline
	}
	t.pending++
	if p.sink != nil {
		e := obs.Event{Node: p.selfName, Kind: obs.KindProbe, Peer: t.ref.ID, Seq: p.seq}
		if !via.IsZero() {
			e.Detail = "indirect"
		}
		p.sink.Emit(e.Stamped(ctx, trace.SpanID{}))
	}
	p.out = append(p.out, msg.Envelope{From: p.self, To: to, Msg: ping, Trace: ctx})
}
