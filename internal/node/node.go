// Package node composes one overlay node: the join-protocol machine
// (internal/core) plus the optional per-node parts stacked on it — the
// failure detector, the shared RTT estimator, the anti-entropy engine
// and the peer sampler — wired to each other once, here.
//
// A Node does no I/O and takes no lock. A driver hands it inbound
// envelopes (Deliver) and the passage of time (Tick) and transmits
// whatever comes back; overlay drives it from the discrete-event clock,
// tcptransport from sockets and one ticker under one mutex. The time
// comes in with each call and goes to the machine before any part runs;
// neither the node nor any part keeps a clock of its own.
//
// What Deliver, Tick and the machine's entry points return is a buffer
// the node owns, valid until the next call into the node: every part
// beneath it answers the same way, so the maintenance plane allocates
// only the messages it sends. A driver transmits a result before its
// next call (overlay) or copies it before it releases the lock that
// serialises its callers (tcptransport).
package node

import (
	"time"

	"hypercube/internal/antientropy"
	"hypercube/internal/core"
	"hypercube/internal/guard"
	"hypercube/internal/liveness"
	"hypercube/internal/msg"
	"hypercube/internal/obs"
	"hypercube/internal/rtt"
	"hypercube/internal/sampling"
	"hypercube/internal/table"
	"hypercube/internal/trace"
)

// Config selects the optional parts; nil leaves a part out, and the
// zero Config is the bare protocol machine.
type Config struct {
	// Liveness attaches a failure detector. It owns Ping/Pong, treats
	// all other inbound traffic as proof of life, and its declarations
	// reach the machine inside the same Tick.
	Liveness *liveness.Config
	// AntiEntropy attaches the periodic table audit and digest exchange.
	AntiEntropy *antientropy.Config
	// Sampling attaches the gossip peer sampler; the machine's gateway
	// fallback and the anti-entropy partner choice then draw from it.
	Sampling *sampling.Config
	// RTT attaches one per-peer estimator shared by the detector (probe
	// deadlines) and the machine (resend timers); anti-entropy and the
	// sampler avoid the peers it flags degraded.
	RTT *rtt.Config
	// Sink receives every part's protocol events; the driver wraps it
	// with obs.Clocked so events carry its clock.
	Sink obs.Sink
	// Tracer is the node's span-context source, nil when causal tracing
	// is off.
	Tracer *trace.Tracer
}

// TickEvery returns how often a real-time driver must call Tick for the
// configured parts and the machine's exchange timeouts t: the smallest
// period any of them runs at (each part gates itself on its own, so
// ticking faster than a part needs is harmless). Zero means nothing is
// clock-driven and Tick need never be called.
func (c Config) TickEvery(t core.Timeouts) time.Duration {
	var every time.Duration
	if t.Enabled() {
		every = t.RetryAfter
	}
	part := func(interval time.Duration) {
		if every == 0 || interval < every {
			every = interval
		}
	}
	if c.Liveness != nil {
		part(c.Liveness.WithDefaults().ProbeInterval)
	}
	if c.AntiEntropy != nil {
		part(c.AntiEntropy.WithDefaults().Interval)
	}
	if c.Sampling != nil {
		part(c.Sampling.WithDefaults().Interval)
	}
	return every
}

// Shipped returns the one stack profile: the machine options and the
// parts that cmd/hypercubed deploys and the nemesis executor checks, on
// every generated schedule and on cmd/paper's E13–E18. The caller adds
// only what belongs to its runtime (a sink, a tracer) and may drop the
// RTT estimator to run the fixed-timeout detector.
//
// The detector waits SuspectAfter 4 misses and ConfirmRounds 4 rounds
// rather than the package's 3 and 2, so stacked topology latencies and
// gray peers do not read as crashes, and PartitionThreshold is lowered
// to 0.3 so that both sides of a 40–50% partition freeze declarations.
// Anti-entropy runs a round every 500 ms. There is no peer sampler: the
// table's rows already spread peers over the whole ID space, and no
// scenario's verdict needs one (DESIGN.md, "Peer sampling").
func Shipped() (core.Options, Config) {
	opts := core.Options{
		Guard: &guard.Policy{},
		Timeouts: core.Timeouts{
			RetryAfter:  500 * time.Millisecond,
			MaxAttempts: 6,
			RepairAfter: 600 * time.Millisecond,
		},
	}
	return opts, Config{
		Liveness:    &liveness.Config{SuspectAfter: 4, ConfirmRounds: 4, PartitionThreshold: 0.3},
		RTT:         &rtt.Config{},
		AntiEntropy: &antientropy.Config{Interval: 500 * time.Millisecond},
	}
}

// Node is one composed overlay node. Not safe for concurrent use: drive
// it from one goroutine or under one lock, like the machine it wraps.
type Node struct {
	m *core.Machine
	// tbl is m.Table(), which never changes after construction; kept
	// here so a table read (one per hop of a simulated lookup, over
	// thousands of tables) costs one pointer chase, not two.
	tbl     *table.Table
	prober  *liveness.Prober
	est     *rtt.Estimator
	engine  *antientropy.Engine
	sampler *sampling.Engine

	sink     obs.Sink
	selfName string

	// targets and out are reused between Ticks; out is what Tick returns.
	targets []table.Ref
	out     []msg.Envelope
	// monitored is what the prober's targets were last built from: table
	// version + 1, the machine's reverse-set generation, the prober's own
	// target generation. Tick rebuilds them only when one has moved.
	monitored [3]uint64
}

// New wraps m with the parts cfg selects and cross-wires them.
func New(m *core.Machine, cfg Config) *Node {
	n := &Node{m: m, tbl: m.Table()}
	if !obs.IsNop(cfg.Sink) {
		n.sink = cfg.Sink
		n.selfName = m.Self().ID.String()
	}
	m.SetSink(cfg.Sink)
	m.SetTracer(cfg.Tracer)
	if cfg.RTT != nil {
		n.est = rtt.New()
		m.SetRTT(n.est)
	}
	if cfg.Liveness != nil {
		n.prober = liveness.NewProber(*cfg.Liveness, m.Self())
		n.prober.SetSink(cfg.Sink)
		n.prober.SetTracer(cfg.Tracer)
		if n.est != nil {
			n.prober.SetRTT(n.est)
		}
	}
	if cfg.AntiEntropy != nil {
		n.engine = antientropy.New(*cfg.AntiEntropy, m)
		n.engine.SetSink(cfg.Sink)
		n.engine.SetTracer(cfg.Tracer)
		if n.est != nil {
			n.engine.SetHealth(n.est)
		}
		// News the machine does not see: an exit from partition mode, a
		// rejected envelope. A suspect that answers again is synced with.
		n.engine.SetNews(func() uint64 {
			g := m.GuardStats().Rejected
			if n.prober != nil {
				g += n.prober.Stats().PartitionsExited
			}
			return uint64(g)
		})
		if n.prober != nil {
			n.prober.SetOnRecover(n.engine.Returned)
		}
	}
	if cfg.Sampling != nil {
		n.sampler = sampling.New(*cfg.Sampling, m.Self())
		// Quarantined and degraded peers are inadmissible; live table
		// neighbors re-prime an emptied view.
		est := n.est
		n.sampler.SetValidator(func(r table.Ref) bool {
			return !m.PeerQuarantined(r.ID) && (est == nil || !est.Degraded(r.ID))
		})
		n.sampler.SetBootstrap(m.SyncPeers)
		n.sampler.SetSink(cfg.Sink)
		n.sampler.SetTracer(cfg.Tracer)
		m.SetPeerSampler(n.sampler.Sample)
		if n.engine != nil {
			n.engine.SetPeerSampler(n.sampler.Sample)
		}
	}
	return n
}

// Machine returns the protocol machine. Advance the node before calling
// an entry point that sends (StartJoin, StartLeave, StartRejoin).
func (n *Node) Machine() *core.Machine { return n.m }

// Table returns the machine's neighbor table.
func (n *Node) Table() *table.Table { return n.tbl }

// Prober returns the failure detector, nil without Config.Liveness.
func (n *Node) Prober() *liveness.Prober { return n.prober }

// Advance hands the node the time now without running any timer. The
// node keeps no clock of its own: the machine holds the time, and
// Deliver and Tick hand it over themselves before any part runs. A
// driver calls Advance before invoking a machine entry point directly,
// so the exchange that call opens is stamped with its real send time.
func (n *Node) Advance(now time.Duration) { n.m.Advance(now) }

// Deliver hands the node one inbound envelope at time now and returns
// the envelopes to transmit in response, valid until the next call into
// the node. Ping and Pong belong to the failure detector; any other
// message is proof of its sender's liveness. Sampling messages belong
// to the sampler, which has no input validation of its own, so they
// pass guard.Check first. Everything else, and everything whose owner
// is not attached, goes to the machine, which counts probes and
// sampling messages it has no owner for and answers none of them.
func (n *Node) Deliver(env msg.Envelope, now time.Duration) []msg.Envelope {
	n.m.Advance(now)
	var t msg.Type
	if env.Msg != nil {
		t = env.Msg.Type()
	}
	if n.prober != nil {
		if t == msg.TPing || t == msg.TPong {
			return n.prober.HandleMessage(env, now)
		}
		n.prober.Observe(env.From.ID)
	}
	if n.sampler != nil {
		switch t {
		case msg.TSamplePush, msg.TSamplePullReq, msg.TSamplePullRly:
			if err := guard.Check(n.m.Params(), n.m.Self().ID, env); err != nil {
				n.reject(env, err)
				return nil
			}
			return n.sampler.Deliver(env)
		}
	}
	return n.m.Deliver(env)
}

// reject reports a sampling message that failed validation.
func (n *Node) reject(env msg.Envelope, err error) {
	if n.sink != nil {
		n.sink.Emit(obs.Event{Node: n.selfName, Kind: obs.KindGuardReject, Peer: env.From.ID, Msg: env.Msg.Type().String(), Detail: err.Error()})
	}
}

// Tick advances every clock-driven part to now and returns the
// envelopes to transmit, in the order the parts ran: failure detector
// (probes), the machine's reaction to each peer the detector declared
// failed and then to each it dropped as unreachable, the machine's own
// timers, anti-entropy, sampler. The result is valid until the next
// call into the node.
func (n *Node) Tick(now time.Duration) []msg.Envelope {
	if n.prober == nil && n.engine == nil && n.sampler == nil {
		return n.m.Tick(now)
	}
	n.m.Advance(now)
	out := n.out[:0]
	if n.prober != nil {
		if at := [3]uint64{n.tbl.Version() + 1, n.m.ReverseGen(), n.prober.TargetGen()}; at != n.monitored {
			n.monitored = at
			n.prober.SetTargets(n.probeTargets())
		}
		probes, declared, unreachable := n.prober.Tick(now)
		out = append(out, probes...)
		for _, gone := range declared {
			out = append(out, n.m.DeclareFailed(gone)...)
		}
		for _, gone := range unreachable {
			out = append(out, n.m.DropUnreachable(gone)...)
		}
	}
	out = append(out, n.m.Tick(now)...)
	if n.engine != nil {
		out = append(out, n.engine.Tick(now)...)
	}
	if n.sampler != nil {
		out = append(out, n.sampler.Tick(now)...)
	}
	n.out = out
	return out
}

// probeTargets collects the monitoring set: every table entry plus
// every reverse neighbor, copied out of the machine's own slice.
func (n *Node) probeTargets() []table.Ref {
	self := n.m.Self().ID
	targets := n.targets[:0]
	n.tbl.ForEach(func(_, _ int, nb table.Neighbor) {
		if nb.ID != self {
			targets = append(targets, nb.Ref())
		}
	})
	n.targets = append(targets, n.m.ReverseNeighbors()...)
	return n.targets
}

// Stats is a read-only view of every part's counters; parts that are
// not attached read zero.
type Stats struct {
	Guard       core.GuardStats
	Liveness    liveness.Stats
	AntiEntropy antientropy.Stats
	Sampling    sampling.Stats
	RTT         rtt.Stats
}

// Stats snapshots the node's counters.
func (n *Node) Stats() Stats {
	s := Stats{Guard: n.m.GuardStats()}
	if n.prober != nil {
		s.Liveness = n.prober.Stats()
	}
	if n.engine != nil {
		s.AntiEntropy = n.engine.Stats()
	}
	if n.sampler != nil {
		s.Sampling = n.sampler.Stats()
	}
	if n.est != nil {
		s.RTT = n.est.Stats()
	}
	return s
}
