package tcptransport

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"hypercube/internal/antientropy"
	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/msg"
	"hypercube/internal/obs"
	"hypercube/internal/rtt"
	"hypercube/internal/sampling"
)

// nodeObs is the per-node observability hub, always installed on TCP
// nodes: every protocol event (machine, prober, anti-entropy engine,
// delivery layer) flows through it, already stamped with wall time
// since node start by the obs.Clocked wrapper. It reduces the stream
// into what no counter can say — the three latency histograms, the
// per-kind event tally and the last protocol-status transition — and
// forwards to the optional user sink and trace ring. Everything else on
// /status and /metrics is a rendering of Stats.
//
// Emitters call it from different goroutines, some under the protocol
// lock n.mu and some (writer goroutines) under none. It needs no lock
// of its own: registry instruments are atomic, and the join and status
// state is written only by the machine's events, which are all emitted
// under n.mu, so it is read under n.mu too.
type nodeObs struct {
	reg     *obs.Registry
	forward obs.Sink // user sink and/or trace ring; nil when none

	events   *obs.CounterVec
	joinDur  *obs.Histogram
	probeRTT *obs.Histogram
	syncDur  *obs.Histogram

	// Guarded by n.mu.
	joinStartAt    time.Duration
	joinInFlight   bool
	lastTransition time.Time
	lastStatus     string
}

func newNodeObs() *nodeObs {
	reg := obs.NewRegistry()
	o := &nodeObs{reg: reg}
	o.events = reg.CounterVec("hypercube_events_total",
		"Protocol events emitted, by event kind.", "kind")
	o.joinDur = reg.Histogram("hypercube_join_duration_seconds",
		"Join latency from join start to the in_system transition.", obs.LatencyBuckets())
	o.probeRTT = reg.Histogram("hypercube_probe_rtt_seconds",
		"Liveness round-trip time of direct probes, late ones included (send to pong).", obs.ExpBuckets(0.0005, 2, 14))
	o.syncDur = reg.Histogram("hypercube_antientropy_round_seconds",
		"Real time spent executing anti-entropy engine ticks.", obs.ExpBuckets(0.0001, 4, 10))
	return o
}

// Emit implements obs.Sink.
func (o *nodeObs) Emit(e obs.Event) {
	o.events.With(string(e.Kind)).Inc()
	switch e.Kind {
	case obs.KindJoinStart:
		if !o.joinInFlight {
			o.joinInFlight = true
			o.joinStartAt = e.T
		}
	case obs.KindStatus:
		o.lastTransition = time.Now()
		o.lastStatus = e.Detail
		if e.Detail == "in_system" && o.joinInFlight {
			o.joinInFlight = false
			o.joinDur.Observe((e.T - o.joinStartAt).Seconds())
		}
	case obs.KindProbeAck:
		if e.RTT > 0 {
			o.probeRTT.Observe(e.RTT.Seconds())
		}
	}
	if o.forward != nil {
		o.forward.Emit(e)
	}
}

// emitTransport reports a delivery-layer event (retry, drop) through
// the node's sink; a no-op before the sink is installed.
func (n *Node) emitTransport(kind obs.Kind, typeName string) {
	if n.sink != nil {
		n.sink.Emit(obs.Event{Node: n.selfName, Kind: kind, Msg: typeName})
	}
}

// Metrics returns the node's metrics registry (always present). It
// holds the event-fed instruments and renders the derived series of
// Stats beside them on every scrape.
func (n *Node) Metrics() *obs.Registry { return n.tobs.reg }

// MetricsHandler returns the Prometheus text-format scrape endpoint.
func (n *Node) MetricsHandler() http.Handler { return n.tobs.reg.Handler() }

// DrainTrace empties the node's in-memory trace ring, oldest event
// first; ok is false when the node was started without Config.TraceRing.
func (n *Node) DrainTrace() (events []obs.Event, ok bool) {
	if n.ring == nil {
		return nil, false
	}
	return n.ring.Drain(), true
}

// QueueDepths snapshots the per-peer outbound queue lengths, keyed by
// peer address. Every peer the node has ever sent to is listed, at
// depth 0 once its queue has drained.
func (n *Node) QueueDepths() map[string]int {
	n.peersMu.Lock()
	queues := make(map[string]*peerQueue, len(n.peers))
	for addr, pq := range n.peers {
		queues[addr] = pq
	}
	n.peersMu.Unlock()
	out := make(map[string]int, len(queues))
	for addr, pq := range queues {
		out[addr] = pq.depth()
	}
	return out
}

// Uptime returns how long the node has been running.
func (n *Node) Uptime() time.Duration { return time.Since(n.start) }

// Stats is everything the node counts, read in one go: the counters the
// machine and each attached part keep for themselves (the same structs
// the simulator sums into fleet totals) plus what only this runtime
// knows. GET /status is its JSON and GET /metrics its numeric fields
// (obs.WriteStruct: counters unless tagged gauge), so a field added
// here or to any part's Stats reaches both with no further code.
type Stats struct {
	ID     string `json:"id"`
	Addr   string `json:"addr"`
	Status string `json:"status"`
	B      int    `json:"b" metric:"gauge"`
	D      int    `json:"d" metric:"gauge"`
	// FilledEntries is the number of non-empty neighbor-table entries.
	FilledEntries int `json:"filledEntries" metric:"gauge"`
	// UptimeSeconds is how long the node has been running; LastTransition
	// is the wall-clock time and target of the most recent protocol-status
	// change (absent before the first one).
	UptimeSeconds  float64 `json:"uptimeSeconds" metric:"gauge"`
	LastTransition string  `json:"lastTransition,omitempty"`
	// Counters are the machine's message tallies by type (keys sent,
	// received, retried, dropped, rejected; bytesSent), the delivery
	// layer's retries and dead letters included. /metrics serves them as
	// hypercube_messages_*_total{type}.
	msg.Counters
	// Queues maps peer address to outbound queue depth — a persistently
	// deep queue is the signature of a wedged or unreachable peer.
	// OutboundQueueDepth is their sum.
	Queues             map[string]int `json:"queues,omitempty"`
	OutboundQueueDepth int            `json:"outboundQueueDepth" metric:"gauge"`
	// Writers is how many writer goroutines are running: one per peer
	// whose queue holds envelopes or whose last batch is still in flight.
	Writers int64        `json:"writers" metric:"gauge"`
	Inbound InboundStats `json:"inbound"`
	// Guard is always present (validation is always on); the sections
	// below are nil for parts the node was started without. Antientropy
	// is spelled as one word so that its series share the
	// hypercube_antientropy_ prefix of the round-duration histogram.
	Guard       core.GuardStats    `json:"guard"`
	Liveness    *LivenessStats     `json:"liveness,omitempty"`
	RTT         *rtt.Stats         `json:"rtt,omitempty"`
	Antientropy *antientropy.Stats `json:"antiEntropy,omitempty"`
	Sampling    *sampling.Stats    `json:"sampling,omitempty"`
}

// InboundStats are the inbound connection-hardening counters (see
// readLoop): malformed frames, frames over maxFrameBytes,
// envelopes stalled by the inbound rate limiter, and connections
// dropped for exhausting the decode-error budget or declaring an
// oversized frame.
type InboundStats struct {
	DecodeErrors    int64 `json:"decodeErrors"`
	OversizedFrames int64 `json:"oversizedFrames"`
	Throttled       int64 `json:"throttled"`
	Disconnects     int64 `json:"disconnects"`
}

// LivenessStats is the failure detector's section of Stats: its own
// counters plus the current size of its target set, how many of those
// are under suspicion right now (the counter Suspects, key "suspected",
// is how many ever became so), and whether declarations are frozen.
// The first two take a walk of the target set, so they are read here,
// once per request, rather than in Prober.Stats, which the simulator
// sums over every node.
type LivenessStats struct {
	liveness.Stats
	Targets     int  `json:"targets" metric:"gauge"`
	SuspectsNow int  `json:"suspects" metric:"gauge"`
	Partitioned bool `json:"partitioned"`
}

// Stats snapshots the node. The protocol lock is taken once, so the
// machine's and every part's counters are one consistent cut; the
// transport's own atomics and queue depths are read just before it.
func (n *Node) Stats() Stats {
	self := n.Ref()
	s := Stats{
		ID:            self.ID.String(),
		Addr:          self.Addr,
		B:             n.params.B,
		D:             n.params.D,
		UptimeSeconds: n.Uptime().Seconds(),
		Queues:        n.QueueDepths(),
		Writers:       n.writers.Load(),
		Inbound: InboundStats{
			DecodeErrors:    n.decodeErrors.Load(),
			OversizedFrames: n.oversizedFrames.Load(),
			Throttled:       n.throttledInbound.Load(),
			Disconnects:     n.guardDisconnects.Load(),
		},
	}
	for _, depth := range s.Queues {
		s.OutboundQueueDepth += depth
	}
	n.mu.Lock()
	if at := n.tobs.lastTransition; !at.IsZero() {
		s.LastTransition = fmt.Sprintf("%s (-> %s)", at.UTC().Format(time.RFC3339Nano), n.tobs.lastStatus)
	}
	m := n.node.Machine()
	s.Status = m.Status().String()
	s.FilledEntries = n.node.Table().FilledCount()
	s.Counters = *m.Counters()
	parts := n.node.Stats()
	if p := n.node.Prober(); p != nil {
		s.Liveness = &LivenessStats{
			Stats:       parts.Liveness,
			Targets:     p.TargetCount(),
			SuspectsNow: p.SuspectCount(),
			Partitioned: p.Partitioned(),
		}
	}
	n.mu.Unlock()
	s.Guard = parts.Guard
	if n.cfg.RTT != nil {
		s.RTT = &parts.RTT
	}
	if n.cfg.AntiEntropy != nil {
		s.Antientropy = &parts.AntiEntropy
	}
	if n.cfg.Sampling != nil {
		s.Sampling = &parts.Sampling
	}
	return s
}

// writeMessageSeries renders c's per-type tallies as the labelled
// families hypercube_messages_{sent,received,retried,dropped,rejected}_total.
func writeMessageSeries(w io.Writer, c *msg.Counters) {
	for _, fam := range []struct {
		name string
		by   *msg.PerType
	}{
		{"sent", &c.Sent}, {"received", &c.Received}, {"retried", &c.Retried},
		{"dropped", &c.Dropped}, {"rejected", &c.Rejected},
	} {
		fmt.Fprintf(w, "# TYPE hypercube_messages_%s_total counter\n", fam.name)
		for t, v := range fam.by {
			if v != 0 {
				fmt.Fprintf(w, "hypercube_messages_%s_total{type=%q} %d\n", fam.name, msg.Type(t).String(), v)
			}
		}
	}
}

// setupObs wires the node's observability hub: the optional trace ring,
// the clocked sink every protocol component emits through, and the
// scrape-time rendering of Stats. Called once from start, before any
// goroutine runs.
func (n *Node) setupObs(self id.ID) {
	n.tobs = newNodeObs()
	n.selfName = self.String()
	if n.cfg.TraceRing > 0 {
		n.ring = obs.NewRing(n.cfg.TraceRing)
	}
	var ringSink obs.Sink
	if n.ring != nil {
		ringSink = n.ring
	}
	n.tobs.forward = obs.Tee(n.cfg.Sink, ringSink)
	n.sink = obs.Clocked(n.tobs, func() time.Duration { return time.Since(n.start) })
	n.tobs.reg.Collect(func(w io.Writer) {
		s := n.Stats()
		obs.WriteStruct(w, "hypercube", s)
		writeMessageSeries(w, &s.Counters)
	})
}
