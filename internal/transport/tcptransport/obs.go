package tcptransport

import (
	"net/http"
	"sync"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/obs"
)

// nodeObs is the per-node observability hub, always installed on TCP
// nodes: every protocol event (machine, prober, anti-entropy engine,
// delivery layer) flows through it, already stamped with wall time
// since node start by the obs.Clocked wrapper. It reduces the stream
// into the node's metrics registry, remembers the last protocol-status
// transition for /status, and forwards to the optional user sink and
// trace ring.
//
// Emitters call it from different goroutines, some under the protocol
// lock n.mu and some (writer goroutines) under none, so its own mutex
// must stay a leaf: Emit takes it briefly and calls nothing that locks
// elsewhere.
// Registry instruments are atomic and need no lock at all.
type nodeObs struct {
	reg     *obs.Registry
	forward obs.Sink // user sink and/or trace ring; nil when none

	sent     *obs.CounterVec
	received *obs.CounterVec
	retried  *obs.CounterVec
	dropped  *obs.CounterVec
	events   *obs.CounterVec
	joinDur  *obs.Histogram
	probeRTT *obs.Histogram
	syncDur  *obs.Histogram

	mu             sync.Mutex
	joinStartAt    time.Duration
	joinInFlight   bool
	probeSentAt    map[uint64]time.Duration
	lastTransition time.Time
	lastStatus     string
}

// probeMapLimit bounds probeSentAt against a pathological stream of
// probes whose acks and misses never arrive (both prune normally).
const probeMapLimit = 4096

func newNodeObs() *nodeObs {
	reg := obs.NewRegistry()
	o := &nodeObs{
		reg:         reg,
		probeSentAt: make(map[uint64]time.Duration),
	}
	o.sent = reg.CounterVec("hypercube_messages_sent_total",
		"Protocol messages sent, by message type.", "type")
	o.received = reg.CounterVec("hypercube_messages_received_total",
		"Protocol messages received, by message type.", "type")
	o.retried = reg.CounterVec("hypercube_messages_retried_total",
		"Delivery-layer retry attempts, by message type.", "type")
	o.dropped = reg.CounterVec("hypercube_messages_dropped_total",
		"Messages dead-lettered after exhausting delivery attempts, by message type.", "type")
	o.events = reg.CounterVec("hypercube_events_total",
		"Protocol events emitted, by event kind.", "kind")
	o.joinDur = reg.Histogram("hypercube_join_duration_seconds",
		"Join latency from join start to the in_system transition.", obs.LatencyBuckets())
	o.probeRTT = reg.Histogram("hypercube_probe_rtt_seconds",
		"Liveness probe round-trip time (send to pong).", obs.ExpBuckets(0.0005, 2, 14))
	o.syncDur = reg.Histogram("hypercube_antientropy_round_seconds",
		"Real time spent executing anti-entropy engine ticks.", obs.ExpBuckets(0.0001, 4, 10))
	return o
}

// Emit implements obs.Sink.
func (o *nodeObs) Emit(e obs.Event) {
	o.events.With(string(e.Kind)).Inc()
	switch e.Kind {
	case obs.KindSend:
		o.sent.With(e.Msg).Inc()
	case obs.KindRecv:
		o.received.With(e.Msg).Inc()
	case obs.KindRetry:
		o.retried.With(e.Msg).Inc()
	case obs.KindDrop:
		o.dropped.With(e.Msg).Inc()
	case obs.KindJoinStart:
		o.mu.Lock()
		if !o.joinInFlight {
			o.joinInFlight = true
			o.joinStartAt = e.T
		}
		o.mu.Unlock()
	case obs.KindStatus:
		o.mu.Lock()
		o.lastTransition = time.Now()
		o.lastStatus = e.Detail
		if e.Detail == "in_system" && o.joinInFlight {
			o.joinInFlight = false
			o.joinDur.Observe((e.T - o.joinStartAt).Seconds())
		}
		o.mu.Unlock()
	case obs.KindProbe:
		o.mu.Lock()
		if len(o.probeSentAt) < probeMapLimit {
			o.probeSentAt[e.Seq] = e.T
		}
		o.mu.Unlock()
	case obs.KindProbeAck:
		o.mu.Lock()
		if at, ok := o.probeSentAt[e.Seq]; ok {
			delete(o.probeSentAt, e.Seq)
			o.probeRTT.Observe((e.T - at).Seconds())
		}
		o.mu.Unlock()
	case obs.KindProbeMiss:
		o.mu.Lock()
		delete(o.probeSentAt, e.Seq)
		o.mu.Unlock()
	}
	if o.forward != nil {
		o.forward.Emit(e)
	}
}

// last returns the wall time and name of the most recent status
// transition; zero time if none happened since start.
func (o *nodeObs) last() (time.Time, string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lastTransition, o.lastStatus
}

// emitTransport reports a delivery-layer event (retry, drop) through
// the node's sink; a no-op before the sink is installed.
func (n *Node) emitTransport(kind obs.Kind, typeName string) {
	if n.sink != nil {
		n.sink.Emit(obs.Event{Node: n.selfName, Kind: kind, Msg: typeName})
	}
}

// Metrics returns the node's metrics registry (always present), for
// embedding its /metrics endpoint in a larger mux.
func (n *Node) Metrics() *obs.Registry { return n.tobs.reg }

// MetricsHandler returns the Prometheus text-format scrape endpoint.
func (n *Node) MetricsHandler() http.Handler { return n.tobs.reg.Handler() }

// DrainTrace empties the node's in-memory trace ring, oldest event
// first; ok is false when the node was started without WithTraceRing.
func (n *Node) DrainTrace() (events []obs.Event, ok bool) {
	if n.ring == nil {
		return nil, false
	}
	return n.ring.Drain(), true
}

// QueueDepths snapshots the per-peer outbound queue lengths, keyed by
// peer address. Empty queues are included while their writer lives.
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

// setupObs wires the node's observability hub: the registry's runtime
// gauges, the optional trace ring, and the clocked sink every protocol
// component emits through. Called once from start, before any
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
	n.tobs.reg.GaugeFunc("hypercube_uptime_seconds",
		"Seconds since the node started.",
		func() float64 { return n.Uptime().Seconds() })
	n.tobs.reg.GaugeFunc("hypercube_outbound_queue_depth",
		"Total envelopes waiting in per-peer outbound queues.",
		func() float64 {
			total := 0
			for _, d := range n.QueueDepths() {
				total += d
			}
			return float64(total)
		})
	n.tobs.reg.GaugeFunc("hypercube_guard_rejected_total",
		"Envelopes rejected by semantic validation.",
		func() float64 { return float64(n.GuardStats().Rejected) })
	n.tobs.reg.GaugeFunc("hypercube_guard_quarantined",
		"Peers currently quarantined by the misbehavior scorer.",
		func() float64 { return float64(n.GuardStats().Scorer.Quarantined) })
	n.tobs.reg.GaugeFunc("hypercube_inbound_decode_errors_total",
		"Malformed inbound frames (counted against the per-connection budget).",
		func() float64 { return float64(n.decodeErrors.Load()) })
	n.tobs.reg.GaugeFunc("hypercube_inbound_throttled_total",
		"Inbound envelopes stalled by the per-connection rate limiter.",
		func() float64 { return float64(n.throttledInbound.Load()) })
	n.tobs.reg.GaugeFunc("hypercube_guard_disconnects_total",
		"Inbound connections dropped for oversized frames or exhausted decode budgets.",
		func() float64 { return float64(n.guardDisconnects.Load()) })
	if n.cfg.RTT != nil {
		n.tobs.reg.GaugeFunc("hypercube_rtt_tracked_peers",
			"Peers with at least one RTT sample in the shared estimator.",
			func() float64 {
				st, _ := n.RTTStats()
				return float64(st.Tracked)
			})
		n.tobs.reg.GaugeFunc("hypercube_rtt_degraded_peers",
			"Peers currently flagged degraded (persistently slow vs the cross-peer median).",
			func() float64 {
				st, _ := n.RTTStats()
				return float64(st.Degraded)
			})
		n.tobs.reg.GaugeFunc("hypercube_rtt_samples_total",
			"RTT samples fed into the shared estimator.",
			func() float64 {
				st, _ := n.RTTStats()
				return float64(st.Samples)
			})
		n.tobs.reg.GaugeFunc("hypercube_rtt_degraded_marked_total",
			"Times any peer was flagged degraded.",
			func() float64 {
				st, _ := n.RTTStats()
				return float64(st.Marked)
			})
	}
	if n.cfg.Sampling != nil {
		n.tobs.reg.GaugeFunc("hypercube_sampling_view_size",
			"Current gossip peer-sampling view occupancy.",
			func() float64 {
				st, _ := n.SamplingStats()
				return float64(st.ViewSize)
			})
		n.tobs.reg.GaugeFunc("hypercube_sampling_flood_rounds_total",
			"Sampling rounds that hit the Brahms push-flood threshold and kept the previous view.",
			func() float64 {
				st, _ := n.SamplingStats()
				return float64(st.FloodsDetected)
			})
	}
}
