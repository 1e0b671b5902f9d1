package tcptransport

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/obs"
	"hypercube/internal/table"
)

// AdminHandler exposes a node's state and lifecycle over HTTP for
// operators:
//
//	GET  /status  — identity, protocol status, uptime, message counters,
//	                per-peer outbound queue depths
//	GET  /table   — the neighbor table as JSON
//	GET  /metrics — Prometheus text-format metrics (counters, gauges,
//	                join-latency/probe-RTT/anti-entropy histograms)
//	GET  /trace   — drain the in-memory event ring (requires
//	                WithTraceRing; 404 otherwise)
//	POST /join    — body {"id":"...", "addr":"host:port"}: join via bootstrap
//	POST /leave   — start a graceful departure
//
// Mount it on any mux or serve it directly; cmd/hypercubed wires it to a
// local port.
func (n *Node) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", n.handleStatus)
	mux.HandleFunc("GET /table", n.handleTable)
	mux.Handle("GET /metrics", n.MetricsHandler())
	mux.HandleFunc("GET /trace", n.handleTrace)
	mux.HandleFunc("POST /join", n.handleJoin)
	mux.HandleFunc("POST /leave", n.handleLeave)
	return mux
}

type statusResponse struct {
	ID     string `json:"id"`
	Addr   string `json:"addr"`
	Status string `json:"status"`
	B      int    `json:"b"`
	D      int    `json:"d"`
	Filled int    `json:"filledEntries"`
	// UptimeSeconds is how long the node has been running; LastTransition
	// is the wall-clock time of the most recent protocol-status change
	// (absent before the first one).
	UptimeSeconds  float64        `json:"uptimeSeconds"`
	LastTransition string         `json:"lastTransition,omitempty"`
	Sent           map[string]int `json:"sent"`
	Received       map[string]int `json:"received"`
	Retried        map[string]int `json:"retried,omitempty"`
	Dropped        map[string]int `json:"dropped,omitempty"`
	Bytes          int            `json:"bytesSent"`
	// Queues maps peer address to outbound queue depth — a persistently
	// deep queue is the signature of a wedged or unreachable peer.
	Queues      map[string]int     `json:"queues,omitempty"`
	Liveness    *livenessStatus    `json:"liveness,omitempty"`
	RTT         *rttStatus         `json:"rtt,omitempty"`
	AntiEntropy *antiEntropyStatus `json:"antiEntropy,omitempty"`
	Sampling    *samplingStatus    `json:"sampling,omitempty"`
	Guard       *guardStatus       `json:"guard,omitempty"`
}

// rttStatus is the adaptive-timeout slice of /status; present only when
// the node was started with WithRTT.
type rttStatus struct {
	Tracked  int `json:"tracked"`
	Degraded int `json:"degraded"`
	Samples  int `json:"samples"`
	Marked   int `json:"marked"`
	Cleared  int `json:"cleared"`
}

// guardStatus is the hostile-input slice of /status: the machine's
// semantic-validation and quarantine counters plus the transport's
// inbound-connection hardening counters. Always present — validation
// is always on.
type guardStatus struct {
	Rejected       int `json:"rejected"`
	UnknownDropped int `json:"unknownDropped"`
	IngressDropped int `json:"ingressDropped"`
	BusyDeferred   int `json:"busyDeferred"`
	Charges        int `json:"charges"`
	Quarantines    int `json:"quarantines"`
	Releases       int `json:"releases"`
	Quarantined    int `json:"quarantined"`

	DecodeErrors     int64 `json:"decodeErrors"`
	OversizedFrames  int64 `json:"oversizedFrames"`
	ThrottledInbound int64 `json:"throttledInbound"`
	Disconnects      int64 `json:"disconnects"`
}

// livenessStatus is the failure detector's slice of /status; present
// only when the node was started with WithLiveness.
type livenessStatus struct {
	Targets           int  `json:"targets"`
	ProbesSent        int  `json:"probesSent"`
	IndirectSent      int  `json:"indirectSent"`
	PongsReceived     int  `json:"pongsReceived"`
	Suspects          int  `json:"suspects"`
	Declared          int  `json:"declared"`
	Partitioned       bool `json:"partitioned"`
	PartitionsEntered int  `json:"partitionsEntered"`
	PartitionsExited  int  `json:"partitionsExited"`
	DeclarationsHeld  int  `json:"declarationsHeld"`
	Unreachable       int  `json:"unreachable"`
	// Adaptive-timeout activity; all zero when the node runs fixed
	// timeouts (no WithRTT).
	AdaptiveDeadlines int `json:"adaptiveDeadlines,omitempty"`
	LatePongs         int `json:"latePongs,omitempty"`
	DegradedMarked    int `json:"degradedMarked,omitempty"`
	DegradedCleared   int `json:"degradedCleared,omitempty"`
}

// antiEntropyStatus is the table-repair slice of /status; present only
// when the node was started with WithAntiEntropy.
type antiEntropyStatus struct {
	Rounds int `json:"rounds"`
	Pulled int `json:"pulled"`
	Purged int `json:"purged"`
}

// samplingStatus is the gossip peer-sampling slice of /status; present
// only when the node was started with WithSampling.
type samplingStatus struct {
	Rounds         int `json:"rounds"`
	ViewSize       int `json:"viewSize"`
	SamplerFill    int `json:"samplerFill"`
	PushesSent     int `json:"pushesSent"`
	PushesReceived int `json:"pushesReceived"`
	PullsSent      int `json:"pullsSent"`
	PullsAnswered  int `json:"pullsAnswered"`
	FloodsDetected int `json:"floodsDetected"`
	Ejected        int `json:"ejected"`
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	c := n.Counters()
	resp := statusResponse{
		ID:            n.Ref().ID.String(),
		Addr:          n.Ref().Addr,
		Status:        n.Status().String(),
		B:             n.params.B,
		D:             n.params.D,
		Filled:        n.Snapshot().FilledCount(),
		UptimeSeconds: n.Uptime().Seconds(),
		Sent:          make(map[string]int),
		Received:      make(map[string]int),
		Retried:       make(map[string]int),
		Dropped:       make(map[string]int),
		Bytes:         c.BytesSent,
		Queues:        n.QueueDepths(),
	}
	if at, status := n.tobs.last(); !at.IsZero() {
		resp.LastTransition = fmt.Sprintf("%s (-> %s)", at.UTC().Format(time.RFC3339Nano), status)
	}
	for _, typ := range msg.Types() {
		if v := c.SentOf(typ); v > 0 {
			resp.Sent[typ.String()] = v
		}
		if v := c.ReceivedOf(typ); v > 0 {
			resp.Received[typ.String()] = v
		}
		if v := c.RetriedOf(typ); v > 0 {
			resp.Retried[typ.String()] = v
		}
		if v := c.DroppedOf(typ); v > 0 {
			resp.Dropped[typ.String()] = v
		}
	}
	if stats, suspects, ok := n.LivenessStats(); ok {
		n.mu.Lock()
		targets := n.node.Prober().TargetCount()
		partitioned := n.node.Prober().Partitioned()
		n.mu.Unlock()
		resp.Liveness = &livenessStatus{
			Targets:           targets,
			ProbesSent:        stats.ProbesSent,
			IndirectSent:      stats.IndirectSent,
			PongsReceived:     stats.PongsReceived,
			Suspects:          suspects,
			Declared:          stats.Declared,
			Partitioned:       partitioned,
			PartitionsEntered: stats.PartitionsEntered,
			PartitionsExited:  stats.PartitionsExited,
			DeclarationsHeld:  stats.DeclarationsHeld,
			Unreachable:       stats.Unreachable,
			AdaptiveDeadlines: stats.AdaptiveDeadlines,
			LatePongs:         stats.LatePongs,
			DegradedMarked:    stats.DegradedMarked,
			DegradedCleared:   stats.DegradedCleared,
		}
	}
	if stats, ok := n.RTTStats(); ok {
		resp.RTT = &rttStatus{
			Tracked:  stats.Tracked,
			Degraded: stats.Degraded,
			Samples:  stats.Samples,
			Marked:   stats.Marked,
			Cleared:  stats.Cleared,
		}
	}
	if stats, ok := n.AntiEntropyStats(); ok {
		resp.AntiEntropy = &antiEntropyStatus{
			Rounds: stats.Rounds,
			Pulled: stats.Pulled,
			Purged: stats.Purged,
		}
	}
	if stats, ok := n.SamplingStats(); ok {
		resp.Sampling = &samplingStatus{
			Rounds:         stats.Rounds,
			ViewSize:       stats.ViewSize,
			SamplerFill:    stats.SamplerFill,
			PushesSent:     stats.PushesSent,
			PushesReceived: stats.PushesReceived,
			PullsSent:      stats.PullsSent,
			PullsAnswered:  stats.PullsAnswered,
			FloodsDetected: stats.FloodsDetected,
			Ejected:        stats.Ejected,
		}
	}
	gs := n.GuardStats()
	ts := n.TransportGuardStats()
	resp.Guard = &guardStatus{
		Rejected:         gs.Rejected,
		UnknownDropped:   gs.UnknownDropped,
		IngressDropped:   gs.IngressDropped,
		BusyDeferred:     gs.BusyDeferred,
		Charges:          gs.Scorer.Charges,
		Quarantines:      gs.Scorer.Quarantines,
		Releases:         gs.Scorer.Releases,
		Quarantined:      gs.Scorer.Quarantined,
		DecodeErrors:     ts.DecodeErrors,
		OversizedFrames:  ts.OversizedFrames,
		ThrottledInbound: ts.ThrottledInbound,
		Disconnects:      ts.Disconnects,
	}
	writeJSON(w, resp)
}

type tableEntry struct {
	Level int    `json:"level"`
	Digit int    `json:"digit"`
	ID    string `json:"id"`
	Addr  string `json:"addr,omitempty"`
	State string `json:"state"`
}

func (n *Node) handleTable(w http.ResponseWriter, r *http.Request) {
	var entries []tableEntry
	n.Snapshot().ForEach(func(level, digit int, nb table.Neighbor) {
		entries = append(entries, tableEntry{
			Level: level, Digit: digit,
			ID: nb.ID.String(), Addr: nb.Addr, State: nb.State.String(),
		})
	})
	writeJSON(w, map[string]any{
		"owner":   n.Ref().ID.String(),
		"entries": entries,
	})
}

type joinRequest struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	bootID, err := id.Parse(n.params, req.ID)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad bootstrap id: %v", err), http.StatusBadRequest)
		return
	}
	if n.Status() != core.StatusCopying {
		http.Error(w, fmt.Sprintf("node is %v, can only join from status copying", n.Status()), http.StatusConflict)
		return
	}
	if err := n.Join(table.Ref{ID: bootID, Addr: req.Addr}); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, map[string]string{"result": "joining"})
}

func (n *Node) handleTrace(w http.ResponseWriter, r *http.Request) {
	events, ok := n.DrainTrace()
	if !ok {
		http.Error(w, "trace ring not enabled (start the node with WithTraceRing)", http.StatusNotFound)
		return
	}
	if events == nil {
		events = []obs.Event{}
	}
	writeJSON(w, map[string]any{"events": events})
}

func (n *Node) handleLeave(w http.ResponseWriter, r *http.Request) {
	if n.Status() != core.StatusInSystem {
		http.Error(w, fmt.Sprintf("node is %v, can only leave from in_system", n.Status()), http.StatusConflict)
		return
	}
	if err := n.Leave(); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, map[string]string{"result": "leaving"})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
